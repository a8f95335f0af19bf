"""ProgramBuilder edge cases and Workload barrier validation.

These are exactly the malformed shapes the static analyzer must handle
gracefully, so each case is checked twice: once for builder/workload
behaviour, once through :func:`repro.analysis.footprint.analyze_programs`.
"""

import pytest

from repro.analysis.footprint import analyze_programs
from repro.cpu.isa import Barrier, Compute, Load, Store
from repro.cpu.thread import ThreadProgram
from repro.errors import ProgramError
from repro.memory.address import AddressMap, AddressSpace
from repro.workloads.program import ProgramBuilder, Workload, validate_barriers


def space():
    return AddressSpace(AddressMap(words_per_line=8, num_directories=1))


class TestBuilderEdgeCases:
    def test_empty_program_builds(self):
        program = ProgramBuilder("empty").build()
        assert len(program) == 0
        assert program.total_instructions == 0
        analysis = analyze_programs([program])
        assert analysis.footprints[0].accesses == []

    def test_compute_zero_is_noop(self):
        builder = ProgramBuilder().compute(0)
        assert len(builder) == 0

    def test_compute_negative_rejected(self):
        with pytest.raises(ProgramError, match="compute count"):
            ProgramBuilder().compute(-1)

    def test_auto_register_names_unique(self):
        builder = ProgramBuilder().load(0x10).load(0x20).load(0x30)
        regs = [op.reg for op in builder.ops()]
        assert len(set(regs)) == 3

    def test_spaced_loads_stores_and_compute_gaps(self):
        builder = ProgramBuilder().load(0x8)
        builder.spaced([0x10, Store(0x18, 4), 0x20], per_gap=1.5)
        assert builder.ops() == [
            Load("t1", 0x8),
            Load("t2", 0x10), Compute(1),
            Store(0x18, 4), Compute(2),
            Load("t3", 0x20), Compute(1),
        ]
        builder.read_modify_write(0x28)
        assert builder.ops()[-3] == Load("t4", 0x28)

    def test_duplicate_register_name_warned_by_analyzer(self):
        builder = ProgramBuilder().load(0x10, reg="r1").load(0x20, reg="r1")
        analysis = analyze_programs([builder.build()])
        assert any(
            "reloaded" in w for w in analysis.footprints[0].warnings
        )

    def test_unbalanced_acquire_flagged_by_analyzer(self):
        builder = ProgramBuilder().acquire(0x100).store(0x10, 1)
        analysis = analyze_programs([builder.build()])
        fp = analysis.footprints[0]
        assert fp.unreleased_locks == {0x100}
        assert any("ends holding" in w for w in fp.warnings)

    def test_release_without_acquire_flagged_by_analyzer(self):
        builder = ProgramBuilder().release(0x100)
        analysis = analyze_programs([builder.build()])
        assert any(
            "never acquired" in w
            for w in analysis.footprints[0].warnings
        )

    def test_critical_section_balances(self):
        builder = ProgramBuilder().critical_section(
            0x100, [Store(0x10, 1), Load("r1", 0x10)]
        )
        analysis = analyze_programs([builder.build()])
        assert analysis.footprints[0].unreleased_locks == frozenset()
        assert analysis.footprints[0].warnings == []


class TestBarrierValidation:
    def test_consistent_barriers_accepted(self):
        programs = [
            ProgramBuilder().barrier(1, 2).build(),
            ProgramBuilder().barrier(1, 2).build(),
        ]
        workload = Workload("ok", programs, space())
        assert workload.num_threads == 2

    def test_mismatched_participant_counts_rejected(self):
        programs = [
            ProgramBuilder().barrier(1, 2).build(),
            ProgramBuilder().barrier(1, 3).build(),
        ]
        with pytest.raises(ProgramError, match="inconsistent participant"):
            Workload("bad", programs, space())

    def test_participants_exceeding_threads_rejected(self):
        programs = [ProgramBuilder().barrier(1, 5).build()]
        with pytest.raises(ProgramError, match="only 1 thread"):
            Workload("bad", programs, space())

    def test_too_few_users_rejected(self):
        # Two participants declared, one thread arrives: would hang.
        programs = [
            ProgramBuilder().barrier(1, 2).build(),
            ProgramBuilder().store(0x10, 1).build(),
        ]
        with pytest.raises(ProgramError, match="never release"):
            Workload("bad", programs, space())

    def test_unequal_generation_counts_rejected(self):
        programs = [
            ProgramBuilder().barrier(1, 2).barrier(1, 2).build(),
            ProgramBuilder().barrier(1, 2).build(),
        ]
        with pytest.raises(ProgramError, match="generation counts"):
            Workload("bad", programs, space())

    def test_nonpositive_participants_rejected(self):
        programs = [ThreadProgram([Barrier(1, 0)], name="t0")]
        with pytest.raises(ProgramError, match=">= 1"):
            Workload("bad", programs, space())

    def test_subset_barrier_accepted(self):
        # Two of three threads rendezvous: legal as long as exactly the
        # declared participants use the id the same number of times.
        programs = [
            ProgramBuilder().barrier(7, 2).build(),
            ProgramBuilder().barrier(7, 2).build(),
            ProgramBuilder().store(0x10, 1).build(),
        ]
        workload = Workload("ok", programs, space())
        assert workload.num_threads == 3

    def test_validate_barriers_direct(self):
        validate_barriers([])  # no programs, no barriers: fine
        validate_barriers(
            [ThreadProgram([Store(0x10, 1)], name="t0")]
        )

    def test_bundled_workloads_validate(self):
        # Every bundled app must pass its own build-time validation.
        from repro.harness.runner import ALL_APPS, build_app_workload
        from repro.params import bsc_dypvt

        config = bsc_dypvt(seed=0)
        for app in list(ALL_APPS)[:4]:
            workload = build_app_workload(app, config, 500, 0)
            assert workload.num_threads >= 1
