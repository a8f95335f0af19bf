"""Scalar-vs-batched interpreter equivalence.

The batched interpreter (`repro.cpu.opstream` + the chunk-granular run
loop in `repro.core.driver`) is a pure execution-speed optimization: it
must be *bit-identical* to the scalar micro-op interpreter.  These tests
pin that bar the way the PR defines it — identical deterministic stats
snapshots, final registers and memory, event and RNG-draw counts, and
byte-identical replay JSONL traces — across every litmus test and the
synthetic app at several seeds, for every BulkSC configuration (Bloom and
exact signatures; no, dynamic and static private-data classification).
"""

import pytest

from repro.harness.perf import _commit_heavy_config, run_litmus_cell
from repro.harness.runner import build_app_workload
from repro.params import NAMED_CONFIGS
from repro.replay.recorder import record_run
from repro.replay.schema import write_trace
from repro.system import run_workload
from repro.verify.litmus import all_litmus_tests

LITMUS_NAMES = [test.name for test in all_litmus_tests()]
BSC_CONFIGS = ["BSCbase", "BSCdypvt", "BSCexact", "BSCstpvt"]


def over_bsc_configs(argnames, cases, ids):
    """Parametrize ``cases`` over every BulkSC config.

    BSCdypvt keeps the bare case ids, so its test names stay stable; the
    other configs append their name.
    """
    params = [
        pytest.param(
            config_name,
            *case,
            id=case_id if config_name == "BSCdypvt" else f"{case_id}-{config_name}",
        )
        for config_name in BSC_CONFIGS
        for case, case_id in zip(cases, ids)
    ]
    return pytest.mark.parametrize("config_name," + argnames, params)


def _fingerprint(result):
    """Everything a run determines, as comparable plain data."""
    machine = result.machine
    return {
        "stats": result.stats,
        "events": machine.sim.events_fired,
        "cycles": result.cycles,
        "registers": result.registers,
        "rng_draws": machine.sim.rng.draws,
        "instructions": result.total_instructions,
        "memory": result.memory.nonzero_words(),
    }


def _diff(scalar, batched):
    """Names of fingerprint fields that differ (for readable failures)."""
    return [field for field in scalar if scalar[field] != batched[field]]


def _litmus_fingerprint(config_name, test_name, interpreter, stagger=(1, 1), seed=0):
    config = _commit_heavy_config(config_name, seed, 4).with_bulksc(
        interpreter=interpreter
    )
    return _fingerprint(run_litmus_cell(test_name, config, stagger))


def _synthetic_fingerprint(config_name, interpreter, seed, instructions=2000):
    config = NAMED_CONFIGS[config_name](seed=seed).with_bulksc(
        interpreter=interpreter
    )
    workload = build_app_workload("barnes", config, instructions, seed)
    result = run_workload(
        config,
        workload.programs,
        workload.address_space,
        record_history=False,
    )
    return _fingerprint(result)


@over_bsc_configs("test_name", [(name,) for name in LITMUS_NAMES], LITMUS_NAMES)
def test_litmus_bit_identical(config_name, test_name):
    """Every litmus test under a commit-heavy config: zero divergence."""
    scalar = _litmus_fingerprint(config_name, test_name, "scalar")
    batched = _litmus_fingerprint(config_name, test_name, "batched")
    assert _diff(scalar, batched) == []


@over_bsc_configs("stagger", [((1, 60),), ((200, 7),)], ["stagger0", "stagger1"])
def test_litmus_bit_identical_across_staggers(config_name, stagger):
    """Staggered interleavings shift chunk boundaries; identity must hold."""
    scalar = _litmus_fingerprint(config_name, "SB", "scalar", stagger=stagger)
    batched = _litmus_fingerprint(config_name, "SB", "batched", stagger=stagger)
    assert _diff(scalar, batched) == []


@over_bsc_configs("seed", [(0,), (1,), (2,)], ["0", "1", "2"])
def test_synthetic_bit_identical(config_name, seed):
    """The synthetic app at realistic chunk size, three seeds."""
    scalar = _synthetic_fingerprint(config_name, "scalar", seed)
    batched = _synthetic_fingerprint(config_name, "batched", seed)
    assert _diff(scalar, batched) == []


def _record_trace_lines(monkeypatch, tmp_path, config_name, spec, interpreter, name):
    monkeypatch.setenv("REPRO_INTERPRETER", interpreter)
    recorded = record_run(spec, config_name=config_name, seed=0)
    assert recorded.error is None
    path = tmp_path / f"{name}-{config_name}-{interpreter}.jsonl"
    write_trace(recorded.trace, str(path))
    return path.read_text(encoding="utf-8").splitlines()


@over_bsc_configs(
    "spec,name",
    [
        ({"kind": "litmus", "test": "SB", "stagger": [1, 1]}, "sb"),
        ({"kind": "litmus", "test": "MP", "stagger": [1, 60]}, "mp"),
        ({"kind": "app", "app": "barnes", "instructions": 1500, "seed": 0}, "barnes"),
    ],
    ["spec0-sb", "spec1-mp", "spec2-barnes"],
)
def test_replay_traces_byte_identical(monkeypatch, tmp_path, config_name, spec, name):
    """Recorded replay traces must serialize to identical JSONL.

    This is the strongest form of the equivalence bar: the trace embeds
    the full protocol event stream, per-commit op logs, final memory and
    registers, the SC-check verdict, the stats snapshot, and the RNG
    draw count — any interpreter divergence shows up as a differing
    line.
    """
    scalar = _record_trace_lines(
        monkeypatch, tmp_path, config_name, spec, "scalar", name
    )
    batched = _record_trace_lines(
        monkeypatch, tmp_path, config_name, spec, "batched", name
    )
    assert scalar == batched
