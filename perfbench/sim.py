"""The simulator workloads: ``fig9-sweep`` and ``litmus-commit``.

A workload is a fixed list of cells.  A cell builds its inputs (the
timed set-up), runs one simulation, and is checked by an oracle; the
benchmark repeats the whole list ("a pass") until the run length is
used up, so every pass does identical work, and reports each cell's
median time over the passes (:meth:`Tally.median`), in reference
seconds (:mod:`calib`).

Correctness, per cell and per pass:

* every seed: the cell must finish, its oracle must pass, and its output
  digest must equal the digest of the same cell in the run's first pass
  (the simulator is deterministic);
* the default seed: the digest must also equal the committed one in
  ``fingerprints.json``, and Figure 9's per-config geometric-mean
  speedups over RC must equal the committed ones.

A cell that misses any of these counts as failed work.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
import statistics
import time
import traceback
import weakref
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.coherence.dirbdm import DirBDM
from repro.core import driver as core_driver
from repro.core.arbiter import Arbiter
from repro.core.bdm import BDM
from repro.cpu import opstream
from repro.cpu.isa import Compute
from repro.cpu.thread import ThreadProgram
from repro.engine.event import EventQueue
from repro.engine.simulator import Simulator
from repro.harness.perf import LITMUS_STAGGERS
from repro.harness.runner import ALL_APPS, FIGURE9_CONFIGS, build_app_workload
from repro.interconnect.network import Network
from repro.memory.address import AddressMap, AddressSpace
from repro.memory.cache import SetAssocCache
from repro.params import NAMED_CONFIGS
from repro.signatures.bloom import BloomSignature
from repro.signatures.exact import ExactSignature
from repro.system import Machine, RunResult, run_workload
from repro.verify.litmus import all_litmus_tests
from repro.verify.sc_checker import check_sequential_consistency

from calib import Calibration
from tracer import Tracer

#: Instructions per thread for Figure 9.  The generator emits at least one
#: ~1000-instruction interval per barrier phase, so apps run 2-4k each.
FIG9_INSTRUCTIONS = 1000
#: Litmus seeds per pass; the bench seed ``s`` selects seeds
#: ``s * LITMUS_SEEDS .. s * LITMUS_SEEDS + LITMUS_SEEDS - 1``.
LITMUS_SEEDS = 10
#: Chunk size for litmus-commit: nearly every instruction commits.
LITMUS_CHUNK = 4
BSC_CONFIGS = ("BSCbase", "BSCdypvt", "BSCexact", "BSCstpvt")

SIGNATURE_OPS = ("disjoint", "insert_many", "member_many", "decode_sets", "masks_of")
CACHE_METHODS = ("lookup", "probe", "contains", "insert", "invalidate",
                 "would_overflow", "set_state")
TRAFFIC_NAMES = {"Rd/Wr": "RdWr", "RdSig": "RdSig", "WrSig": "WrSig",
                 "Inv": "Inv", "Other": "Other"}


@dataclass
class Cell:
    key: str
    config_name: str
    #: ``build() -> (config, programs, address_space)``
    build: Callable[[], tuple]
    record_history: bool
    #: ``check(result, tracer) -> failure message or None``
    check: Callable[[RunResult, Optional[Tracer]], Optional[str]]


@dataclass
class PassResult:
    """One pass over the cells; times are seconds per cell."""

    build_s: Dict[str, float] = field(default_factory=dict)
    run_s: Dict[str, float] = field(default_factory=dict)
    #: ``build_s`` and ``run_s`` in reference seconds (calibrated passes).
    ref_build_s: Dict[str, float] = field(default_factory=dict)
    ref_run_s: Dict[str, float] = field(default_factory=dict)
    instructions: Dict[str, int] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    cycles: Dict[str, float] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------

def _fig9_build(config_name: str, app: str, seed: int) -> tuple:
    config = NAMED_CONFIGS[config_name](seed=seed)
    workload = build_app_workload(app, config, FIG9_INSTRUCTIONS, seed)
    return config, workload.programs, workload.address_space


def _all_retired(result: RunResult, tracer: Optional[Tracer]) -> Optional[str]:
    """Oracle: every program instruction retired exactly once."""
    machine = result.machine
    expected = sum(t.program.total_instructions for t in machine.threads)
    if result.total_instructions != expected:
        return f"retired {result.total_instructions} of {expected} instructions"
    return None


def fig9_cells(seed: int) -> List[Cell]:
    """The Figure 9 grid in ``SweepRunner.sweep`` order (apps outer)."""
    return [
        Cell(f"{name}/{app}", name,
             functools.partial(_fig9_build, name, app, seed), False, _all_retired)
        for app in ALL_APPS
        for name in FIGURE9_CONFIGS
    ]


def _litmus_build(test, config_name: str, seed: int, stagger: Tuple[int, int]) -> tuple:
    config = NAMED_CONFIGS[config_name](seed=seed).with_bulksc(
        chunk_size_instructions=LITMUS_CHUNK
    )
    space = AddressSpace(AddressMap(config.memory.words_per_line, config.num_directories))
    addrs = {
        var: space.allocate(var, config.memory.words_per_line).start_word
        for var in test.variables
    }
    programs = [
        ThreadProgram([Compute(stagger[i % len(stagger)])] + ops, name=f"t{i}")
        for i, ops in enumerate(test.build(addrs))
    ]
    return config, programs, space


def _litmus_check(test, result: RunResult, tracer: Optional[Tracer]) -> Optional[str]:
    """Oracle: the history is an SC witness and the outcome is allowed."""
    if tracer is not None:
        with tracer.span("verify.sc_check"):
            verdict = check_sequential_consistency(result.history)
    else:
        verdict = check_sequential_consistency(result.history)
    if not verdict.ok:
        return f"not SC: {verdict.reason}"
    if test.forbidden(result.registers):
        return f"forbidden outcome {result.registers}"
    return None


def litmus_seeds(seed: int) -> range:
    return range(seed * LITMUS_SEEDS, (seed + 1) * LITMUS_SEEDS)


def litmus_cells(seed: int) -> List[Cell]:
    return [
        Cell(
            f"{name}/s{cell_seed}/{test.name}/{stagger[0]}-{stagger[1]}",
            name,
            functools.partial(_litmus_build, test, name, cell_seed, stagger),
            True,
            functools.partial(_litmus_check, test),
        )
        for name in BSC_CONFIGS
        for cell_seed in litmus_seeds(seed)
        for test in all_litmus_tests()
        for stagger in LITMUS_STAGGERS
    ]


# ----------------------------------------------------------------------
# Outputs
# ----------------------------------------------------------------------

def digest(result: RunResult) -> str:
    """Short hash of a cell's simulated outputs."""
    payload = [
        repr(float(result.cycles)),
        result.total_instructions,
        result.stat("commit.completed"),
        result.machine.sim.events_fired,
        sorted(result.traffic_bytes.items()),
        sorted((p, sorted(regs.items())) for p, regs in result.registers.items()),
    ]
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def geomean_speedups(cycles: Dict[str, float]) -> Dict[str, float]:
    """Per-config geometric mean over apps of RC cycles / config cycles."""
    out: Dict[str, float] = {}
    for name in FIGURE9_CONFIGS:
        logs = [math.log(cycles[f"RC/{app}"] / cycles[f"{name}/{app}"]) for app in ALL_APPS]
        out[name] = math.exp(sum(logs) / len(logs))
    return out


_STAT_PATTERNS = {
    "arbiter.requests": re.compile(r"arbiter\d+\.requests$"),
    "arbiter.grants": re.compile(r"arbiter\d+\.grants$"),
    "squashed": re.compile(r"proc\d+\.squashed_instructions$"),
    "bulk_invalidations": re.compile(r"bdm\d+\.bulk_invalidations$"),
    "unnecessary_invalidations": re.compile(r"bdm\d+\.unnecessary_invalidations$"),
}
_STAT_NAMES = {
    "commits": "commit.completed",
    "dirbdm.lookups": "dirbdm.lookups",
    "dirbdm.unnecessary_lookups": "dirbdm.unnecessary_lookups",
    "fills_l2": "coherence.fill.l2",
    "fills_mem": "coherence.fill.mem",
}


def layer_counters(result: RunResult) -> Dict[str, float]:
    """Work counts of one cell, read from the simulator's own statistics."""
    stats = result.stats
    out = {key: float(stats.get(name, 0.0)) for key, name in _STAT_NAMES.items()}
    for key, pattern in _STAT_PATTERNS.items():
        out[key] = float(sum(v for k, v in stats.items() if pattern.match(k)))
    out["instructions"] = float(result.total_instructions)
    out["events"] = float(result.machine.sim.events_fired)
    meter = result.machine.coherence.network.meter
    out["messages"] = float(sum(meter.messages.values()))
    for cls_name, nbytes in result.traffic_bytes.items():
        out["bytes." + TRAFFIC_NAMES[cls_name]] = float(nbytes)
    return out


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------

def run_pass(cells: Sequence[Cell], tracer: Optional[Tracer] = None,
             calibration: Optional[Calibration] = None) -> PassResult:
    """Run every cell once; inputs are built just before each cell runs.

    ``calibration`` times its units between cells, outside every cell's
    clock readings, and the pass's times are also given in reference
    seconds.
    """
    clock = time.perf_counter
    out = PassResult()
    segments: Dict[str, int] = {}
    for cell in cells:
        if tracer is not None:
            tracer.run_id = cell.key
            tracer.tag = cell.config_name
        segment = calibration.segment() if calibration is not None else 0
        start = clock()
        try:
            if tracer is not None:
                with tracer.span("workloads.build"):
                    config, programs, space = cell.build()
            else:
                config, programs, space = cell.build()
            built = clock()
            result = run_workload(config, programs, space, record_history=cell.record_history)
            failure = cell.check(result, tracer)
            done = clock()
        except Exception:  # a crashing cell is failed work; the pass goes on
            out.failures[cell.key] = traceback.format_exc(limit=3)
            continue
        finally:
            if calibration is not None:
                calibration.tick(clock() - start)
        out.build_s[cell.key] = built - start
        out.run_s[cell.key] = done - built
        segments[cell.key] = segment
        out.instructions[cell.key] = result.total_instructions
        out.digests[cell.key] = digest(result)
        out.cycles[cell.key] = float(result.cycles)
        if failure is not None:
            out.failures[cell.key] = failure
        if tracer is not None:
            for key, value in layer_counters(result).items():
                out.counters[key] = out.counters.get(key, 0.0) + value
    if calibration is not None:
        calibration.close()
        for key, segment in segments.items():
            out.ref_build_s[key] = calibration.reference_s(out.build_s[key], segment)
            out.ref_run_s[key] = calibration.reference_s(out.run_s[key], segment)
    return out


def check_pass(result: PassResult, reference: Dict[str, str], expected: Optional[dict],
               check_geomean: bool) -> List[Tuple[str, str]]:
    """(cell, reason) for every digest of ``result`` that misses ``reference``.

    With the committed record ``expected``, Figure 9's geomean speedups
    over RC must also match it.
    """
    misses = [(key, f"digest {value} != {reference.get(key)}")
              for key, value in result.digests.items() if reference.get(key) != value]
    if expected is not None and check_geomean and len(result.cycles) == len(expected["cells"]):
        got = geomean_speedups(result.cycles)
        if got != expected["geomean_speedup_over_rc"]:
            misses.append(("geomean", f"geomean speedups {got}"))
    return misses


class Tally:
    """What a run keeps of its passes.

    Each pass is checked as it arrives and only its times are kept, a few
    bytes per cell, so peak memory does not grow with the number of
    passes a fast host fits into a run.
    """

    TIMES = ("run_s", "ref_run_s", "ref_build_s")

    def __init__(self, expected: Optional[dict], check_geomean: bool, label: str = "pass",
                 reference: Optional[Dict[str, str]] = None) -> None:
        self.expected = expected
        self.check_geomean = check_geomean
        self.label = label
        #: Digests every pass must match: the committed ones, else the
        #: given ones, else the first pass's.
        self.reference = expected["cells"] if expected is not None else reference
        self.passes = 0
        self.failed: Set[Tuple[int, str]] = set()
        self.reasons: List[str] = []
        self.pass_wall_s: List[float] = []
        self.instructions: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        #: ``PassResult`` time field -> cell -> its value in every pass.
        self.times: Dict[str, Dict[str, array]] = {name: {} for name in self.TIMES}

    def add(self, result: PassResult) -> None:
        index = self.passes
        self.passes += 1
        if self.reference is None:
            self.reference = dict(result.digests)
        misses = list(result.failures.items())
        misses += check_pass(result, self.reference, self.expected, self.check_geomean)
        for key, reason in misses:
            self.failed.add((index, key))
            self.reasons.append(f"{self.label} {index}: {key}: {reason}")
        self.pass_wall_s.append(round(sum(result.run_s.values()), 3))
        self.instructions.update(result.instructions)
        for key, value in result.counters.items():
            self.counters[key] = self.counters.get(key, 0.0) + value
        for name in self.TIMES:
            per_cell = self.times[name]
            for key, value in getattr(result, name).items():
                per_cell.setdefault(key, array("d")).append(value)

    def median(self, name: str) -> Dict[str, float]:
        """Each cell's median ``name`` over the passes it finished in."""
        return {key: statistics.median(values) for key, values in self.times[name].items()}


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------

def install(tracer: Tracer) -> None:
    """Wrap the simulator's layer entry points (before any Machine exists)."""
    tracer.calibrate()
    tracer.trace(Machine, "__init__", "system.machine_build")
    tracer.trace(Simulator, "run", "engine.run")
    tracer.trace(EventQueue, "push", "engine.queue_push")
    tracer.trace(EventQueue, "pop", "engine.queue_pop")
    tracer.trace(Arbiter, "decide", "core.arbiter.decide")
    tracer.trace(BDM, "disambiguate", "core.bdm.disambiguate")
    tracer.trace(BDM, "bulk_invalidate", "core.bdm.bulk_invalidate")
    tracer.trace(DirBDM, "expand_commit", "coherence.dirbdm.expand")
    tracer.trace(Network, "send", "interconnect.send")
    for cls in (BloomSignature, ExactSignature):
        for op in SIGNATURE_OPS:
            if hasattr(cls, op):
                tracer.trace(cls, op, "signatures." + op)
    for method in CACHE_METHODS:
        tracer.trace(SetAssocCache, method, "memory.cache")
    # Only the first stream_for per program lowers it; later calls hit
    # the memo on the program and are not spans.
    lowered: "weakref.WeakSet[ThreadProgram]" = weakref.WeakSet()
    original = opstream.stream_for

    def stream_for(program, line_shift):
        if program in lowered:
            return original(program, line_shift)
        lowered.add(program)
        with tracer.span("cpu.opstream_lower"):
            return original(program, line_shift)

    tracer.patch(opstream, "stream_for", stream_for)
    tracer.patch(core_driver, "stream_for", stream_for)


def layer_metrics(tracer: Tracer, traced: Tally) -> Dict[str, float]:
    """Per-layer metrics, per pass, from the traced passes."""
    n = traced.passes
    count = {key: value / n for key, value in traced.counters.items()}

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {
        "workloads.build_s": tracer.self_s("workloads.build") / n,
        "system.machine_build_s": tracer.self_s("system.machine_build") / n,
        "system.machines": tracer.count("system.machine_build") / n,
        "cpu.opstream_lower_s": tracer.self_s("cpu.opstream_lower") / n,
        "cpu.instructions": count.get("instructions", 0.0),
        "engine.run_self_s": tracer.self_s("engine.run") / n,
        "engine.events": count.get("events", 0.0),
        "engine.events_per_kinstr": ratio(count.get("events", 0.0),
                                          count.get("instructions", 0.0) / 1e3),
        "engine.queue_push_s": tracer.self_s("engine.queue_push") / n,
        "engine.queue_pop_s": tracer.self_s("engine.queue_pop") / n,
        "core.arbiter.decide_s": tracer.self_s("core.arbiter.decide") / n,
        "core.arbiter.requests": count.get("arbiter.requests", 0.0),
        "core.arbiter.grant_ratio": ratio(count.get("arbiter.grants", 0.0),
                                          count.get("arbiter.requests", 0.0)),
        "core.bdm.disambiguate_s": tracer.self_s("core.bdm.disambiguate") / n,
        "core.bdm.bulk_invalidate_s": tracer.self_s("core.bdm.bulk_invalidate") / n,
        "core.commits": count.get("commits", 0.0),
        "core.squash_ratio": ratio(count.get("squashed", 0.0), count.get("instructions", 0.0)),
        "signatures.ops_s": sum(tracer.self_s("signatures." + op) for op in SIGNATURE_OPS) / n,
        "signatures.false_invalidation_ratio": ratio(
            count.get("unnecessary_invalidations", 0.0), count.get("bulk_invalidations", 0.0)
        ),
        "coherence.dirbdm.expand_s": tracer.self_s("coherence.dirbdm.expand") / n,
        "coherence.dirbdm.lookups": count.get("dirbdm.lookups", 0.0),
        "coherence.dirbdm.useful_lookup_ratio": (
            1.0 - ratio(count.get("dirbdm.unnecessary_lookups", 0.0),
                        count.get("dirbdm.lookups", 0.0))
            if count.get("dirbdm.lookups") else 0.0
        ),
        "coherence.fills_l2": count.get("fills_l2", 0.0),
        "coherence.fills_mem": count.get("fills_mem", 0.0),
        "memory.cache_calls_s": tracer.self_s("memory.cache") / n,
        "memory.cache_calls": tracer.count("memory.cache") / n,
        "interconnect.send_s": tracer.self_s("interconnect.send") / n,
        "interconnect.messages": count.get("messages", 0.0),
        "verify.sc_check_s": tracer.self_s("verify.sc_check") / n,
    }
    for name in FIGURE9_CONFIGS:
        out["engine.run_self_s." + name.replace("+", "p")] = tracer.self_s("engine.run", name) / n
    for op in SIGNATURE_OPS:
        out["signatures.calls." + op] = tracer.count("signatures." + op) / n
    for short in TRAFFIC_NAMES.values():
        out["interconnect.bytes." + short] = count.get("bytes." + short, 0.0)
    return out


# ----------------------------------------------------------------------
# A whole run
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SimWorkload:
    name: str
    cells: Callable[[int], List[Cell]]
    #: Passes every untraced run makes at least, whatever the run length.
    min_passes: int
    check_geomean: bool


FIG9 = SimWorkload("fig9-sweep", fig9_cells, min_passes=1, check_geomean=True)
LITMUS = SimWorkload("litmus-commit", litmus_cells, min_passes=3, check_geomean=False)


def fingerprint_entry(workload: SimWorkload, seed: int, result: PassResult) -> dict:
    """The committed-reference record for one pass at ``seed``."""
    entry = {"seed": seed, "cells": dict(sorted(result.digests.items()))}
    if workload.check_geomean:
        entry["instructions_per_thread"] = FIG9_INSTRUCTIONS
        entry["geomean_speedup_over_rc"] = geomean_speedups(result.cycles)
    return entry


def run(workload: SimWorkload, seed: int, seconds: float, trace: bool,
        expected: Optional[dict], trace_path: str) -> Tuple[dict, Dict[str, float]]:
    """Measure one workload; returns (accounting, metrics)."""
    cells = workload.cells(seed)
    calibration = Calibration()
    passes = Tally(expected, workload.check_geomean)
    if not trace:
        repeat(lambda: passes.add(run_pass(cells, calibration=calibration)),
               workload.min_passes, seconds)
        tallies = [passes]
    else:
        # Half the run untraced, half traced: the per-layer numbers come
        # from the traced passes, the overhead from comparing the halves.
        repeat(lambda: passes.add(run_pass(cells)), 1, seconds / 2)
        traced = Tally(expected, workload.check_geomean, "traced pass", passes.reference)
        tracer = Tracer()
        install(tracer)
        try:
            repeat(lambda: traced.add(run_pass(cells, tracer)), 1, seconds / 2)
        finally:
            tracer.unpatch_all()
        tracer.write_chrome(trace_path, {"workload": workload.name, "seed": seed,
                                         "per_child_s": tracer.per_child_s})
        tallies = [passes, traced]
    attempted = len(cells) * sum(t.passes for t in tallies)
    accounting = {
        "attempted": attempted,
        "failed": min(attempted, sum(len(t.failed) for t in tallies)),
        "reasons": [reason for t in tallies for reason in t.reasons],
        "passes": passes.passes,
        "traced_passes": sum(t.passes for t in tallies[1:]),
        "pass_wall_s": [wall for t in tallies for wall in t.pass_wall_s],
    }
    if trace:
        accounting["per_child_us"] = round(tracer.per_child_s * 1e6, 3)
        metrics = layer_metrics(tracer, traced)
        metrics["trace_overhead_frac"] = (
            sum(traced.median("run_s").values()) / sum(passes.median("run_s").values()) - 1.0
        )
        return accounting, metrics
    accounting["ref_scale"] = calibration.scale()
    run_s = passes.median("ref_run_s")
    wall_s = sum(run_s.values())
    metrics = {
        "setup_s": sum(passes.median("ref_build_s").values()),
        "wall_s": wall_s,
        "ops_per_s": len(run_s) / wall_s,
        "instr_per_s": sum(passes.instructions[key] for key in run_s) / wall_s,
    }
    return accounting, metrics


def repeat(step: Callable[[], None], minimum: int, seconds: float) -> None:
    """Call ``step`` at least ``minimum`` times, then while another call
    as long as the last one still ends within ``seconds`` of the start."""
    clock = time.perf_counter
    started = clock()
    calls = 0
    last = 0.0
    while calls < minimum or clock() - started + last <= seconds:
        begun = clock()
        step()
        last = clock() - begun
        calls += 1
