"""Tests for the benchmark's own logic.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import stats  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _catalogue() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------

def test_tail_quantile_keeps_ten_samples_beyond():
    assert stats.tail_quantile(10) is None
    assert stats.tail_quantile(21) == 0.50
    assert stats.tail_quantile(99) == 0.75
    assert stats.tail_quantile(182) == 0.90
    assert stats.tail_quantile(273) == 0.95
    assert stats.tail_quantile(1000) == 0.99
    # The ladder stops at p99 however many samples there are.
    assert stats.tail_quantile(10 ** 6) == 0.99
    assert stats.tail_quantile(19) is None
    for n in range(20, 3000):
        q = stats.tail_quantile(n)
        assert stats.samples_beyond(n, q) >= stats.MIN_BEYOND
        higher = [h for h in stats.TAIL_LADDER if h > q]
        assert all(stats.samples_beyond(n, h) < stats.MIN_BEYOND for h in higher)


def test_quantile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.quantile(values, 0.5) == 50
    assert stats.quantile(values, 0.99) == 99
    assert stats.quantile(reversed(values), 0.9) == 90


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class _Toy:
    def leaf(self):
        return "leaf"

    def mid(self):
        return self.leaf()


def test_self_time_subtracts_nested_spans(tmp_path):
    ticks = iter([0.0, 0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    original_mid = _Toy.__dict__["mid"]
    tracer.trace(_Toy, "leaf", "leaf")
    tracer.trace(_Toy, "mid", "mid")
    toy = _Toy()
    bound_leaf = toy.leaf  # bound after patching, as hot loops do
    tracer.run_id = "cell-1"
    with tracer.span("outer"):
        assert bound_leaf() == "leaf"  # 1 -> 3
        assert toy.mid() == "leaf"  # 4 -> 8, its leaf 5 -> 6
    assert tracer.total_s("outer") == 10.0
    assert tracer.self_s("outer") == 4.0
    assert tracer.self_s("mid") == 3.0
    assert tracer.self_s("leaf") == 3.0 and tracer.count("leaf") == 2
    by_name = {}
    for span_id, parent, name, start, end, run in tracer.spans:
        by_name.setdefault(name, []).append((span_id, parent, start, end, run))
    (outer_id, outer_parent, *_), = by_name["outer"]
    (mid_id, mid_parent, *_), = by_name["mid"]
    assert outer_parent == 0 and mid_parent == outer_id
    assert sorted(parent for __, parent, *_ in by_name["leaf"]) == sorted([outer_id, mid_id])
    assert {run for *_, run in tracer.spans} == {"cell-1"}
    tracer.unpatch_all()
    assert _Toy.__dict__["mid"] is original_mid
    path = tmp_path / "t.json"
    tracer.write_chrome(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert {e["ph"] for e in events} == {"X"} and len(events) == 4


def test_self_time_discounts_wrapper_bookkeeping_per_child():
    ticks = iter([0.0, 0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.per_child_s = 0.5
    tracer.trace(_Toy, "leaf", "leaf")
    tracer.trace(_Toy, "mid", "mid")
    toy = _Toy()
    try:
        with tracer.span("outer"):
            toy.leaf()  # 1 -> 3
            toy.mid()  # 4 -> 8, its leaf 5 -> 6
    finally:
        tracer.unpatch_all()
    # outer: 10 - (2 + 4) - 2 children x 0.5; mid: 4 - 1 - 1 child x 0.5.
    assert tracer.self_s("outer") == 3.0
    assert tracer.self_s("mid") == 2.5
    assert tracer.self_s("leaf") == 3.0


def test_calibrate_measures_a_positive_wrapper_cost():
    tracer = Tracer()
    cost = tracer.calibrate(calls=2000, trials=2)
    assert cost == tracer.per_child_s and 0.0 < cost < 1e-3


def test_calibration_brackets_each_segment_with_units():
    import calib

    ticks = iter([0.0, 4.0, 10.0, 12.0, 20.0, 26.0])
    calibration = calib.Calibration(every_s=1.0, clock=lambda: next(ticks), work=lambda: None)
    # A unit opens the first segment; one closes it after a second of work.
    assert calibration.segment() == 0
    calibration.tick(0.6)
    assert calibration.segment() == 0
    calibration.tick(0.6)
    assert calibration.segment() == 1
    calibration.tick(0.2)
    calibration.close()
    calibration.close()  # nothing left open: no unit
    assert calibration.units == [4.0, 2.0, 6.0]
    # Host seconds over the mean of the two units around the segment.
    ref = calib.REFERENCE_UNIT_S
    assert calibration.reference_s(3.0, 0) == 3.0 * ref / 3.0
    assert calibration.reference_s(4.0, 1) == 4.0 * ref / 4.0
    assert calibration.scale() == ref / 4.0


def test_tally_keeps_each_cells_median_and_checks_every_pass():
    import sim

    tally = sim.Tally(None, check_geomean=False)
    for times, digest in (({"a": 3.0, "b": 1.0}, "d"), ({"a": 2.0, "b": 5.0}, "d"),
                          ({"a": 4.0}, "x")):
        tally.add(sim.PassResult(run_s=times, digests={key: digest for key in times}))
    assert tally.median("run_s") == {"a": 3.0, "b": 3.0}
    # The first pass is the reference; the third pass's digest misses it.
    assert tally.passes == 3 and tally.failed == {(2, "a")}


def test_service_cpu_scales_by_the_median_unit():
    import calib
    import service

    unit_s = calib.REFERENCE_UNIT_S * service.UNIT_STEPS / calib.UNIT_STEPS
    assert service.reference_s(2.0, [unit_s, 2 * unit_s, 4 * unit_s]) == 1.0


def test_spans_beyond_keep_are_aggregated_not_kept():
    tracer = Tracer(keep=3)
    for __ in range(5):
        with tracer.span("s"):
            pass
    assert tracer.count("s") == 5 and len(tracer.spans) == 3 and tracer.dropped == 2


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------

def test_fingerprint_mismatch_counts_as_failed_work(tmp_path):
    import sim

    cells = sim.litmus_cells(0)[:20]
    reference = sim.run_pass(cells)
    assert not reference.failures
    workload = sim.SimWorkload("tiny", lambda seed: cells, min_passes=2, check_geomean=False)
    trace_path = str(tmp_path / "t.json")
    good = {"seed": 0, "cells": dict(reference.digests)}
    accounting, __ = sim.run(workload, 0, 0.0, False, good, trace_path)
    assert (accounting["attempted"], accounting["failed"]) == (40, 0)
    bad = {"seed": 0, "cells": dict(reference.digests)}
    bad["cells"][cells[1].key] = "0" * 16
    accounting, __ = sim.run(workload, 0, 0.0, False, bad, trace_path)
    # The tampered cell fails in both passes, the others in none.
    assert (accounting["attempted"], accounting["failed"]) == (40, 2)
    assert cells[1].key in accounting["reasons"][0]


def test_committed_fingerprints_cover_the_default_grids():
    import sim

    with open(os.path.join(BENCH, "fingerprints.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    assert set(data["fig9-sweep"]["cells"]) == {c.key for c in sim.fig9_cells(0)}
    assert set(data["litmus-commit"]["cells"]) == {c.key for c in sim.litmus_cells(0)}
    assert set(data["fig9-sweep"]["geomean_speedup_over_rc"]) == set(sim.FIGURE9_CONFIGS)


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------

def _drive(stall_on: int) -> "service.ClientLog":  # noqa: F821
    import service

    calls = {"n": 0}

    async def txn(ops):
        calls["n"] += 1
        await asyncio.sleep(0.25 if calls["n"] == stall_on else 0.001)

    async def main():
        log = service.ClientLog()
        loop = asyncio.get_running_loop()
        await service.client_loop(txn, [[("r", 1)]] * 20, 0.01, loop.time() + 0.01, log,
                                  clock=loop.time)
        return log

    return asyncio.run(main())


def test_stalled_service_gives_larger_latencies_not_fewer_samples():
    steady = _drive(stall_on=0)
    stalled = _drive(stall_on=3)
    assert len(steady.latencies) == len(stalled.latencies) == 20
    assert stalled.errors == steady.errors == 0
    assert max(stalled.latencies) >= 0.25
    # Every batch due during the stall waited for it.
    assert sum(lat > 0.1 for lat in stalled.latencies) >= 10
    assert statistics.median(stalled.latencies) > 4 * statistics.median(steady.latencies)
    # The generator itself was never late: batches left as soon as they could.
    assert max(stalled.lags) < 0.05


# ----------------------------------------------------------------------
# Names and the catalogue
# ----------------------------------------------------------------------

def test_every_metric_and_workload_name_is_well_formed():
    catalogue = _catalogue()
    names = [w["name"] for w in catalogue["workloads"]]
    names += [m["name"] for m in catalogue["end_to_end"]]
    names += [m["name"] for m in catalogue["per_layer"]]
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert all(re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"])
               for m in catalogue["end_to_end"] + catalogue["per_layer"])
    e2e = {m["name"]: m for m in catalogue["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())


def test_simulator_layer_metrics_are_catalogued():
    import sim

    traced = sim.Tally(None, check_geomean=False)
    traced.add(sim.PassResult())
    produced = set(sim.layer_metrics(Tracer(), traced))
    catalogued = {m["name"] for m in _catalogue()["per_layer"]}
    assert produced <= catalogued
    assert catalogued - produced == {n for n in catalogued
                                     if n.startswith("service.") or n == "trace_overhead_frac"}


def test_service_replay_charges_the_arbiter_for_conflicts(tmp_path):
    import service

    (tmp_path / "node0.rec.jsonl").write_text("{}\n")
    raw = [
        {"ev": "commit.serialize", "gkey": [1, 1, 1, 0, 0], "p": 100, "t": 1.0,
         "data": {"client_seq": 1, "w_lines": [5], "r_lines": [1],
                  "ops": [[False, 1, 0, 0], [True, 5, 7, 1]]}},
        {"ev": "commit.serialize", "gkey": [1, 2, 1, 0, 0], "p": 101, "t": 2.0,
         "data": {"client_seq": 1, "w_lines": [5], "r_lines": [], "ops": [[True, 5, 8, 0]]}},
        {"ev": "inv.deliver", "gkey": [1, 1, 3, 0, 0], "p": 0, "t": 3.0, "data": {"commit": 1}},
    ]
    metrics = service.replay_metrics(Tracer(), str(tmp_path), raw, committed=2)
    assert set(metrics) <= {m["name"] for m in _catalogue()["per_layer"]}
    # The second batch writes the line the first is still committing, so
    # it is denied once and granted after the first releases.
    assert metrics["service.arbiter.grant_ratio"] == 2 / 3
    assert metrics["service.records.per_txn"] == 1.5
    assert metrics["service.records.bytes_per_txn"] == 1.5
    assert metrics["service.node.updates_per_txn"] == 0.5
    assert (tmp_path / "replay" / "replay.rec.jsonl").read_text().count("\n") == 3


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "litmus-commit",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
