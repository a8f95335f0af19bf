"""Run one workload of the benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig9-sweep --seed 0 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` makes a half-untraced, half-traced run and prints every
per-layer metric instead (layers a workload never calls read 0), and
writes the spans to ``perfbench/out/<workload>-seed<seed>.trace.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program under test is imported from ``src/`` of the checkout the
script sits in, never from anywhere else; without it the script exits
with a non-zero status and prints no result.
``--write-fingerprints`` re-records the committed reference digests of
a simulator workload at ``--seed`` (after an intended change to
simulated behaviour).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
DEFAULT_SEED = 0
WORKLOADS = ("fig9-sweep", "litmus-commit", "service-open")


def load_catalogue() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_program() -> None:
    """Put ``src/`` first on the path and check ``repro`` comes from it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"error: no program source at {SRC}/repro")
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise SystemExit(f"error: repro imported from {repro.__file__}, not {SRC}")


def load_fingerprints() -> dict:
    if not os.path.exists(FINGERPRINTS):
        return {}
    with open(FINGERPRINTS, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Returns (accounting, metrics) for one workload run."""
    trace_path = os.path.join(OUT, f"{name}-seed{seed}.trace.json")
    start = time.perf_counter()
    if name == "service-open":
        import service

        return service.run(seed, seconds, trace, os.path.join(OUT, "service"), trace_path)
    import sim

    import_s = time.perf_counter() - start
    workload = sim.FIG9 if name == "fig9-sweep" else sim.LITMUS
    expected = None
    if seed == DEFAULT_SEED:
        expected = load_fingerprints().get(name)
        if expected is None or expected.get("seed") != seed:
            raise SystemExit(f"error: no committed fingerprints for {name} in {FINGERPRINTS}")
    accounting, metrics = sim.run(workload, seed, seconds, trace, expected, trace_path)
    if not trace:
        metrics["setup_s"] += import_s * accounting["ref_scale"]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return accounting, metrics


def write_fingerprints(name: str, seed: int) -> None:
    import sim

    workload = sim.FIG9 if name == "fig9-sweep" else sim.LITMUS
    result = sim.run_pass(workload.cells(seed))
    if result.failures:
        raise SystemExit(f"error: cells failed, not recording: {sorted(result.failures)[:5]}")
    data = load_fingerprints()
    data[name] = sim.fingerprint_entry(workload, seed, result)
    with open(FINGERPRINTS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(result.digests)} cell digests for {name} at seed {seed}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-fingerprints", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    catalogue = load_catalogue()
    import_program()
    if args.write_fingerprints:
        if args.workload == "service-open":
            parser.error("the service has no fingerprints (its timing is live)")
        write_fingerprints(args.workload, args.seed)
        return 0
    accounting, metrics = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed = accounting["attempted"], accounting["failed"]
    if not args.trace:
        metrics["ok_frac"] = 1.0 - failed / attempted
    section = catalogue["per_layer" if args.trace else "end_to_end"]
    produced = set(metrics)
    wanted = {m["name"] for m in section}
    if produced - wanted or (not args.trace and wanted - produced):
        raise SystemExit(
            f"error: metrics out of step with BENCHMARK.json: "
            f"extra {sorted(produced - wanted)}, missing {sorted(wanted - produced)}"
        )
    out = {
        m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in section
    }
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          + ", ".join(f"{k}={v}" for k, v in accounting.items() if k != "reasons"))
    for reason in accounting["reasons"][:10]:
        print("  FAILED " + reason.strip().replace("\n", " | "))
    for name, entry in out.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": failed == 0 and not accounting["reasons"],
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
