"""The ``service-open`` workload: the live SC key-value service, open loop.

Two client sessions, two replica nodes and one arbiter run as separate
processes (``repro.service.supervisor``).  Each client is due to send
batch *n* at ``n / per_client_rate`` seconds whatever happened before,
and every batch's latency counts from its due time, so a stall shows up
as larger latencies on the batches behind it, never as fewer samples.
The batch shapes are the ``sjbb2k`` commercial profile
(``repro.service.bench.batch_for``), generated from the bench seed
before the load starts.

``repro.service.bench.run_bench`` composes the same parts, but it stops
sending once the run's time is up, so batches a stall pushed past the
deadline are never sent, and it keeps only rounded percentiles.  This
module therefore drives the parts itself.

Server-side layers are measured by replay, not by tracing the servers:
after the run the record logs are read back and their commits pushed
through the same arbiter core, wire codec and record log the servers
use, in this process.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import resource
import shutil
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Sequence, Tuple

from repro.core.arbiter import Arbiter
from repro.errors import ServiceError, TransportError
from repro.params import BulkSCConfig, SignatureConfig
from repro.service import wire
from repro.service.bench import batch_for
from repro.service.certify import certify_run
from repro.service.client import KVClient
from repro.service.cluster import build_cluster_config
from repro.service.records import RecordLog, load_raw_records
from repro.service.supervisor import Supervisor
from repro.signatures.factory import SignatureFactory
from repro.workloads.commercial import COMMERCIAL_PROFILES

import calib
from stats import quantile, tail_quantile
from tracer import Tracer

PROFILE = "sjbb2k"
CLIENTS = 2
NODES = 2
#: Offered load over all clients, txn/s: well below the knee (~800 txn/s
#: on a 2-core host), where repeated runs agree.
RATE = 200.0
#: Clusters spawned per untraced run; ``setup_s`` is their median.
SETUP_SPAWNS = 3
#: Steps of the calibration unit the client times during a load window:
#: a fifth of ``calib``'s, so its event loop stalls for 2-3 ms at a time.
UNIT_STEPS = calib.UNIT_STEPS // 5
UNIT_EVERY_S = 0.25

Batch = List[tuple]


@dataclass
class ClientLog:
    """What one client session saw."""

    latencies: List[float] = field(default_factory=list)  # seconds from due
    lags: List[float] = field(default_factory=list)  # seconds sent late
    committed_ops: int = 0
    errors: int = 0
    last_done: float = 0.0


async def client_loop(
    txn: Callable[[Batch], Awaitable[object]],
    batches: Sequence[Batch],
    interval: float,
    started: float,
    log: ClientLog,
    clock: Callable[[], float] = time.perf_counter,
) -> None:
    """Send ``batches[n]`` at ``started + n * interval``, one at a time.

    A session is sequential (its batches are one program order), so a
    batch that is already overdue is sent as soon as the previous one
    returns; every batch is sent and timed from its due time.
    """
    done = started
    for n, ops in enumerate(batches):
        due = started + n * interval
        wait = due - clock()
        if wait > 0:
            await asyncio.sleep(wait)
        # Generator lateness: how long after it could leave (due, and the
        # session's previous batch answered) the batch actually left.
        log.lags.append(clock() - max(due, done))
        try:
            await txn(ops)
        except (ServiceError, TransportError):
            log.errors += 1
            done = clock()
            continue
        done = clock()
        log.latencies.append(done - due)
        log.committed_ops += len(ops)
        log.last_done = max(log.last_done, done)


def make_batches(seed: int, per_client: int) -> List[List[Batch]]:
    profile = COMMERCIAL_PROFILES[PROFILE]
    out = []
    for client in range(CLIENTS):
        rng = random.Random(f"perfbench:{seed}:{client}")
        out.append([batch_for(profile, rng, client) for _ in range(per_client)])
    return out


async def time_units(units: List[float], stop: asyncio.Event) -> None:
    """Time a short calibration unit every ``UNIT_EVERY_S`` until ``stop``."""
    while True:
        try:
            await asyncio.wait_for(stop.wait(), UNIT_EVERY_S)
            return
        except asyncio.TimeoutError:
            pass
        start = time.perf_counter()
        calib.unit(UNIT_STEPS)
        units.append(time.perf_counter() - start)


def reference_s(host_s: float, units: Sequence[float]) -> float:
    """``host_s`` in reference seconds (see ``calib``), by the median unit
    timed while it was spent."""
    unit_s = statistics.median(units) * calib.UNIT_STEPS / UNIT_STEPS
    return host_s * calib.REFERENCE_UNIT_S / unit_s


async def _load(clients: Sequence[KVClient], batches: Sequence[Sequence[Batch]],
                units: List[float]) -> Tuple[List[ClientLog], float, float]:
    """One open-loop window; returns the client logs, start and last reply.

    Calibration units are timed into ``units`` while the window runs.
    """
    interval = CLIENTS / RATE
    logs = [ClientLog() for _ in clients]
    started = time.perf_counter() + 0.05
    stop = asyncio.Event()
    timer = asyncio.ensure_future(time_units(units, stop))
    try:
        await asyncio.gather(*(
            client_loop(kv.txn, work, interval, started, log)
            for kv, work, log in zip(clients, batches, logs)
        ))
    finally:
        stop.set()
        await timer
    return logs, started, max(log.last_done for log in logs)


def _spawn(directory: str, seed: int) -> Tuple[Supervisor, float]:
    """Start a cluster in ``directory``; returns it and its time to ready."""
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    start = time.perf_counter()
    config = build_cluster_config(directory, NODES, num_standbys=0, seed=seed)
    supervisor = Supervisor(config)
    try:
        supervisor.start()
        supervisor.wait_ready()
    except BaseException:
        supervisor.shutdown()
        raise
    return supervisor, time.perf_counter() - start


def server_cpu_s(supervisor: Supervisor) -> float:
    """CPU seconds (user + system) the cluster's server processes have used.

    Read from ``/proc/<pid>/stat`` of each live server, so a difference of
    two readings covers exactly the window between them: not the servers'
    start-up imports, not other clusters.
    """
    ticks = 0
    for proc in supervisor.procs.values():
        with open(f"/proc/{proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def _instrument_wire(tracer: Tracer, counted: Dict[str, int]) -> None:
    """Span the client's frame codec, adding frame bytes to ``counted``."""
    encode, decode = wire.encode_frame, wire.decode_payload

    def encode_frame(obj):
        with tracer.span("service.wire.encode"):
            frame = encode(obj)
        counted["bytes"] += len(frame)
        return frame

    def decode_payload(payload):
        with tracer.span("service.wire.decode"):
            obj = decode(payload)
        counted["bytes"] += len(payload) + 4
        return obj

    tracer.patch(wire, "encode_frame", encode_frame)
    tracer.patch(wire, "decode_payload", decode_payload)


# ----------------------------------------------------------------------
# Replays of the server-side layers
# ----------------------------------------------------------------------

def _gkey(record: dict) -> tuple:
    return tuple(record["gkey"])


def replay_metrics(tracer: Tracer, directory: str, raw: List[dict],
                   committed: int) -> Dict[str, float]:
    """Per-txn costs of the arbiter, wire and record-log layers, replayed."""
    serialized = sorted((r for r in raw if r["ev"] == "commit.serialize"), key=_gkey)
    factory = SignatureFactory(SignatureConfig(exact=True))
    arbiter = Arbiter(BulkSCConfig(signature=SignatureConfig(exact=True), rsig_optimization=False))
    # At most one batch per client is in flight, so a decision sees at
    # most CLIENTS - 1 other W signatures on the list.
    in_flight: deque = deque()
    decisions = grants = 0
    for index, record in enumerate(serialized):
        data = record["data"]
        w_sig = factory.from_addresses(data.get("w_lines", []))
        r_sig = factory.from_addresses(data.get("r_lines", []))
        while len(in_flight) > CLIENTS - 1:
            arbiter.release(in_flight.popleft(), float(index))
        while True:
            decisions += 1
            with tracer.span("service.arbiter.decide"):
                decision = arbiter.decide(int(record["p"]), w_sig, r_sig, float(index))
            if decision.granted:
                grants += 1
                break
            arbiter.release(in_flight.popleft(), float(index))
        if data.get("w_lines"):
            arbiter.admit(index, int(record["p"]), w_sig, float(index))
            in_flight.append(index)
    for index, record in enumerate(serialized):
        data = record["data"]
        message = {
            "id": index + 1,
            "method": "txn",
            "client": record["p"],
            "client_seq": data.get("client_seq", index),
            "ops": [["w", key, value] if is_write else ["r", key]
                    for is_write, key, value, __ in data.get("ops", [])],
        }
        with tracer.span("service.wire.replay_frame"):
            wire.decode_payload(wire.encode_frame(message)[4:])
    scratch = os.path.join(directory, "replay", "replay.rec.jsonl")
    log = RecordLog(scratch)
    try:
        for record in raw:
            with tracer.span("service.records.append"):
                log.append(record["ev"], record["gkey"], p=record.get("p"),
                           t=record.get("t"), **record.get("data", {}))
    finally:
        log.close()
    live_bytes = sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
        if name.endswith(".rec.jsonl")
    )
    txns = max(1, committed)

    def per_call_us(span: str, calls: int) -> float:
        return 1e6 * tracer.total_s(span) / max(1, calls)

    return {
        "service.arbiter.decide_us": per_call_us("service.arbiter.decide", decisions),
        "service.arbiter.grant_ratio": grants / max(1, decisions),
        "service.wire.replay_frame_us": per_call_us("service.wire.replay_frame", len(serialized)),
        "service.records.per_txn": len(raw) / txns,
        "service.records.bytes_per_txn": live_bytes / txns,
        "service.records.append_us": per_call_us("service.records.append", len(raw)),
        "service.node.updates_per_txn": sum(1 for r in raw if r["ev"] == "inv.deliver") / txns,
    }


# ----------------------------------------------------------------------
# A whole run
# ----------------------------------------------------------------------

def run(seed: int, seconds: float, trace: bool, out_dir: str,
        trace_path: str) -> Tuple[dict, Dict[str, float]]:
    """Measure the service; returns (accounting, metrics)."""
    windows = 2 if trace else 1  # traced runs: untraced half, then traced half
    per_client = max(1, math.ceil(RATE / CLIENTS * seconds / windows))
    batches = make_batches(seed, per_client * windows)
    # Spawn times in reference seconds: a unit is timed just before and
    # just after every spawn (see calib).
    calibration = calib.Calibration(every_s=0.0)
    spawn_s: List[float] = []

    def spawn(directory: str) -> Supervisor:
        segment = calibration.segment()
        cluster, took = _spawn(directory, seed)
        calibration.tick(took)
        spawn_s.append(calibration.reference_s(took, segment))
        return cluster

    for index in range(0 if trace else SETUP_SPAWNS - 1):
        spawn(os.path.join(out_dir, f"spawn{index}")).shutdown()
    directory = os.path.join(out_dir, "cluster")
    supervisor = spawn(directory)
    tracer = Tracer()
    wire_bytes = {"bytes": 0}
    #: Per window: client logs, start, last reply, server CPU seconds in
    #: host and in reference seconds.
    results: List[Tuple[List[ClientLog], float, float, float, float]] = []
    try:
        config = supervisor.config
        clients = [KVClient(config, i) for i in range(CLIENTS)]

        async def drive() -> None:
            try:
                for window in range(windows):
                    work = [b[window * per_client:(window + 1) * per_client] for b in batches]
                    if window == 1:
                        _instrument_wire(tracer, wire_bytes)
                    units: List[float] = []
                    cpu_before = server_cpu_s(supervisor)
                    logs, started, last_done = await _load(clients, work, units)
                    cpu_s = server_cpu_s(supervisor) - cpu_before
                    results.append((logs, started, last_done, cpu_s,
                                    reference_s(cpu_s, units)))
            finally:
                for kv in clients:
                    await kv.close()

        try:
            asyncio.run(drive())
        finally:
            tracer.unpatch_all()
    finally:
        supervisor.shutdown()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    certify_start = time.perf_counter()
    verdict = certify_run(directory, seed=seed)
    certify_s = time.perf_counter() - certify_start
    logs = [log for window_logs, *__ in results for log in window_logs]
    attempted = per_client * CLIENTS * windows
    errors = sum(log.errors for log in logs)
    certified = verdict.ok and not verdict.lost_acks
    accounting = {
        "attempted": attempted,
        "failed": errors if certified else attempted,
        "reasons": [] if certified else [f"not certified: {verdict.payload()}"],
        "certified": certified,
        "lost_acks": len(verdict.lost_acks),
    }
    if errors:
        accounting["reasons"].append(f"{errors} txns failed")
    if trace:
        untraced, traced = results
        lags = [lag for window_logs, *__ in results for log in window_logs for lag in log.lags]
        traced_committed = sum(len(log.latencies) for log in traced[0])
        raw = load_raw_records(directory)
        committed = sum(len(log.latencies) for log in logs)
        # Latency from the untraced half, so the wrappers cannot inflate it.
        untraced_latencies = [lat for log in untraced[0] for lat in log.latencies]
        tail_q = tail_quantile(len(untraced_latencies))
        accounting["tail_quantile"] = tail_q
        metrics = {
            "service.latency_p50_ms": 1e3 * quantile(untraced_latencies, 0.5),
            "service.latency_tail_ms": 1e3 * quantile(untraced_latencies, tail_q),
            "service.generator.lag_p99_ms": 1e3 * quantile(lags, 0.99),
            "service.wire.encode_us": 1e6 * tracer.total_s("service.wire.encode")
            / max(1, tracer.count("service.wire.encode")),
            "service.wire.decode_us": 1e6 * tracer.total_s("service.wire.decode")
            / max(1, tracer.count("service.wire.decode")),
            "service.wire.bytes_per_txn": wire_bytes["bytes"] / max(1, traced_committed),
            "service.certify_s": certify_s,
            "service.server_cpu_ms_per_txn": 1e3 * untraced[3]
            / max(1, sum(len(log.latencies) for log in untraced[0])),
            "trace_overhead_frac": _p50(traced[0]) / _p50(untraced[0]) - 1.0,
        }
        tracer.run_id = "replay"
        metrics.update(replay_metrics(tracer, directory, raw, committed))
        tracer.write_chrome(trace_path, {"workload": "service-open", "seed": seed})
        shutil.rmtree(directory, ignore_errors=True)
        return accounting, metrics
    window_logs, started, last_done, cpu_s, ref_cpu_s = results[0]
    committed = sum(len(log.latencies) for log in window_logs)
    wall_s = last_done - started
    metrics = {
        "setup_s": statistics.median(spawn_s),
        # Below the knee the window and the committed rate are set by the
        # offered load, not by the service's speed; the servers' CPU
        # seconds per committed txn are.
        "wall_s": wall_s,
        "ops_per_s": committed / ref_cpu_s,
        "instr_per_s": sum(log.committed_ops for log in window_logs) / wall_s,
        "peak_rss_mb": peak_rss_mb,
    }
    accounting["server_cpu_s"] = round(cpu_s, 3)
    accounting["server_ref_cpu_s"] = round(ref_cpu_s, 3)
    accounting["txn_per_s"] = round(committed / wall_s, 3)
    # Printed for people, not gated: see the per-layer latency metrics.
    latencies = [lat for log in window_logs for lat in log.latencies]
    accounting["latency_p50_ms"] = round(1e3 * quantile(latencies, 0.5), 3)
    accounting["latency_p99_ms"] = round(1e3 * quantile(latencies, 0.99), 3)
    for index in range(SETUP_SPAWNS - 1):
        shutil.rmtree(os.path.join(out_dir, f"spawn{index}"), ignore_errors=True)
    shutil.rmtree(directory, ignore_errors=True)
    return accounting, metrics


def _p50(logs: Sequence[ClientLog]) -> float:
    return statistics.median([lat for log in logs for lat in log.latencies])
