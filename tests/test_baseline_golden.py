"""Golden fingerprints for the baseline (SC, RC, TSO, SC++) drivers.

The baselines run only the scalar interpreter loop, so there is no
second live code path to compare them against.  Instead these digests
were recorded once from the reference interpreter and are checked here
as data: any change to the loop, the op dispatch or a model's handlers
that alters simulated behaviour changes a digest.

Each digest hashes the deterministic stats snapshot, final registers,
nonzero memory, cycles, events fired, RNG draws and the recorded
visibility history (which carries each op's program index).

To re-record after an *intended* behaviour change::

    PYTHONPATH=src python tests/test_baseline_golden.py
"""

import hashlib
import json

import pytest

from repro.harness.runner import build_app_workload
from repro.params import NAMED_CONFIGS
from repro.system import run_workload
from repro.workloads.synthetic import (
    lock_contention_workload,
    producer_consumer_workload,
)

CONFIGS = ("SC", "RC", "TSO", "SC++")
APPS = ("barnes", "ocean", "sjbb2k")
SEEDS = (0, 1)
INSTRUCTIONS = 1000
# The Figure 9 apps issue only loads, stores, compute and barriers at this
# size; these two cover the fence, spin, acquire and release handlers.
MICRO = {
    "producer_consumer": producer_consumer_workload,
    "lock_contention": lock_contention_workload,
}


def _digest(result) -> str:
    machine = result.machine
    history = [
        (e.time, e.proc, e.is_store, e.word_addr, e.value, e.program_index)
        for e in result.history.events()
    ]
    payload = {
        "stats": sorted(result.stats.items()),
        "registers": sorted(
            (proc, sorted(regs.items())) for proc, regs in result.registers.items()
        ),
        "memory": sorted(result.memory.nonzero_words().items()),
        "cycles": result.cycles,
        "events": machine.sim.events_fired,
        "rng_draws": machine.sim.rng.draws,
        "history": history,
    }
    blob = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def _run(config_name: str, workload_name: str, seed: int) -> str:
    config = NAMED_CONFIGS[config_name](seed=seed)
    if workload_name in MICRO:
        workload = MICRO[workload_name](config)
    else:
        workload = build_app_workload(workload_name, config, INSTRUCTIONS, seed)
    result = run_workload(config, workload.programs, workload.address_space)
    return _digest(result)


def _cells():
    for config_name in CONFIGS:
        for app in APPS:
            for seed in SEEDS:
                yield config_name, app, seed
        for micro in MICRO:
            yield config_name, micro, 0


def _key(config_name: str, workload_name: str, seed: int) -> str:
    return f"{config_name}/{workload_name}/{seed}"


GOLDEN = {
    "SC/barnes/0": "1560764e92415d3251d02339",
    "SC/barnes/1": "a97c790154eeb8af94742e22",
    "SC/ocean/0": "1b18815166ddf9040639e6c5",
    "SC/ocean/1": "4b77167de59e14e27f68699c",
    "SC/sjbb2k/0": "ce3bf789475a3a90e1054f22",
    "SC/sjbb2k/1": "05bce9c267b8e37d6912a4bd",
    "SC/producer_consumer/0": "468890c2be4c6f732bc75abd",
    "SC/lock_contention/0": "0bdabf3d90b216267b0f7c6e",
    "RC/barnes/0": "f6a67532c5af2fd32c394d14",
    "RC/barnes/1": "0622f1218569309ab1a530a5",
    "RC/ocean/0": "2bd2960bcb8fe53c42fad6d3",
    "RC/ocean/1": "547ea4c24054216d6dc60663",
    "RC/sjbb2k/0": "974d83fd2b7c30d507eca374",
    "RC/sjbb2k/1": "5fd277d41097ea105cd5ea60",
    "RC/producer_consumer/0": "53bc1ee16f7f54867d3a46b8",
    "RC/lock_contention/0": "f4f1781f11b79fea9c3f8c86",
    "TSO/barnes/0": "b594f817b70cf6600063c9f0",
    "TSO/barnes/1": "86d6f83ae0a58041f7676334",
    "TSO/ocean/0": "c1ba392cca097b8e0a1eeb57",
    "TSO/ocean/1": "ff30931a05ce13166391a0cb",
    "TSO/sjbb2k/0": "9805bd7579db2dfe0a0f1d6a",
    "TSO/sjbb2k/1": "c4a67de11660a1c5e23bb915",
    "TSO/producer_consumer/0": "53bc1ee16f7f54867d3a46b8",
    "TSO/lock_contention/0": "f4f1781f11b79fea9c3f8c86",
    "SC++/barnes/0": "33a6a8bd81d46c18fd4943cb",
    "SC++/barnes/1": "4e110061eb05e370697022cf",
    "SC++/ocean/0": "e6698f1f7e6d0ee5a74a669e",
    "SC++/ocean/1": "48e11b21e75742fdf08bd332",
    "SC++/sjbb2k/0": "80db53a810286396e07a6b6a",
    "SC++/sjbb2k/1": "9c829f3e89757b5b90b150ff",
    "SC++/producer_consumer/0": "67ef39685c992fb25304a665",
    "SC++/lock_contention/0": "062fe3c82daf26627fa29b77",
}


@pytest.mark.parametrize(
    "config_name,workload_name,seed",
    list(_cells()),
    ids=[_key(*cell) for cell in _cells()],
)
def test_baseline_matches_golden(config_name, workload_name, seed):
    key = _key(config_name, workload_name, seed)
    assert _run(config_name, workload_name, seed) == GOLDEN[key]


def test_golden_covers_every_cell():
    assert sorted(GOLDEN) == sorted(_key(*cell) for cell in _cells())


if __name__ == "__main__":
    for cell in _cells():
        print(f'    "{_key(*cell)}": "{_run(*cell)}",')
