"""Golden digests of the workload generators' output.

Every Figure 9/10/11 and Table 3/4 cell first generates its synthetic
trace programs, so the generators must stay bit-identical when they are
optimised.  These digests were recorded once from the reference
generator and are checked here as data, not against a second live
generator: any change to the programs, the address-space layout or the
RNG draws a build consumes changes a digest.

Each digest hashes, per thread, the program name, its instruction and
memory-op totals and every op's fields, plus the address-space regions
and the draw count of every RNG stream the build forked.

To re-record after an *intended* change to generated workloads::

    PYTHONPATH=src python tests/test_workload_golden.py
"""

import dataclasses
import hashlib
import json
from unittest import mock

import pytest

from repro.cpu.isa import Reg, RegPlus
from repro.engine.rng import DeterministicRng
from repro.harness.runner import ALL_APPS, build_app_workload
from repro.params import NAMED_CONFIGS
from repro.workloads.synthetic import (
    false_sharing_workload,
    lock_contention_workload,
    partitioned_array_workload,
    producer_consumer_workload,
    work_queue_workload,
)

SEEDS = (0, 1)
SMALL_INSTRUCTIONS = 1000
#: Apps also pinned at the generator's 20 000-instruction default: one
#: partitioned, one scatter (radix) and one commercial profile.
DEFAULT_APPS = ("barnes", "radix", "sjbb2k")
DEFAULT_INSTRUCTIONS = 20_000
IDIOMS = {
    "partitioned_array": partitioned_array_workload,
    "producer_consumer": producer_consumer_workload,
    "lock_contention": lock_contention_workload,
    "false_sharing": false_sharing_workload,
    "work_queue": work_queue_workload,
}


def _field(value):
    if isinstance(value, (Reg, RegPlus)):
        return [type(value).__name__, *dataclasses.astuple(value)]
    return value


def _op_key(op) -> list:
    return [type(op).__name__] + [
        _field(getattr(op, f.name)) for f in dataclasses.fields(op)
    ]


def _build(name: str, seed: int, instructions: int):
    """Build one workload; returns it with the draws of every forked stream."""
    forks = []
    fork = DeterministicRng.fork

    def recording_fork(self, label):
        child = fork(self, label)
        forks.append(child)
        return child

    config = NAMED_CONFIGS["SC"](seed=seed)
    with mock.patch.object(DeterministicRng, "fork", recording_fork):
        if name in IDIOMS:
            workload = IDIOMS[name](config)
        else:
            workload = build_app_workload(name, config, instructions, seed)
    return workload, [child.draws for child in forks]


def _digest(name: str, seed: int, instructions: int) -> str:
    workload, draws = _build(name, seed, instructions)
    space = workload.address_space
    payload = {
        "programs": [
            [
                program.name,
                program.total_instructions,
                program.memory_op_count,
                [_op_key(op) for op in program],
            ]
            for program in workload.programs
        ],
        "regions": [
            [r.name, r.start_word, r.end_word, r.private_to] for r in space.regions()
        ],
        "highest_word": space.highest_word,
        "draws": draws,
    }
    blob = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def _cells():
    for app in ALL_APPS:
        for seed in SEEDS:
            yield app, seed, SMALL_INSTRUCTIONS
    for app in DEFAULT_APPS:
        yield app, 0, DEFAULT_INSTRUCTIONS
    for idiom in IDIOMS:
        yield idiom, 0, 0


def _key(name: str, seed: int, instructions: int) -> str:
    return f"{name}/{seed}/{instructions}"


GOLDEN = {
    "barnes/0/1000": "8885ed9df47c7f343426653c",
    "barnes/1/1000": "a1c16de6531a7421e5d261be",
    "cholesky/0/1000": "2b4168801b0b4a3d0fce54e9",
    "cholesky/1/1000": "8a46369b2139152948be3742",
    "fft/0/1000": "5b4bea8e90c7752bc73d2525",
    "fft/1/1000": "26cb83767b86d42b1d8b3cf5",
    "fmm/0/1000": "b12ddb6b7f98febc43ac3f85",
    "fmm/1/1000": "6733308d66b278b2ef09a91d",
    "lu/0/1000": "0498c6a762186d136097e1fc",
    "lu/1/1000": "a6c2530b5a56a1856618b78c",
    "ocean/0/1000": "6cbb2a1c0d4d7f04b8154f10",
    "ocean/1/1000": "b1867b504e5a07736ea823b1",
    "radiosity/0/1000": "1e8759a0bc583b33ce1979d6",
    "radiosity/1/1000": "d4b6397b3243a818e0f97868",
    "radix/0/1000": "dc41d9937b3670ec355277a2",
    "radix/1/1000": "df9b426889ae9ba8ac9be4a5",
    "raytrace/0/1000": "66ee58ce8d0741cbddb351dd",
    "raytrace/1/1000": "6971fed3d6f7943e6392819f",
    "water-ns/0/1000": "33acd8a9825b95590f4b2c7f",
    "water-ns/1/1000": "c957bf03d526aeabcf9097d8",
    "water-sp/0/1000": "b999a1cab7f74c08aa4549af",
    "water-sp/1/1000": "be7c8db1a0e6bd0e7621bb85",
    "sjbb2k/0/1000": "e91dfdbed104da0b0a94e8fa",
    "sjbb2k/1/1000": "2f6bc8b5f819120f7cbdc016",
    "sweb2005/0/1000": "a00b911cf8ab11fc15fbdace",
    "sweb2005/1/1000": "18b61494ec54b8f103813beb",
    "barnes/0/20000": "3886506d7875f2332ff0ffcb",
    "radix/0/20000": "858f78058d1ac87f08b9cec6",
    "sjbb2k/0/20000": "d654b5591bcd1da83a396b71",
    "partitioned_array/0/0": "32e0db96f4adbca1cc681009",
    "producer_consumer/0/0": "9645be6a12b8874796253fb2",
    "lock_contention/0/0": "681a08ffc1fcb2c2dd943f80",
    "false_sharing/0/0": "6587433fe6ed1823b9318319",
    "work_queue/0/0": "cba3ffcb88f3fb7ccaa04620",
}


@pytest.mark.parametrize(
    "name,seed,instructions",
    list(_cells()),
    ids=[_key(*cell) for cell in _cells()],
)
def test_workload_matches_golden(name, seed, instructions):
    assert _digest(name, seed, instructions) == GOLDEN[_key(name, seed, instructions)]


def test_golden_covers_every_cell():
    assert sorted(GOLDEN) == sorted(_key(*cell) for cell in _cells())


def test_profile_build_consumes_draws():
    # The draw counts are part of every digest; make sure they are live.
    __, draws = _build("barnes", 0, SMALL_INSTRUCTIONS)
    assert draws[0] == 0  # the per-app fork is only a seed for the threads
    assert all(count > 0 for count in draws[1:])


if __name__ == "__main__":
    for cell in _cells():
        print(f'    "{_key(*cell)}": "{_digest(*cell)}",')
