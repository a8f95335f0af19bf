"""Deterministic random number generation.

Every stochastic choice in the simulator (workload generation, backoff
jitter) flows through :class:`DeterministicRng` so a (seed, config) pair
fully determines an experiment.  Sub-streams derived with :meth:`fork` are
independent of each other and of the order in which other streams are
consumed, which keeps workloads identical across consistency models.
"""

from __future__ import annotations

import random
import zlib
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")


def randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform int in ``[0, n)`` drawn from ``getrandbits``; ``n >= 1``.

    The one draw kernel behind :meth:`DeterministicRng.randint` and
    :meth:`DeterministicRng.shuffle`.  It is CPython's
    ``Random._randbelow_with_getrandbits`` rejection sampling (unchanged
    from 3.10 through 3.13), so a stream drawn through it equals
    ``random.Random``'s stream value for value; ``tests/test_engine_rng.py``
    pins that.  Hot loops bind it with :attr:`DeterministicRng.raw_getrandbits`
    and add their draws to :attr:`DeterministicRng.draws` in bulk.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class DeterministicRng:
    """A seeded random stream with named, independent sub-streams.

    Every draw bumps :attr:`draws`, a monotonically increasing counter.
    Two executions that consumed a different number of draws have
    demonstrably diverged, so the counter is recorded in replay traces
    and livelock dumps: a divergence diagnostic can name the exact draw
    index where two executions split.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._random = random.Random(seed)
        #: Number of draws consumed from this stream so far.  Counts
        #: API-level calls (one per ``randint``/``choice``/... and one
        #: per Bernoulli trial of :meth:`geometric`), not underlying
        #: entropy bits; what matters is that equal executions produce
        #: equal counts.
        self.draws = 0

    def fork(self, label: str) -> "DeterministicRng":
        """Derive an independent stream keyed by ``label``.

        Forking is a pure function of ``(self.seed, label)``: it does not
        consume state from this stream, so call order cannot perturb
        downstream randomness.  The derivation uses CRC32 rather than
        ``hash()`` because Python randomizes string hashing per process.
        """
        digest = zlib.crc32(label.encode("utf-8"), self.seed & 0xFFFFFFFF)
        child_seed = (self.seed * 0x9E3779B1 + digest) & 0x7FFFFFFFFFFFFFFF
        return DeterministicRng(child_seed)

    # Uncounted primitives, for hot loops that draw through randbelow and
    # add their draws to ``draws`` themselves -------------------------------
    @property
    def raw_getrandbits(self) -> Callable[[int], int]:
        return self._random.getrandbits

    @property
    def raw_random(self) -> Callable[[], float]:
        return self._random.random

    # Counted draws, each equal to the same random.Random call ------------
    def randint(self, lo: int, hi: int) -> int:
        self.draws += 1
        n = hi - lo + 1
        if n <= 0:
            raise ValueError(f"empty range for randint({lo}, {hi})")
        return lo + randbelow(self._random.getrandbits, n)

    def random(self) -> float:
        self.draws += 1
        return self._random.random()

    def uniform(self, lo: float, hi: float) -> float:
        self.draws += 1
        return self._random.uniform(lo, hi)

    def choice(self, seq: Sequence[T]) -> T:
        self.draws += 1
        return self._random.choice(seq)

    def shuffle(self, seq: List[T]) -> None:
        """In-place Fisher-Yates, the same permutation as ``Random.shuffle``."""
        self.draws += 1
        getrandbits = self._random.getrandbits
        for i in range(len(seq) - 1, 0, -1):
            j = randbelow(getrandbits, i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        self.draws += 1
        return self._random.sample(seq, k)

    def expovariate(self, lambd: float) -> float:
        self.draws += 1
        return self._random.expovariate(lambd)

    def geometric(self, p: float) -> int:
        """Number of Bernoulli(p) trials up to and including first success."""
        if not 0 < p <= 1:
            raise ValueError(f"p must be in (0, 1], got {p}")
        count = 1
        while self.random() >= p:
            count += 1
        return count

    def zipf_index(self, n: int, alpha: float = 1.0) -> int:
        """Draw an index in ``[0, n)`` with a Zipf-like skew.

        Used by the commercial-workload generators to model hot shared
        structures (locks, counters) next to a long cold tail.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        # Inverse-CDF on the harmonic-weighted ranks, approximated with a
        # power transform which is accurate enough for workload shaping.
        u = self.random()
        idx = int(n * (u ** (1.0 + alpha)))
        return min(idx, n - 1)
