"""Unit tests for deterministic randomness."""

import random

import pytest

from repro.engine.rng import DeterministicRng, randbelow


def test_same_seed_same_stream():
    a = DeterministicRng(7)
    b = DeterministicRng(7)
    assert [a.randint(0, 100) for _ in range(20)] == [
        b.randint(0, 100) for _ in range(20)
    ]


def test_different_seeds_differ():
    a = [DeterministicRng(1).randint(0, 10**9) for _ in range(4)]
    b = [DeterministicRng(2).randint(0, 10**9) for _ in range(4)]
    assert a != b


def test_fork_is_pure_function_of_seed_and_label():
    parent1 = DeterministicRng(5)
    parent2 = DeterministicRng(5)
    # Consuming state from one parent must not change its forks.
    parent1.randint(0, 100)
    fork1 = parent1.fork("worker")
    fork2 = parent2.fork("worker")
    assert fork1.randint(0, 10**9) == fork2.randint(0, 10**9)


def test_forks_with_different_labels_are_independent():
    parent = DeterministicRng(5)
    a = parent.fork("a").randint(0, 10**9)
    b = parent.fork("b").randint(0, 10**9)
    assert a != b


def test_geometric_minimum_is_one():
    rng = DeterministicRng(3)
    assert all(rng.geometric(0.9) >= 1 for _ in range(50))


def test_geometric_rejects_bad_p():
    with pytest.raises(ValueError):
        DeterministicRng(0).geometric(0.0)
    with pytest.raises(ValueError):
        DeterministicRng(0).geometric(1.5)


def test_zipf_index_in_range():
    rng = DeterministicRng(11)
    draws = [rng.zipf_index(16) for _ in range(200)]
    assert all(0 <= d < 16 for d in draws)


def test_zipf_is_skewed_toward_low_indices():
    rng = DeterministicRng(13)
    draws = [rng.zipf_index(64) for _ in range(2000)]
    low = sum(1 for d in draws if d < 8)
    high = sum(1 for d in draws if d >= 56)
    assert low > high * 2


def test_zipf_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        DeterministicRng(0).zipf_index(0)


def test_shuffle_and_sample_deterministic():
    a, b = DeterministicRng(9), DeterministicRng(9)
    la, lb = list(range(10)), list(range(10))
    a.shuffle(la)
    b.shuffle(lb)
    assert la == lb
    assert a.sample(range(100), 5) == b.sample(range(100), 5)


class TestDrawAccounting:
    """The monotonic draw counter backs replay's divergence diagnostics."""

    def test_counter_starts_at_zero(self):
        assert DeterministicRng(0).draws == 0

    def test_every_primitive_counts(self):
        rng = DeterministicRng(1)
        rng.randint(0, 10)
        rng.random()
        rng.uniform(0.0, 1.0)
        rng.choice([1, 2, 3])
        rng.shuffle([1, 2, 3])
        rng.sample(range(10), 2)
        rng.expovariate(1.0)
        assert rng.draws == 7

    def test_composite_draws_count_each_underlying_draw(self):
        rng = DeterministicRng(2)
        rng.geometric(0.5)
        assert rng.draws >= 1
        before = rng.draws
        rng.zipf_index(8)
        assert rng.draws > before

    def test_counter_matches_across_identical_streams(self):
        a, b = DeterministicRng(9), DeterministicRng(9)
        for rng in (a, b):
            rng.geometric(0.25)
            rng.randint(0, 5)
            rng.zipf_index(16)
        assert a.draws == b.draws

    def test_fork_does_not_consume_draws(self):
        rng = DeterministicRng(4)
        rng.fork("child")
        assert rng.draws == 0


class TestStreamEquivalence:
    """The draw kernel must reproduce ``random.Random`` value for value.

    ``randint`` and ``shuffle`` re-implement CPython's rejection sampling
    on ``getrandbits``; these pin them to the interpreter's own
    algorithm, so a CPython release that changes it fails here rather
    than silently changing every generated workload.
    """

    SEEDS = range(25)
    #: Range widths: one value, powers of two (the worst rejection
    #: rate), their neighbours, and widths past 32 and 64 bits.
    WIDTHS = (1, 2, 3, 7, 8, 9, 16, 64, 100, 1024, 10**9, 2**32, 2**40, 2**64 + 1)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_randint_matches_random(self, width):
        for seed in self.SEEDS:
            ours, ref = DeterministicRng(seed), random.Random(seed)
            lo = seed - 3
            got = [ours.randint(lo, lo + width - 1) for _ in range(40)]
            assert got == [ref.randint(lo, lo + width - 1) for _ in range(40)]

    def test_mixed_stream_matches_random(self):
        # Interleaved calls share one underlying state: the kernel must
        # consume exactly the bits random.Random would.
        for seed in self.SEEDS:
            ours, ref = DeterministicRng(seed), random.Random(seed)
            for step in range(200):
                width = self.WIDTHS[step % len(self.WIDTHS)]
                assert ours.randint(0, width - 1) == ref.randint(0, width - 1)
                assert ours.random() == ref.random()

    @pytest.mark.parametrize("length", [0, 1, 2, 3, 8, 17, 300])
    def test_shuffle_matches_random(self, length):
        for seed in self.SEEDS:
            ours, ref = DeterministicRng(seed), random.Random(seed)
            a, b = list(range(length)), list(range(length))
            ours.shuffle(a)
            ref.shuffle(b)
            assert a == b
            assert ours.randint(0, 10**9) == ref.randint(0, 10**9)

    def test_raw_primitives_share_the_stream(self):
        ours, ref = DeterministicRng(3), random.Random(3)
        assert randbelow(ours.raw_getrandbits, 1000) == ref.randrange(1000)
        assert ours.raw_random() == ref.random()
        assert ours.randint(0, 99) == ref.randint(0, 99)
        assert ours.draws == 1  # the raw primitives are uncounted

    def test_empty_range_raises(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).randint(5, 4)
        with pytest.raises(ValueError):
            random.Random(0).randint(5, 4)

    def test_randint_counts_one_draw_per_call(self):
        rng = DeterministicRng(6)
        for width in self.WIDTHS:
            before = rng.draws
            rng.randint(0, width - 1)
            assert rng.draws == before + 1

    def test_shuffle_counts_one_draw(self):
        rng = DeterministicRng(6)
        rng.shuffle(list(range(100)))
        assert rng.draws == 1
