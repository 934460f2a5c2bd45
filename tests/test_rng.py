"""Counter-RNG determinism and the mixed-radix permutation bijection."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injectstream.rng import MixedRadixRNG, PhiloxRNG, fisher_yates


def test_philox_deterministic_per_seed():
    a = [PhiloxRNG(7).randbelow(1000) for _ in range(5)]
    b = [PhiloxRNG(7).randbelow(1000) for _ in range(5)]
    assert a == b
    # successive draws from one instance advance the counter
    r = PhiloxRNG(7)
    seq = [r.randbelow(1000) for _ in range(5)]
    assert len(set(seq)) > 1


def test_philox_seed_sensitivity():
    draws = {s: tuple(PhiloxRNG(s).randbelow(10**9) for _ in range(4)) for s in range(20)}
    assert len(set(draws.values())) == 20


def test_randbelow_domain():
    r = PhiloxRNG(0)
    for n in (1, 2, 17, 1000):
        for _ in range(50):
            assert 0 <= r.randbelow(n) < n
    with pytest.raises(ValueError):
        r.randbelow(0)


def test_fisher_yates_is_permutation():
    items = list("abcdefg")
    out = fisher_yates(items, PhiloxRNG(3))
    assert sorted(out) == sorted(items)
    assert fisher_yates(items, PhiloxRNG(3)) == out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mixed_radix_enumerates_all_permutations(n):
    """Seeds 0..n!-1 hit every permutation exactly once."""
    items = list(range(n))
    seen = {tuple(fisher_yates(items, MixedRadixRNG(s))) for s in range(math.factorial(n))}
    assert len(seen) == math.factorial(n)


def test_mixed_radix_wraps_modulo_factorial():
    items = [0, 1, 2]
    assert fisher_yates(items, MixedRadixRNG(1)) == fisher_yates(items, MixedRadixRNG(7))


def test_philox_near_uniform_on_small_range():
    """Coarse frequency sanity, not a statistical test."""
    r = PhiloxRNG(11)
    counts = [0] * 6
    for _ in range(6000):
        counts[r.randbelow(6)] += 1
    assert min(counts) > 800


@given(
    st.sampled_from(["philox", "mixed"]),
    st.integers(0, 2**64 - 1),
    st.lists(st.one_of(st.integers(1, 10), st.integers(1, 2**40)), max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_randbelow_many_equals_scalar_draws(kind, seed, highs):
    """The bulk draw replays the scalar draws exactly, on both sides of the
    PhiloxRNG cutoff below which it draws one by one.  NumPy does not
    document that an array of bounds draws like a sequence of scalar
    bounds, so this test guards it."""
    make = PhiloxRNG if kind == "philox" else MixedRadixRNG
    bulk, scalar = make(seed), make(seed)
    assert bulk.randbelow_many(highs) == [scalar.randbelow(m) for m in highs]
    # both generators are left in the same state
    assert bulk.randbelow_many(highs) == [scalar.randbelow(m) for m in highs]


@pytest.mark.parametrize("make", [PhiloxRNG, MixedRadixRNG])
@pytest.mark.parametrize("highs", [[0], [3, -1], [5, 5, 5, 5, 0], [7] * 20 + [-2]])
def test_randbelow_many_rejects_bounds_below_one(make, highs):
    with pytest.raises(ValueError):
        make(1).randbelow_many(highs)
