"""Counter-RNG determinism and the mixed-radix permutation bijection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injectstream import rng as rng_module
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


def _state_items(state: dict) -> list:
    """A bit generator's state dict with its arrays as lists, for ==."""
    return [(key, _state_items(value) if isinstance(value, dict)
             else value.tolist() if isinstance(value, np.ndarray) else value)
            for key, value in sorted(state.items())]


@pytest.mark.parametrize("seed", [0, 5, 2**64 + 3, 2**128 - 1])
def test_reseed_restarts_as_a_fresh_philox(seed):
    """``reseed`` writes numpy's Philox state dict by hand: key as two uint64
    words (low first), counter 0, empty buffer, no cached uint32.  NumPy does
    not promise that layout, so this test pins it."""
    used = PhiloxRNG(99)
    used.randbelow(7)                  # leaves a cached uint32 behind
    used.randbelow_many([2**40] * 6)   # and a partly used buffer
    used.reseed(seed)
    assert _state_items(used._bits.state) == _state_items(np.random.Philox(key=seed).state)
    fresh = PhiloxRNG(seed)
    for highs in ([7], [2**40] * 6, [3, 2], [10**9] * 5):
        assert used.randbelow_many(highs) == fresh.randbelow_many(highs)
        assert used.randbelow(1000) == fresh.randbelow(1000)
    # setting the state copied the shared zero arrays rather than drawing into them
    assert not rng_module._ZEROS.any()


@pytest.mark.parametrize("seed", [-1, 2**128, 2**130])
def test_reseed_rejects_seeds_outside_the_key_range(seed):
    with pytest.raises(ValueError):
        np.random.Philox(key=seed)
    with pytest.raises(ValueError):
        PhiloxRNG(seed)
    with pytest.raises(ValueError):
        PhiloxRNG(0).reseed(seed)
