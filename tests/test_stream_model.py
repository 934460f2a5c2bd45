"""Stream-model semantics: permutations, injection plans, realized streams."""

import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from injectstream.errors import (
    InvalidInstanceError,
    PlanValidationError,
    SizeLimitError,
)
from injectstream.harness import perm_seed, trial_seed
from injectstream.rng import MixedRadixRNG
from injectstream.stream_model import (
    ENUMERATION_LIMIT,
    Element,
    InjectionPlan,
    InstanceSplit,
    build_stream,
    build_streams,
    enumerate_streams,
)

from reference_stream import realize_stream, sample_permutation


def els(*ids):
    return tuple(Element(i) for i in ids)


def test_split_rejects_duplicate_ids():
    with pytest.raises(InvalidInstanceError):
        InstanceSplit(good=els("a", "b"), noise=els("a"))
    with pytest.raises(InvalidInstanceError):
        InstanceSplit(good=els("a", "a"))


def test_plan_validation():
    split = InstanceSplit(good=els("a", "b"), noise=els("x", "y"))
    InjectionPlan(((0, "x"), (2, "y"))).validate(split)
    with pytest.raises(PlanValidationError):
        InjectionPlan(((0, "x"),)).validate(split)  # y missing
    with pytest.raises(PlanValidationError):
        InjectionPlan(((0, "x"), (0, "x"))).validate(split)  # x twice
    with pytest.raises(PlanValidationError):
        InjectionPlan(((3, "x"), (0, "y"))).validate(split)  # slot > n_good


def test_realize_slot_semantics():
    """Slot i precedes good position i; slot n_good lands at the end."""
    split = InstanceSplit(good=els("a", "b"), noise=els("x", "y"))
    perm = els("b", "a")
    s = realize_stream(split, InjectionPlan(((0, "x"), (2, "y"))), perm)
    assert [e.id for e in s.order] == ["x", "b", "a", "y"]
    s = realize_stream(split, InjectionPlan(((1, "y"), (1, "x"))), perm)
    # same slot keeps plan order
    assert [e.id for e in s.order] == ["b", "y", "x", "a"]


def test_sample_permutation_uniform_over_enumeration():
    good = els(0, 1, 2)
    seen = {sample_permutation(good, s, rng_factory=MixedRadixRNG) for s in range(6)}
    assert len(seen) == 6


def test_build_stream_deterministic():
    split = InstanceSplit(good=els(*range(6)), noise=els("n0", "n1"))
    plan = InjectionPlan(((0, "n0"), (3, "n1")))
    a = build_stream(split, plan, seed=42)
    b = build_stream(split, plan, seed=42)
    assert a.order == b.order
    assert a.seed == 42
    c = build_stream(split, plan, seed=43)
    assert c.order != a.order


def test_enumerate_streams_covers_factorial():
    split = InstanceSplit(good=els("a", "b", "c"), noise=els("x",))
    plan = InjectionPlan(((1, "x"),))
    streams = enumerate_streams(split, plan)
    assert len(streams) == 6
    assert len({s.order for s in streams}) == 6
    for s in streams:
        assert s.order[1].id == "x"  # noise position fixed across permutations
        assert len(s) == 4
    # stream i matches the mixed-radix seed-i realization
    for i, s in enumerate(streams):
        perm = sample_permutation(split.good, i, rng_factory=MixedRadixRNG)
        assert s == realize_stream(split, plan, perm, seed=i)


def test_enumerate_streams_guard():
    split = InstanceSplit(good=els(*range(ENUMERATION_LIMIT + 1)))
    with pytest.raises(SizeLimitError):
        enumerate_streams(split, InjectionPlan())


@st.composite
def split_and_plan(draw):
    n_good = draw(st.integers(1, 6))
    n_noise = draw(st.integers(0, 5))
    good = els(*range(n_good))
    noise = els(*(f"n{i}" for i in range(n_noise)))
    entries = tuple(
        (draw(st.integers(0, n_good)), e.id) for e in noise
    )
    return InstanceSplit(good=good, noise=noise), InjectionPlan(entries)


@given(split_and_plan(), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_realized_stream_properties(sp, seed):
    """Every element appears once; the good elements arrive in the seed's
    permutation; noise of slot i sits before good position i and after
    position i-1."""
    split, plan = sp
    s = build_stream(split, plan, seed)
    assert Counter(e.id for e in s.order) == Counter(
        e.id for e in split.good + split.noise
    )
    perm = tuple(e for e in s.order if e.id in {g.id for g in split.good})
    assert perm == sample_permutation(split.good, seed)

    good_pos = {e.id: i for i, e in enumerate(s.order) if e.id in {g.id for g in split.good}}
    stream_pos = {e.id: i for i, e in enumerate(s.order)}
    for slot, nid in plan.entries:
        p = stream_pos[nid]
        if slot < split.n_good:
            assert p < good_pos[perm[slot].id]
        if slot > 0:
            assert p > good_pos[perm[slot - 1].id]


#: the largest perm seed whose trial and perm indices stay below perm_seed's
#: multiplier, under the largest master seed: about 2**104, so a Philox key
#: with a nonzero high word
LARGEST_PERM_SEED = perm_seed(trial_seed(2**64 - 1, 1_000_002), 1_000_002)
EXAMPLE_SPLIT = InstanceSplit(good=els(*range(4)), noise=els("n0", "n1"))
EXAMPLE_PLAN = InjectionPlan(((0, "n0"), (4, "n1")))


@given(split_and_plan(), st.lists(st.integers(0, 2**128 - 1), max_size=6))
@example((EXAMPLE_SPLIT, EXAMPLE_PLAN), [2**64 - 1, 2**64, LARGEST_PERM_SEED])
@example((EXAMPLE_SPLIT, EXAMPLE_PLAN), [])
@settings(max_examples=150, deadline=None)
def test_build_streams_equals_one_stream_per_seed(sp, seeds):
    """One reseeded generator, one plan check and one noise grouping give
    the streams of separate calls, and of the fully checked reference."""
    split, plan = sp
    streams = build_streams(split, plan, seeds)
    assert streams == [build_stream(split, plan, s) for s in seeds]
    assert streams == [
        realize_stream(split, plan, sample_permutation(split.good, s), seed=s) for s in seeds
    ]


def test_build_streams_checks_the_plan_and_the_good_set():
    split = InstanceSplit(good=els("a", "b"), noise=els("x"))
    with pytest.raises(PlanValidationError):
        build_streams(split, InjectionPlan(((3, "x"),)), [1, 2])
    with pytest.raises(InvalidInstanceError):
        build_streams(InstanceSplit(good=(), noise=els("x")), InjectionPlan(((0, "x"),)), [1])


@given(st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_permutation_bijection_property(n):
    good = els(*range(n))
    seen = {sample_permutation(good, s, rng_factory=MixedRadixRNG) for s in range(math.factorial(n))}
    assert len(seen) == math.factorial(n)
