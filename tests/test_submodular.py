"""Oracle values, brute-force optimum, and the axiom checker."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injectstream.errors import (
    InvariantError,
    PreconditionError,
    SizeLimitError,
)
from injectstream.submodular import (
    BRUTE_FORCE_GUARD,
    FLOAT_TOL,
    AdditiveOracle,
    CoverageInstance,
    CoverageOracle,
    GroundSet,
    SubmodularOracle,
    WeightedCoverageOracle,
    brute_force_opt,
    figure2_instance,
    verify_axioms,
)

from reference_submodular import ref_brute_force_opt
from reference_tree import marginal_from


class DictOracle(SubmodularOracle):
    """Arbitrary set function from a table; used to exercise violation paths."""

    def __init__(self, table):
        super().__init__()
        self.table = {frozenset(k): v for k, v in table.items()}

    def _eval(self, ids: frozenset):
        return self.table[ids]


@pytest.fixture
def fig2():
    instance, k = figure2_instance()
    return instance, k, CoverageOracle(instance)


def test_figure2_values(fig2):
    instance, k, oracle = fig2
    assert k == 2
    assert oracle.evaluate(frozenset()) == 0
    assert oracle.evaluate({"A"}) == 2
    assert oracle.evaluate({"B"}) == 4
    assert oracle.evaluate({"C"}) == 2
    assert oracle.evaluate({"D"}) == 1
    assert oracle.evaluate({"A", "B"}) == 5
    assert oracle.evaluate({"B", "C"}) == 5
    assert oracle.evaluate({"A", "B", "C", "D"}) == 6


def test_marginals_and_call_counter(fig2):
    _, _, oracle = fig2
    before = oracle.call_counter
    assert oracle.evaluate({"A", "B", "C"}) - oracle.evaluate({"A", "B"}) == 1
    assert oracle.call_counter == before + 2
    base = oracle.evaluate(frozenset({"A"}))
    assert marginal_from(oracle, "B", frozenset({"A"}), base) == 3
    assert oracle.call_counter == before + 4
    with pytest.raises(PreconditionError):
        marginal_from(oracle, "A", frozenset({"A"}), base)


def test_brute_force_opt_figure2(fig2):
    instance, k, oracle = fig2
    sol = brute_force_opt(oracle, instance.ground_set(), k)
    assert sol.value == 5
    # {A,B} and {B,C} tie at 5; lexicographic tie-break keeps {A,B}
    assert sol.elements == frozenset({"A", "B"})


def test_brute_force_opt_prefers_smaller_sets():
    inst = CoverageInstance({"X": frozenset({1, 2}), "Y": frozenset({1}), "Z": frozenset({2})})
    oracle = CoverageOracle(inst)
    sol = brute_force_opt(oracle, inst.ground_set(), 2)
    assert sol.value == 2
    assert sol.elements == frozenset({"X"})


def test_brute_force_opt_guard_and_edge_cases(fig2):
    instance, _, oracle = fig2
    empty = brute_force_opt(oracle, instance.ground_set(), 0)
    assert empty.elements == frozenset() and empty.value == 0
    big = CoverageInstance({i: frozenset({i}) for i in range(30)})
    with pytest.raises(SizeLimitError):
        brute_force_opt(CoverageOracle(big), big.ground_set(), 15)
    small = CoverageInstance({i: frozenset({i}) for i in range(3)})
    for bad in (1.5, 2.0, "2", None, True, False):
        counted = CoverageOracle(small)
        with pytest.raises(PreconditionError, match="k must be an int; got k="):
            brute_force_opt(counted, small.ground_set(), bad)
        assert counted.call_counter == 0


def test_ground_set_rejects_duplicates():
    with pytest.raises(InvariantError):
        GroundSet(("a", "a"))


def test_verify_axioms_passes_on_coverage(fig2):
    instance, _, oracle = fig2
    report = verify_axioms(oracle, instance.ground_set())
    assert report.ok and report.exhaustive


def test_verify_axioms_catches_violations():
    ground = GroundSet(("a", "b"))
    norm = DictOracle({(): 1, ("a",): 1, ("b",): 1, ("a", "b"): 1})
    assert verify_axioms(norm, ground).normalization_violation

    mono = DictOracle({(): 0, ("a",): 1, ("b",): 0, ("a", "b"): 0})
    rep = verify_axioms(mono, ground)
    assert rep.monotonicity_violations and not rep.ok

    # f(a)+f(b) < f(ab)+f(empty) is supermodular
    sup = DictOracle({(): 0, ("a",): 0, ("b",): 0, ("a", "b"): 1})
    rep = verify_axioms(sup, ground)
    assert rep.submodularity_violations and not rep.ok


def test_verify_axioms_sampled_mode():
    inst = CoverageInstance({i: frozenset({i, (i + 1) % 20}) for i in range(20)})
    report = verify_axioms(CoverageOracle(inst), inst.ground_set(), sample_pairs=300, seed=5)
    assert report.ok and not report.exhaustive


def test_weighted_coverage_exact_fractions():
    inst = CoverageInstance({"a": frozenset({1, 2}), "b": frozenset({2, 3})})
    w = {1: Fraction(1, 3), 2: Fraction(1, 7), 3: 2}
    oracle = WeightedCoverageOracle(inst, w)
    assert oracle.evaluate({"a"}) == Fraction(10, 21)
    assert oracle.evaluate({"a", "b"}) == Fraction(10, 21) + 2
    assert verify_axioms(oracle, inst.ground_set()).ok


def test_weighted_coverage_rejects_negative_weight():
    inst = CoverageInstance({"a": frozenset({1})})
    with pytest.raises(InvariantError):
        WeightedCoverageOracle(inst, {1: -0.5})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5, np.float32("inf")])
def test_oracles_reject_non_finite_or_negative_weights(bad):
    """NaN compares False with 0, so it needs its own check; an infinite
    weight would make every set through it worth the same inf."""
    inst = CoverageInstance({"a": frozenset({1, 2})})
    with pytest.raises(InvariantError, match="weight for point 2 must be finite"):
        WeightedCoverageOracle(inst, {1: 1.0, 2: bad})
    with pytest.raises(InvariantError, match="weight for element 1 must be finite"):
        AdditiveOracle({0: 1.0, 1: bad, 2: 2.0})


def test_oracles_accept_exact_weights_of_any_size():
    big = 10**400
    assert AdditiveOracle({0: big, 1: Fraction(big, 3)}).evaluate({0, 1}) == Fraction(4 * big, 3)
    inst = CoverageInstance({"a": frozenset({1, 2})})
    oracle = WeightedCoverageOracle(inst, {1: big, 2: Fraction(1, 3)})
    assert oracle.evaluate({"a"}) == big + Fraction(1, 3)


def test_additive_oracle():
    oracle = AdditiveOracle({"x": 2, "y": 3, "z": 5})
    assert oracle.evaluate({"x", "z"}) == 7
    assert verify_axioms(oracle, GroundSet(("x", "y", "z"))).ok


coverage_instances = st.dictionaries(
    st.integers(0, 5),
    st.frozensets(st.integers(0, 7), max_size=4),
    min_size=1,
    max_size=6,
).map(CoverageInstance)


@given(coverage_instances)
@settings(max_examples=80, deadline=None)
def test_random_coverage_satisfies_axioms(inst):
    oracle = CoverageOracle(inst)
    assert verify_axioms(oracle, inst.ground_set()).ok


@given(coverage_instances, st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_brute_force_dominates_greedy(inst, k):
    oracle = CoverageOracle(inst)
    ground = inst.ground_set()
    opt = brute_force_opt(oracle, ground, k)
    chosen: set = set()
    for _ in range(min(k, ground.n)):
        rest = [e for e in ground.members if e not in chosen]
        gains = {e: oracle.evaluate(chosen | {e}) - oracle.evaluate(chosen) for e in rest}
        best = max(sorted(rest, key=repr), key=lambda e: gains[e])
        chosen.add(best)
    assert opt.value >= oracle.evaluate(chosen)



@st.composite
def oracle_makers(draw, weight_kind):
    """(ground set, factory of fresh equal oracles) over up to 7 elements:
    coverage, weighted coverage or additive, with point sets drawn from a
    pool of at most 3 so that optima tie.  ``weight_kind`` is "int",
    "fraction" or "float"."""
    pool = draw(st.lists(st.frozensets(st.integers(0, 6), max_size=3), min_size=1, max_size=3))
    rects = draw(st.lists(st.sampled_from(pool), max_size=7))
    inst = CoverageInstance({f"e{i}": pts for i, pts in enumerate(rects)})
    weight = {
        "int": st.integers(0, 3),
        "fraction": st.fractions(0, 2, max_denominator=3),
        "float": st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 1e-3]),
    }[weight_kind]
    kind = draw(st.sampled_from(["coverage", "weighted", "additive"]))
    if kind == "coverage":
        return inst.ground_set(), lambda: CoverageOracle(inst)
    if kind == "weighted":
        w = {p: draw(weight) for p in range(7)}
        return inst.ground_set(), lambda: WeightedCoverageOracle(inst, w)
    w = {e: draw(weight) for e in inst.rect_of}
    return inst.ground_set(), lambda: AdditiveOracle(w)


def assert_matches_scan(ground, make, k, exact=True):
    oracle, ref_oracle = make(), make()
    got = brute_force_opt(oracle, ground, k)
    want = ref_brute_force_opt(ref_oracle, ground, k)
    assert oracle.call_counter == ref_oracle.call_counter
    assert type(got.value) is type(want.value)
    if exact:
        assert got == want
    else:
        assert abs(got.value - want.value) <= FLOAT_TOL


@given(st.sampled_from(["int", "fraction"]).flatmap(oracle_makers))
@settings(max_examples=150, deadline=None)
def test_brute_force_opt_matches_the_scan(ground_and_make):
    """The level-wise optimum equals the one-evaluate-per-subset scan: same
    set, value and value type (ties included) and the same call count, for
    every k from 0 to n + 1."""
    ground, make = ground_and_make
    for k in range(ground.n + 2):
        assert_matches_scan(ground, make, k)


@given(oracle_makers("float"))
@settings(max_examples=60, deadline=None)
def test_brute_force_opt_matches_the_scan_on_float_weights(ground_and_make):
    """Frozensets built in another order may sum floats in another order,
    so float values agree within FLOAT_TOL; the call count is exact."""
    ground, make = ground_and_make
    for k in range(ground.n + 2):
        assert_matches_scan(ground, make, k, exact=False)


def test_brute_force_opt_matches_the_scan_near_the_guard():
    """n=16, k=8: C(16, 8) = 12870 rows in the last level, 39203 calls."""
    rects = {i: frozenset(range(i % 5, i % 5 + 1 + i % 3)) | {10 + i % 4} for i in range(16)}
    inst = CoverageInstance(rects)
    assert_matches_scan(inst.ground_set(), lambda: CoverageOracle(inst), 8)
    weights = {i: Fraction(1 + i % 3, 1 + i % 2) for i in range(16)}
    assert_matches_scan(inst.ground_set(), lambda: AdditiveOracle(weights), 8)


def wide_instance(words: int) -> CoverageInstance:
    """16 point sets over 64 * words points; sets i and i + 8 are equal."""
    b = 8 * words
    return CoverageInstance(
        {i: frozenset(range(i % 8 * b, min(64 * words, (i % 8) * b + b * (2 + i % 3) // 2)))
         for i in range(16)}
    )


@pytest.mark.parametrize("points, words",
                         [(10, 1), (64, 1), (100, 2), (256, 4), (257, 5), (8187, 128)])
def test_coverage_extend_states_matches_eval(points, words):
    """Batched extensions, whole-row and word-by-word, give the covered
    count of S + e for every row, and states that extend correctly again;
    universes that are not a multiple of 64 points leave the top word part
    empty.  Zero rows give empty results of the batch layout."""
    rng = np.random.default_rng(points)
    rects = {i: frozenset(rng.choice(points, size=1 + i * points // 10, replace=False).tolist())
             for i in range(5)}
    inst = CoverageInstance({**rects, 5: frozenset(range(points))})
    oracle = CoverageOracle(inst)
    assert oracle.words == words
    subsets = [frozenset(), frozenset({0}), frozenset({2, 5}), frozenset({1, 3, 4}),
               frozenset(range(6))]
    states, values = oracle.empty_states(len(subsets))
    for e in range(6):
        rows = [i for i, sub in enumerate(subsets) if e in sub]
        states[rows], values[rows] = oracle.extend_states(states[rows], values[rows], e)
    assert values.tolist() == [oracle._eval(sub) for sub in subsets]
    for e in range(6):
        calls = oracle.call_counter
        covered, counts = oracle.extend_states(states, values, e)
        assert oracle.call_counter == calls + len(subsets)
        assert covered.shape == states.shape and counts.dtype.kind in "iu"
        assert counts.tolist() == [oracle._eval(sub | {e}) for sub in subsets]
        again = oracle.extend_states(covered, counts, (e + 1) % 6)[1]
        assert again.tolist() == [oracle._eval(sub | {e, (e + 1) % 6}) for sub in subsets]
    states, values = oracle.empty_states(0)
    covered, counts = oracle.extend_states(states, values, 0)
    assert covered.shape == (0, words) and counts.shape == (0,)


def test_brute_force_opt_matches_the_scan_on_wide_rows():
    """128-word rows: C(16, 7) rows of 1032 bytes exceed the 8 MB a level
    pass may hold at k=8, so the search splits on the least member; the
    answer, ties included, and the call count still match the scan."""
    inst = wide_instance(128)
    assert CoverageOracle(inst).words == 128
    for k in (3, 8):
        assert_matches_scan(inst.ground_set(), lambda: CoverageOracle(inst), k)
    # set 15 covers every point: a singleton, offered where the search splits, wins
    full = CoverageInstance({**inst.rect_of, 15: frozenset(range(64 * 128))})
    assert_matches_scan(full.ground_set(), lambda: CoverageOracle(full), 8)


def test_brute_force_opt_memory_does_not_grow_with_row_width():
    """512-word rows, n=16, k=8: holding C(16, 7) rows of the last kept
    level alone would take 47 MB; the search stays under twice the 8 MB a
    level pass may hold."""
    inst = wide_instance(512)
    oracle = CoverageOracle(inst)
    tracemalloc.start()
    try:
        sol = brute_force_opt(oracle, inst.ground_set(), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * BRUTE_FORCE_GUARD
    assert oracle.call_counter == sum(math.comb(16, j) for j in range(9))
    assert sol.value == 64 * 512


class NaNOracle(SubmodularOracle):
    """f = |S|, except that sets holding "nan" are worth NaN."""

    exact = False

    def _eval(self, ids: frozenset):
        return math.nan if "nan" in ids else float(len(ids))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_brute_force_opt_never_picks_nan(k):
    ground = GroundSet(("a", "nan", "z"))
    assert_matches_scan(ground, NaNOracle, k)
    sol = brute_force_opt(NaNOracle(), ground, k)
    assert "nan" not in sol.elements and sol.value == min(k, 2)
