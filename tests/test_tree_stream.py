"""Prefix-tree streaming: structure, bucketing, guessing, leaf traces."""

import math
import re
import runpy
import tempfile
from itertools import zip_longest
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injectstream import geomgrid
from injectstream.errors import InvalidInstanceError, PreconditionError
from injectstream.matching import EPS
from injectstream.stream_model import (
    Element,
    InjectionPlan,
    InstanceSplit,
    build_stream,
    enumerate_streams,
)
from injectstream.submodular import (
    AdditiveOracle,
    CoverageInstance,
    CoverageOracle,
    WeightedCoverageOracle,
    brute_force_opt,
    figure2_instance,
)
from injectstream.tree_stream import (
    ExactKeys,
    GuessBuckets,
    GuessManager,
    IncreaseBuckets,
    PrefixTree,
    RunStats,
    best_solution,
    delta_fraction,
    guess_run,
    live_guess_bound,
    node_count_bound,
    run_tree_stream,
    run_tree_streams,
    tree_process,
)

from reference_tree import analysis_leaf_trace


def stream_of(*ids):
    return [Element(i) for i in ids]


@pytest.fixture
def fig2_oracle():
    instance, k = figure2_instance()
    return CoverageOracle(instance), k


# ---------------------------------------------------------------- structure


def test_figure2_full_tree(fig2_oracle):
    """The worked four-rectangle example, node by node."""
    oracle, k = fig2_oracle
    tree = PrefixTree(k, oracle)
    for e in stream_of("A", "B", "C", "D"):
        tree_process(tree, e)

    root = tree.root
    gains = {eid: child.gain for eid, child in (
        (c.element.id, c) for c in root.children.values()
    )}
    assert gains == {"A": 2, "B": 4, "D": 1}

    node_a = next(c for c in root.children.values() if c.element.id == "A")
    gains_a = {c.element.id: c.gain for c in node_a.children.values()}
    assert gains_a == {"B": 3, "C": 2, "D": 1}

    node_b = next(c for c in root.children.values() if c.element.id == "B")
    gains_b = {c.element.id: c.gain for c in node_b.children.values()}
    assert gains_b == {"C": 1}

    node_d = next(c for c in root.children.values() if c.element.id == "D")
    assert node_d.children == {}

    assert tree.size == 8
    best = best_solution(tree)
    assert best.value == 5
    # {B,C} also scores 5 but {A,B} was created earlier
    assert best.elements == frozenset({"A", "B"})


def test_snapshot_no_same_element_chains(fig2_oracle):
    """A child created for e is never extended by the same arrival of e."""
    oracle, _ = fig2_oracle
    tree = PrefixTree(2, oracle)
    tree_process(tree, Element("A"))
    assert [c.element.id for c in tree.root.children.values()] == ["A"]
    a = next(iter(tree.root.children.values()))
    assert a.children == {}


@pytest.mark.parametrize("trees, elements", [(1, ["A", "B"]), (3, ["A", "B"]), (2, [])])
def test_tree_process_rejects_a_sequence_not_one_per_tree(fig2_oracle, trees, elements):
    """A per-tree sequence longer than the forest would drop its extra
    elements, and a shorter one would index past its end: both are rejected
    before any tree changes."""
    oracle, _ = fig2_oracle
    tree = PrefixTree(2, oracle, trees=trees)
    with pytest.raises(PreconditionError, match=f"got {len(elements)} elements for {trees} trees"):
        tree_process(tree, [Element(i) for i in elements])
    assert tree.size == trees and oracle.call_counter == 0


def test_tree_process_returns_each_trees_calls(fig2_oracle):
    """A pass returns, per tree, the oracle calls it made: in sum what the
    forest's oracle counted, and per tree what a one-tree forest on that
    tree's stream counts.  A tree whose stream has ended makes none, and so
    does a pass with every stream ended, or any pass at k = 0."""
    oracle, k = fig2_oracle
    instance, _ = figure2_instance()
    streams = [stream_of("A", "B", "C", "D"), stream_of("B", "A"), stream_of("D", "C", "C", "A")]
    forest = PrefixTree(k, oracle, trees=len(streams))
    twins = PrefixTree(k, CoverageOracle(instance), trees=2)  # both read one Element
    alone = [PrefixTree(k, CoverageOracle(instance)) for _ in streams]
    for elements in zip_longest(*streams):
        before, twins_before = oracle.call_counter, twins.oracle.call_counter
        calls, twin_calls = tree_process(forest, list(elements)), tree_process(twins, elements[0])
        assert calls.dtype == twin_calls.dtype == np.int64
        assert calls.sum() == oracle.call_counter - before
        assert twin_calls.sum() == twins.oracle.call_counter - twins_before
        own = []
        for tree, e in zip(alone, elements):
            own_before = tree.oracle.call_counter
            if e is not None:
                tree_process(tree, e)
            own.append(tree.oracle.call_counter - own_before)
        assert calls.tolist() == own and twin_calls.tolist() == [own[0]] * 2
    assert elements[1] is None and calls[1] == 0 < calls[0]  # the ended stream's tree
    before = oracle.call_counter
    assert tree_process(forest, [None] * len(streams)).tolist() == [0] * len(streams)
    flat = PrefixTree(0, oracle)
    assert tree_process(flat, Element("A")).tolist() == [0]
    assert oracle.call_counter == before


def test_duplicate_arrival_skipped_on_own_path(fig2_oracle):
    oracle, _ = fig2_oracle
    tree = PrefixTree(2, oracle)
    for e in stream_of("A", "B", "A"):
        tree_process(tree, e)
    node_a = next(c for c in tree.root.children.values() if c.element.id == "A")
    assert all(c.element.id != "A" for c in node_a.children.values())
    # but A still extends B's branch, where it is not on the path
    node_b = next(c for c in tree.root.children.values() if c.element.id == "B")
    assert any(c.element.id == "A" for c in node_b.children.values())


def test_depth_never_exceeds_k(fig2_oracle):
    oracle, _ = fig2_oracle
    tree = PrefixTree(1, oracle)
    for e in stream_of("A", "B", "C", "D"):
        tree_process(tree, e)
    assert all(n.depth <= 1 for n in tree.nodes)


def test_node_values_match_oracle(fig2_oracle):
    oracle, k = fig2_oracle
    tree = PrefixTree(k, oracle)
    for e in stream_of("A", "B", "C", "D"):
        tree_process(tree, e)
    for n in tree.nodes:
        assert n.value == oracle.evaluate(n.path_ids)
        assert len(n.path_ids) == n.depth


def test_empty_stream_best_is_empty(fig2_oracle):
    oracle, k = fig2_oracle
    tree = PrefixTree(k, oracle)
    sol = best_solution(tree)
    assert sol.elements == frozenset() and sol.value == 0


# ---------------------------------------------------------------- bucketing


def test_bucket_widths_exact():
    b = IncreaseBuckets(g=8, k=4, delta="0.1")
    assert b.bucket_count == 40
    assert b.width == Fraction(1, 5)
    assert b.key(1) == 5
    assert b.key(Fraction(1, 5)) == 1
    # gains at or above g land in the clamp bucket
    assert b.key(8) == 40
    assert b.key(100) == 40


def test_bucket_guards():
    with pytest.raises(PreconditionError):
        IncreaseBuckets(g=1, k=2, delta="0")
    with pytest.raises(PreconditionError):
        IncreaseBuckets(g=1, k=2, delta="1.5")
    with pytest.raises(PreconditionError, match="positive guess g"):
        IncreaseBuckets(g=0, k=2, delta="0.5")
    IncreaseBuckets(g=1, k=2, delta="1")  # delta = 1 is legal


def bucket_edge_gains(b: IncreaseBuckets) -> list:
    """Gains at, just below and just above every bucket edge j * width."""
    out = []
    for j in range(b.bucket_count + 2):
        edge = j * b.width
        out += [edge, math.floor(edge), math.ceil(edge), math.ceil(edge) - 1]
    return out


def edge_gain_arrays(b: IncreaseBuckets, extra: list) -> list:
    """int64, object (int and Fraction) and float64 gains on b's bucket edges."""
    edges = bucket_edge_gains(b)
    ints = [math.floor(x) for x in edges] + extra + [0, -3, 10**6, 2**62]
    return [
        np.array(ints, dtype=np.int64),
        np.array([Fraction(x) for x in edges] + extra, dtype=object),
        np.array([float(x) for x in edges] + extra + [-0.5, 1e12], dtype=np.float64),
    ]


@given(
    st.one_of(st.integers(1, 500),
              st.fractions(min_value=Fraction(1, 7), max_value=500, max_denominator=10**6),
              st.floats(min_value=0.01, max_value=500)),
    st.integers(1, 6),
    st.sampled_from(["0.05", "0.1", "0.3", "1", 0.2]),
    st.lists(st.integers(-5, 700), max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_bucket_keys_match_scalar_key(g, k, delta, extra):
    """The vectorized keys() is key() elementwise for int, Fraction and float
    widths, on gains <= 0, on the bucket edges and above the clamp bucket.
    So are a guess forest's row-wise keys: three trees with guesses
    (1+delta)**j around g, each row against the IncreaseBuckets of its tree's
    guess, on that guess's edges, for int64, object and float64 gains."""
    b = IncreaseBuckets(g, k, delta)
    for gains in edge_gain_arrays(b, extra):
        keys = b.keys(gains)
        assert keys.dtype == np.int64
        assert keys.tolist() == [b.key(x) for x in gains.tolist()]
        for x in gains.tolist():  # the one-line definition of a bucket, for every gain type
            assert b.key(x) == (0 if x <= 0 else min(int(x // b.width), b.bucket_count))
    assert b.key(0) == b.key(-1) == 0
    assert b.key(10**6 * b.width) == b.bucket_count  # clamp bucket

    base = 1.0 + float(delta_fraction(delta))
    j = geomgrid.snap_floor_log(base, float(g))
    window = range(j - 1, j + 2)
    guesses = GuessBuckets(k, delta)
    guesses.use(window)
    per_tree = [IncreaseBuckets(base**i, k, delta) for i in window]
    for arrays in zip(*(edge_gain_arrays(t, extra) for t in per_tree)):
        gains = np.concatenate(arrays[::-1])  # the rows of the last tree first
        trees = np.repeat(np.arange(len(window))[::-1], [len(a) for a in arrays[::-1]])
        keys = guesses.keys(gains, trees)
        assert keys.dtype == np.int64
        assert keys.tolist() == [per_tree[t].key(x) for x, t in zip(gains.tolist(), trees.tolist())]


def test_float_gain_on_a_rational_bucket_edge_keys_by_float_division():
    """A float gain keys by float floor division even when the width is
    rational: with width 1/10, 0.3 // 0.1 is 2.0, though 0.3 * 10 is 3.0."""
    b = IncreaseBuckets(1, 10, 1)
    assert b.width == Fraction(1, 10)
    assert b.key(0.3) == 2 and b.keys(np.array([0.3])).tolist() == [2]
    assert b.key(Fraction(3, 10)) == 3 and b.key(3 * b.width) == 3


@pytest.mark.parametrize("g", [Fraction(2**70, 3), Fraction(1, 3**40)])
def test_bucket_keys_match_scalar_key_beyond_int64(g):
    """Widths whose numerator or denominator do not fit int64 still key
    int64 gains exactly as key() does."""
    b = IncreaseBuckets(g, 4, "0.1")
    gains = np.array([-(2**63), -1, 0, 1, 7, 2**62, 2**63 - 1], dtype=np.int64)
    assert b.keys(gains).tolist() == [b.key(x) for x in gains.tolist()]


@pytest.mark.parametrize("use", ["key", "keys", "guess_run"])
def test_float_guess_whose_bucket_width_underflows_is_rejected(use):
    """delta*g/k rounding to 0 for a guess near the float minimum raises a
    PreconditionError naming g and the width, instead of key dividing by
    zero and keys returning INT64_MIN or clamped keys."""
    with pytest.raises(PreconditionError, match=r"guess g=\S+ gives bucket width .* = 0\.0"):
        if use == "key":
            IncreaseBuckets(5e-324, 4, 0.1).key(1e-300)
        elif use == "keys":
            IncreaseBuckets(5e-324, 4, 0.1).keys(np.array([0.0, 1e-300]))
        else:
            oracle = AdditiveOracle({0: 5e-324, 1: 1e-323})
            guess_run([Element(0), Element(1)], 4, 0.1, oracle)


def test_exact_keys_intern_like_a_dict():
    """Gains are interned with the ids one dict lookup per gain gives: each
    NaN gets its own id, -0.0 and 0.0 share one, new values take ids in
    order of first appearance, and ids carry over from pass to pass."""
    nan = math.nan
    passes = [
        np.array([1.5, nan, -0.0, 2.0, nan, 0.0, 1.5, nan, -0.0]),
        np.array([0.0, nan, 2.0, 3.0, -0.0]),
        np.array([], dtype=np.float64),
        np.array([7, 3, 7, 2], dtype=np.int64),
        np.array([Fraction(7), Fraction(1, 3), 2.0], dtype=object),
    ]
    keyer, ids = ExactKeys(), {}
    for gains in passes:
        expected = [ids.setdefault(g, len(ids)) for g in gains.tolist()]
        assert keyer.keys(gains).tolist() == expected
        assert keyer.key_count == len(ids)
    assert ExactKeys().keys(passes[0]).tolist() == [0, 1, 2, 3, 4, 2, 0, 5, 2]


@pytest.mark.parametrize("top", [1e308, math.inf, 10**400])
def test_guess_whose_window_top_overflows_is_rejected(top):
    """A singleton x whose window top (k/delta)*x is not a finite float
    raises a PreconditionError naming x, not a bare OverflowError.  Weights
    must be finite, so x = inf is the overflowing sum of two finite ones."""
    if top == math.inf:
        inst = CoverageInstance({0: frozenset({"a", "b"}), 1: frozenset({"c"})})
        oracle = WeightedCoverageOracle(inst, {"a": 1e308, "b": 1e308, "c": 1.0})
    else:
        oracle = AdditiveOracle({0: top, 1: 1.0})
    with pytest.raises(PreconditionError, match=re.escape(f"x={top!r}")):
        guess_run([Element(0), Element(1)], 4, 0.1, oracle)


def test_node_count_bound_values():
    assert node_count_bound(1, "1") == 4  # 1 + 3
    assert node_count_bound(3, "0.2") == 5220
    assert node_count_bound(2, "0.5") == 1 + 6 + 36
    # independent of any stream parameter by construction
    assert node_count_bound(3, 0.2) == 5220


def test_bucketed_tree_within_bound(fig2_oracle):
    oracle, k = fig2_oracle
    stats = RunStats()
    run_tree_stream(stream_of("A", "B", "C", "D"), k, "0.5", oracle,
                    mode="bucketed", g=5, stats=stats)
    assert 0 < stats.nodes_live_max <= node_count_bound(k, "0.5")
    assert stats.oracle_calls > 0


def test_run_tree_stream_modes(fig2_oracle):
    oracle, k = fig2_oracle
    s = stream_of("A", "B", "C", "D")
    exact = run_tree_stream(s, k, "0.1", oracle, mode="exact")
    assert exact.value == 5
    bucketed = run_tree_stream(s, k, "0.1", oracle, mode="bucketed", g=5)
    assert bucketed.value >= 4  # (1/2 - delta) * OPT floor is 2; realized run does better
    with pytest.raises(PreconditionError):
        run_tree_stream(s, k, "0.1", oracle, mode="bucketed")  # g missing
    with pytest.raises(PreconditionError):
        run_tree_stream(s, k, "0.1", oracle, mode="nope")


# ---------------------------------------------------------------- guessing


def test_live_guess_bound_value():
    # floor(log_{1.1}(4 * 1.1 / 0.1)) + 1 = floor(39.69...) + 1 = 40
    assert live_guess_bound(4, 0.1) == 40
    assert live_guess_bound(3, 0.2) == 16


@pytest.mark.parametrize("delta", [0.05, 0.1, 0.2, 0.5, 0.9])
def test_live_guess_bound_reads_delta_as_guess_run_does(fig2_oracle, delta):
    """A float delta, its str and its Fraction give one cap, and a run given
    the str stays within it."""
    for k in range(1, 7):
        bound = live_guess_bound(k, delta)
        assert live_guess_bound(k, str(delta)) == live_guess_bound(k, Fraction(str(delta))) == bound
    oracle, k = fig2_oracle
    stats = RunStats()
    guess_run(stream_of("A", "B", "C", "D"), k, str(delta), oracle, stats=stats)
    assert 0 < stats.guesses_live_max <= live_guess_bound(k, str(delta))


@pytest.mark.parametrize("x, base, coef, size", [(2.0, 2.0, 4.0, 4), (1.0, 1.1, 1.0, 2)])
def test_live_guess_bound_counts_both_ends_on_the_grid(x, base, coef, size):
    """When coef*base is a power of base and x/base sits on the grid, both
    window ends are grid powers and the window reaches the bound."""
    window = geomgrid.window(x, base, coef)
    assert len(window) == size == geomgrid.live_guess_bound(base, coef)


def test_guess_window_hits_bound_exactly():
    """A singleton of value 1 makes the window [1/(1+d), k/d] with 40 guesses."""
    mgr = GuessManager(4, 0.1, AdditiveOracle({0: 1}))  # object rows: one tree per guess
    mgr.observe(1)
    assert len(mgr.window) == mgr.forest.trees == live_guess_bound(4, 0.1)
    base = 1.1
    assert mgr.window[0] == -1  # (1.1)^-1 is the smallest power >= 1/1.1
    assert base ** mgr.window[-1] <= 40.0 + 1e-9


def test_guess_manager_dismisses_low_guesses():
    mgr = GuessManager(2, 0.5, AdditiveOracle({0: 1}))
    mgr.observe(1)
    low = mgr.window[0]
    mgr.observe(1000)
    assert low not in mgr.window
    assert len(mgr.window) == mgr.forest.trees <= live_guess_bound(2, 0.5)


@given(
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=1e-300, max_value=1e300),
    st.sampled_from([0.05, 0.1, 0.2, 0.5, 0.9]),
    st.integers(0, 16),
)
@settings(max_examples=300, deadline=None)
def test_guess_window_moves_up_and_holds_its_powers(x, y, delta, k):
    """For x <= y the window's start and stop never decrease; every j in it
    has x/base <= base**j <= coef*x up to the snaps' 1e-12 slack; and it holds
    at most live_guess_bound(base, coef) exponents.  coef is a tree's k/delta,
    or matching's 4/(1 - 2 EPS) for k = 0."""
    x, y = min(x, y), max(x, y)
    base = 1.0 + delta
    coef = k / delta if k else 4.0 / float(1 - 2 * EPS)
    low, high = geomgrid.window(x, base, coef), geomgrid.window(y, base, coef)
    assert low.start <= high.start and low.stop <= high.stop
    for j in low:
        assert x / base * (1 - 1e-12) <= base**j <= coef * x * (1 + 1e-12)
    assert len(low) <= geomgrid.live_guess_bound(base, coef)


def test_guess_run_matches_exact_on_figure2(fig2_oracle):
    oracle, k = fig2_oracle
    stats = RunStats()
    sol = guess_run(stream_of("A", "B", "C", "D"), k, 0.1, oracle, stats=stats)
    assert sol.value >= 4
    assert 0 < stats.guesses_live_max <= live_guess_bound(k, 0.1)


def test_guess_manager_rejects_bad_delta():
    with pytest.raises(PreconditionError):
        GuessManager(2, 0.0, AdditiveOracle({0: 1}))
    with pytest.raises(PreconditionError):
        GuessManager(2, 1.0, AdditiveOracle({0: 1}))


def test_guess_run_rejects_k_zero_before_the_window():
    """k = 0 would put the window top (k/delta)*m at 0, whose log is undefined."""
    with pytest.raises(PreconditionError, match="k=0"):
        guess_run([Element(0)], 0, 0.1, AdditiveOracle({0: 1.0}))


def recording_stream(ids, oracle, seen):
    """Yield Element(i) for each id, noting the oracle counter at each yield."""
    for i in ids:
        seen.append(oracle.call_counter)
        yield Element(i)


@pytest.mark.parametrize("run", ["exact", "bucketed", "guess"])
def test_runs_consume_the_stream_one_element_at_a_time(fig2_oracle, run):
    """Every element is processed before the next one is requested: no run
    buffers its input stream."""
    oracle, k = fig2_oracle
    seen = []
    stream = recording_stream(["A", "B", "C", "D", "B"], oracle, seen)
    if run == "guess":
        guess_run(stream, k, 0.1, oracle)
    else:
        run_tree_stream(stream, k, "0.5", oracle, mode=run, g=5)
    assert len(seen) == 5
    assert all(a < b for a, b in zip(seen, seen[1:]))


def test_forest_consumes_each_stream_one_element_at_a_time(fig2_oracle):
    """With P > 1 streams of unequal length, each stream yields element i+1
    only after position i has been processed: no stream is buffered."""
    oracle, k = fig2_oracle
    ids = (["A", "B", "C", "D", "B"], ["D", "C"], ["B", "A", "D"])
    seen = [[] for _ in ids]
    streams = [recording_stream(i, oracle, s) for i, s in zip(ids, seen)]
    results = run_tree_streams(streams, k, "0.5", oracle, mode="exact")
    assert len(results) == 3
    for s, i in zip(seen, ids):
        assert len(s) == len(i)
        assert all(a < b for a, b in zip(s, s[1:]))


#: demo script -> lines its output must hold
DEMO_LINES = {
    "01_adversarial_streams": ["enumerated 24 permutations; noise prefix is invariant:"],
    "02_prefix_tree": ["best node: ['A', 'B'] value 5", "live nodes max 8 <= 43"],
    "03_recurrence_certificate": ["certified >= 0.5506: True",
                                  "first-term dominance for k >= 1000: ok=True"],
    "04_matching_two_branch": ["certified case-1 floor: 28.40"],
    # the fingerprint does not depend on the temporary output directory
    "05_full_experiment": ["submod: fingerprint 76e2054b8b5e, exit 0",
                           "replay byte-identical: True"],
}


@pytest.mark.parametrize("name", DEMO_LINES)
def test_prefix_tree_demo_runs(capsys, monkeypatch, tmp_path, name):
    """Every demo runs; demo 05's temporary directory lands in tmp_path and is removed."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    demo = Path(__file__).resolve().parents[1] / "demos" / f"{name}.py"
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    for line in DEMO_LINES[name]:
        assert line in out
    assert not list(tmp_path.glob("injectstream_demo_*"))  # demo 05 cleans up


# ---------------------------------------------------------------- leaf trace


def disjoint_blocks_instance():
    """Three 27-point blocks; noise overlaps every block so marginals tie.

    With all noise injected at slot 0, the interval greedy picks n1, n2, n3
    for every permutation and lands exactly on (1 - (1 - 1/k)^k) * OPT:
    57 = 81 * (1 - (2/3)^3).
    """
    rects = {}
    universe = list(range(81))
    blocks = [universe[27 * b: 27 * (b + 1)] for b in range(3)]
    for b in range(3):
        rects[f"g{b}"] = frozenset(blocks[b])
    rects["n1"] = frozenset(p for blk in blocks for p in blk[:9])
    rects["n2"] = frozenset(p for blk in blocks for p in blk[9:15])
    rects["n3"] = frozenset(p for blk in blocks for p in blk[15:19])
    inst = CoverageInstance(rects)
    split = InstanceSplit(
        good=tuple(Element(f"g{b}") for b in range(3)),
        noise=(Element("n1"), Element("n2"), Element("n3")),
    )
    plan = InjectionPlan(((0, "n1"), (0, "n2"), (0, "n3")))
    return inst, split, plan


def test_disjoint_case_trace_is_tight_for_every_permutation():
    inst, split, plan = disjoint_blocks_instance()
    oracle = CoverageOracle(inst)
    opt = brute_force_opt(oracle, inst.ground_set(), 3)
    assert opt.value == 81 and opt.elements == frozenset({"g0", "g1", "g2"})
    for s in enumerate_streams(split, plan):
        trace = analysis_leaf_trace(s, {"g0", "g1", "g2"}, oracle, 3)
        assert [e.id for e in trace.elements] == ["n1", "n2", "n3"]
        assert trace.final_value == 57  # 81 * (1 - (2/3)^3), the disjoint-case floor
        # and the tree, holding every greedy path, can only do better
        tree_best = run_tree_stream(s, 3, "0.1", oracle, mode="exact")
        assert tree_best.value >= trace.final_value


def test_trace_path_exists_in_exact_tree(fig2_oracle):
    oracle, k = fig2_oracle
    split = InstanceSplit(
        good=(Element("A"), Element("B")),
        noise=(Element("C"), Element("D")),
    )
    plan = InjectionPlan(((0, "C"), (1, "D")))
    for s in enumerate_streams(split, plan):
        trace = analysis_leaf_trace(s, {"A", "B"}, oracle, k)
        tree = PrefixTree(k, oracle)
        for e in s:
            tree_process(tree, e)
        node = tree.root
        for e in trace.elements:
            node = next(c for c in node.children.values() if c.element.id == e.id)
        assert node.value == trace.final_value


def test_trace_prefix_values_monotone(fig2_oracle):
    oracle, k = fig2_oracle
    split = InstanceSplit(good=(Element("A"), Element("B")),
                          noise=(Element("C"),))
    s = build_stream(split, InjectionPlan(((0, "C"),)), seed=1)
    trace = analysis_leaf_trace(s, {"A", "B"}, oracle, k)
    assert trace.prefix_values[0] == 0
    assert list(trace.prefix_values) == sorted(trace.prefix_values)
    assert list(trace.positions) == sorted(trace.positions)


def test_trace_requires_opt_in_stream(fig2_oracle):
    oracle, _ = fig2_oracle
    split = InstanceSplit(good=(Element("A"),))
    s = build_stream(split, InjectionPlan(), seed=0)
    with pytest.raises(InvalidInstanceError):
        analysis_leaf_trace(s, {"A", "B"}, oracle, 2)


# ------------------------------------------------------- randomized properties


coverage_instances = st.dictionaries(
    st.integers(0, 7),
    st.frozensets(st.integers(0, 9), min_size=0, max_size=4),
    min_size=2,
    max_size=8,
).map(CoverageInstance)


@given(coverage_instances, st.integers(1, 3), st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_bucketed_paths_are_exact_paths(inst, k, seed):
    """Coarser keys only dedup harder: the bucketed node set is a subset of
    the exact node set on the same stream, so exact best >= bucketed best."""
    oracle = CoverageOracle(inst)
    members = sorted(inst.rect_of, key=repr)
    split = InstanceSplit(good=tuple(Element(m) for m in members))
    s = build_stream(split, InjectionPlan(), seed)
    opt = brute_force_opt(oracle, inst.ground_set(), k)
    if opt.value == 0:
        return
    exact_tree = PrefixTree(k, oracle, ExactKeys())
    bucket_tree = PrefixTree(k, oracle, IncreaseBuckets(opt.value, k, "0.25"))
    exact_paths = {frozenset()}
    for e in s:
        tree_process(exact_tree, e)
        tree_process(bucket_tree, e)
    exact_paths = {n.path_ids for n in exact_tree.nodes}
    assert {n.path_ids for n in bucket_tree.nodes} <= exact_paths
    assert best_solution(exact_tree).value >= best_solution(bucket_tree).value


@given(coverage_instances, st.integers(1, 3), st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_exact_run_finds_at_least_half_opt(inst, k, seed):
    oracle = CoverageOracle(inst)
    members = sorted(inst.rect_of, key=repr)
    split = InstanceSplit(good=tuple(Element(m) for m in members))
    s = build_stream(split, InjectionPlan(), seed)
    opt = brute_force_opt(oracle, inst.ground_set(), k)
    best = run_tree_stream(s, k, "0.1", oracle, mode="exact")
    assert 2 * best.value >= opt.value


@given(coverage_instances, st.integers(1, 3), st.integers(0, 200))
@settings(max_examples=30, deadline=None)
def test_guess_bound_respected_everywhere(inst, k, seed):
    oracle = CoverageOracle(inst)
    members = sorted(inst.rect_of, key=repr)
    split = InstanceSplit(good=tuple(Element(m) for m in members))
    s = build_stream(split, InjectionPlan(), seed)
    stats = RunStats()
    guess_run(s, k, 0.2, oracle, stats=stats)
    assert stats.guesses_live_max <= live_guess_bound(k, 0.2)
