"""The array-backed prefix tree against the object reference in reference_tree.py."""

import tracemalloc
from bisect import bisect_left
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injectstream import generators, stream_model, submodular
from injectstream.stream_model import Element
from injectstream.submodular import (
    AdditiveOracle,
    CoverageInstance,
    CoverageOracle,
    WeightedCoverageOracle,
)
from injectstream.tree_stream import (
    ExactKeys,
    GuessBuckets,
    GuessManager,
    IncreaseBuckets,
    PrefixTree,
    RunStats,
    best_solution,
    best_solutions,
    guess_run,
    run_tree_stream,
    run_tree_streams,
    tree_process,
)
from reference_tree import ref_guess_run, ref_run

ORACLE_KINDS = (
    "coverage", "weighted-int", "weighted-fraction", "weighted-float",
    "additive-int", "additive-fraction", "additive-float",
)
WEIGHTS = {
    "int": st.integers(0, 9),
    "fraction": st.fractions(min_value=0, max_value=5, max_denominator=6),
    # decimal tenths make sums and bucket edges round in the last bits; no
    # weights near the float minimum, where the guess grid's widths underflow
    "float": st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7]), st.floats(1e-3, 5)),
}


@st.composite
def oracle_and_stream(draw, count=None, kinds=ORACLE_KINDS):
    """(oracle factory, stream), or with ``count`` (oracle factory, that
    many streams of independent lengths), for an oracle of one of
    ``kinds``; streams may repeat element ids, and each arrival carries its
    stream position as payload, paired with its stream's index when there
    are several."""
    kind = draw(st.sampled_from(kinds))
    members = draw(st.lists(st.integers(0, 6), min_size=1, max_size=7, unique=True))
    weight = WEIGHTS[kind.partition("-")[2] or "int"]
    if kind.startswith("additive"):
        weights = {m: draw(weight) for m in members}

        def make():
            return AdditiveOracle(weights)
    else:
        points = draw(st.sampled_from([10, 150]))  # one and three mask words
        point = st.integers(0, points - 1)
        inst = CoverageInstance({m: draw(st.frozensets(point, max_size=6)) for m in members})
        if kind == "coverage":
            def make():
                return CoverageOracle(inst)
        else:
            weights = {p: draw(weight) for p in inst.universe}

            def make():
                return WeightedCoverageOracle(inst, weights)

    def stream(index=None):
        ids = draw(st.lists(st.sampled_from(members), max_size=10))
        return [Element(i, payload=pos if index is None else (index, pos))
                for pos, i in enumerate(ids)]

    if count is None:
        return make, stream()
    return make, [stream(index) for index in range(count)]


def node_rows(nodes):
    """Nodes in creation order as comparable tuples; a node's element is
    read by its id (None for a root)."""
    return [(None if n.element is None else n.element.id, n.gain, n.value, n.depth, n.path_ids)
            for n in nodes]


def tree_nodes(forest, t):
    """The nodes of the forest's tree t, in creation order."""
    return [n for n in forest.nodes if forest.tree[n.index] == t]


guesses = st.one_of(
    st.integers(1, 30), st.fractions(min_value=Fraction(1, 3), max_value=30),
    st.floats(min_value=0.5, max_value=30),
)


@given(
    oracle_and_stream(), st.integers(0, 3),
    st.one_of(st.none(), guesses), st.sampled_from(["0.1", "0.25", "0.5", "1"]),
)
@settings(max_examples=150, deadline=None)
def test_array_tree_matches_reference(case, k, g, delta):
    """Exact (g None) and bucketed trees: same nodes in the same creation
    order, same best solution (earliest node on ties), same stats."""
    make, stream = case
    mode = "exact" if g is None else "bucketed"
    if g is not None:
        k = max(k, 1)  # bucket widths delta*g/k need k >= 1

    def keyer():
        return ExactKeys() if g is None else IncreaseBuckets(g, k, delta)

    ref_sol, ref_stats, ref_tree = ref_run(stream, k, keyer(), make())

    oracle = make()
    tree = PrefixTree(k, oracle, keyer())
    for e in stream:
        tree_process(tree, e)
    assert node_rows(tree.nodes) == node_rows(ref_tree.nodes)
    assert best_solution(tree) == ref_sol

    stats = RunStats()
    sol = run_tree_stream(iter(stream), k, delta, make(), mode=mode, g=g, stats=stats)
    assert sol == ref_sol
    assert stats == ref_stats


@given(
    st.sampled_from([2, 5]).flatmap(oracle_and_stream), st.integers(0, 3),
    st.one_of(st.none(), guesses), st.sampled_from(["0.1", "0.25", "0.5", "1"]),
)
@settings(max_examples=120, deadline=None)
def test_forest_matches_reference_per_tree(case, k, g, delta):
    """P streams of unequal length in one forest with one keyer: per tree,
    the reference's nodes in creation order, best solution and stats."""
    make, streams = case
    mode = "exact" if g is None else "bucketed"
    if g is not None:
        k = max(k, 1)

    def keyer():
        return ExactKeys() if g is None else IncreaseBuckets(g, k, delta)

    refs = [ref_run(stream, k, keyer(), make()) for stream in streams]

    oracle = make()
    forest = PrefixTree(k, oracle, keyer(), trees=len(streams))
    for elements in zip_longest(*streams):
        tree_process(forest, elements)
    for t, (_, _, ref_tree) in enumerate(refs):
        assert node_rows(tree_nodes(forest, t)) == node_rows(ref_tree.nodes)
    assert best_solutions(forest) == [sol for sol, _, _ in refs]

    results = run_tree_streams([iter(s) for s in streams], k, delta, make(), mode=mode, g=g)
    assert results == [(sol, stats) for sol, stats, _ in refs]


def guess_forest(stream, k, delta, oracle):
    """The guess manager after the stream, driven as guess_run drives it."""
    manager = GuessManager(k, delta, oracle)
    for e in stream:
        manager.observe(oracle.evaluate((e.id,)))
        manager.process(e)
    return manager


def presence_keys(forest, row):
    """The child keys that row's presence bits hold."""
    return np.unpackbits(forest.presence[row], bitorder="little").nonzero()[0].tolist()


def assert_guess_trees_match(manager, ref_trees):
    """Each live guess's nodes, read from the tree of its class, against its
    reference tree; a class's representative also has the reference's
    child keys, and its presence bits hold them."""
    window, tops, forest = manager.window, manager.tops, manager.forest
    assert list(window) == sorted(ref_trees)
    assert forest.trees == len(tops) == len(manager.members)
    assert manager.members.sum() == len(window) and tops[-1:] == list(window)[-1:]
    for j in window:
        t = bisect_left(tops, j)
        nodes = tree_nodes(forest, t)
        assert node_rows(nodes) == node_rows(ref_trees[j].nodes)
        if j == tops[t]:
            ref_nodes = ref_trees[j].nodes
            assert [list(n.children) for n in nodes] == [list(r.children) for r in ref_nodes]
            assert [presence_keys(forest, n.index) for n in nodes] == [sorted(r.children) for r in ref_nodes]


@given(oracle_and_stream(), st.integers(1, 3), st.sampled_from([0.1, 0.2, 0.5]))
@settings(max_examples=80, deadline=None)
def test_guess_forest_matches_reference_per_guess(case, k, delta):
    """Each live guess's tree in the forest against its reference tree."""
    make, stream = case
    _, _, ref_trees = ref_guess_run(stream, k, delta, make())
    assert_guess_trees_match(guess_forest(stream, k, delta, make()), ref_trees)


@given(oracle_and_stream(kinds=("coverage",)), st.integers(1, 3), st.sampled_from([0.1, 0.2, 0.5]))
@settings(max_examples=300, deadline=None)
def test_shared_coverage_trees_match_reference_per_guess(case, k, delta):
    """Integer rows: each guess read through the tree its class shares, with
    one and three mask words, against the reference's tree for that guess;
    guess_run's per-guess stats against the reference's."""
    make, stream = case
    ref_sol, ref_stats, ref_trees = ref_guess_run(stream, k, delta, make())
    assert_guess_trees_match(guess_forest(stream, k, delta, make()), ref_trees)
    stats = RunStats()
    assert guess_run(iter(stream), k, delta, make(), stats=stats) == ref_sol
    assert stats == ref_stats


def test_growing_m_splits_shared_trees():
    """m = 2 puts guesses 1..6 in two classes, 1..4 and 5..6, and each
    class's tree gets a child.  m = 5 then dismisses guesses 1 and 2 and
    splits both classes into one guess each: guesses 3 and 5 get copies
    of the trees, with presence bits rekeyed under their own keys."""
    rects = {0: frozenset({3, 9}), 1: frozenset({2, 6, 7, 8, 9})}
    stream = [Element(i, payload=pos) for pos, i in enumerate([0, 1, 0])]
    k, delta = 3, 0.5
    oracle = CoverageOracle(CoverageInstance(rects))
    manager = GuessManager(k, delta, oracle)
    splits = []
    for e in stream:
        tops, rows = list(manager.tops), manager.forest.node_counts().tolist()
        manager.observe(oracle.evaluate((e.id,)))
        for t, top in enumerate(tops):
            low = tops[t - 1] if t else manager.window.start - 1
            parts = [j for j in manager.tops if low < j <= top]
            if rows[t] > 1 and len(parts) > 1:
                splits.append((e.payload, top, parts))
        manager.process(e)
    assert splits == [(1, 4, [3, 4]), (1, 6, [5, 6])]
    ref_sol, ref_stats, ref_trees = ref_guess_run(stream, k, delta, CoverageOracle(CoverageInstance(rects)))
    assert_guess_trees_match(manager, ref_trees)
    assert manager.best() == ref_sol
    stats = RunStats()
    assert guess_run(iter(stream), k, delta, CoverageOracle(CoverageInstance(rects)), stats=stats) == ref_sol
    assert stats == ref_stats


@pytest.mark.parametrize("weights", [
    {6: 0.7, 1: 0.1, 3: 0.0},
    {6: Fraction(7, 10), 1: Fraction(1, 10), 3: Fraction(0)},
], ids=["float", "fraction"])
def test_rows_that_are_not_integers_never_share(weights):
    """Float and Fraction gains need not be integers in 0..m, so each guess
    keeps its own tree, and each matches its reference tree."""
    stream = [Element(i, payload=pos) for pos, i in enumerate([6, 1, 3])]
    k, delta = 3, 0.1
    ref_sol, ref_stats, ref_trees = ref_guess_run(stream, k, delta, AdditiveOracle(weights))
    manager = guess_forest(stream, k, delta, AdditiveOracle(weights))
    assert manager.forest.trees == len(manager.window)
    assert_guess_trees_match(manager, ref_trees)
    assert manager.best() == ref_sol
    stats = RunStats()
    assert guess_run(iter(stream), k, delta, AdditiveOracle(weights), stats=stats) == ref_sol
    assert stats == ref_stats


def test_shared_counts_on_a_benchmark_instance():
    """The first submod-tree instance at seed 1: guess_run's stats count
    per guess, as the reference's do, while the oracle's own counter
    counts only the extensions made, once per class."""
    seed, k, delta = 4, 4, 0.1
    params = {"n": 30, "k": 4, "universe": 200, "max_points": 20}
    inst, split = generators.generate_submod_instance("random", params, seed)
    plan = generators.make_plan(split, "random", seed)
    stream = list(stream_model.build_stream(split, plan, seed))
    ref_sol, ref_stats, _ = ref_guess_run(stream, k, delta, CoverageOracle(inst))
    oracle, stats = CoverageOracle(inst), RunStats()
    assert guess_run(iter(stream), k, delta, oracle, stats=stats) == ref_sol
    assert stats == ref_stats
    assert oracle.call_counter < stats.oracle_calls


def test_small_delta_shares_trees_in_small_memory():
    """delta = 0.001 gives 2,000 buckets per guess and up to 7,606 live
    guesses: deciding which of them share a tree must stay small in memory,
    and the run must equal the reference."""
    instance, k = submodular.figure2_instance()
    stream = [Element(i) for i in "BADC"]
    ref_sol, ref_stats, _ = ref_guess_run(stream, k, 0.001, CoverageOracle(instance))
    assert ref_stats == RunStats(58769, 7606, 75371)
    stats = RunStats()
    tracemalloc.start()
    try:
        sol = guess_run(iter(stream), k, 0.001, CoverageOracle(instance), stats=stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol == ref_sol and stats == ref_stats
    assert peak < 32 * 2**20


def test_guess_forest_compacts_dismissed_guesses():
    """Singletons 1, then 50, then 2000 move the window up twice: each move
    dismisses the lowest guesses, whose rows and interned elements are
    compacted away, and admits new guesses as fresh roots mid-stream.  (m
    only grows, so a dismissed guess never comes back.)"""
    weights = {0: 1, 1: 50, 2: 3, 3: 2000, 4: 7, 5: 40}
    stream = [Element(i, payload=pos) for pos, i in enumerate([0, 2, 4, 1, 5, 2, 3, 4, 0, 5])]
    k, delta = 2, 0.5
    ref_sol, ref_stats, ref_trees = ref_guess_run(stream, k, delta, AdditiveOracle(weights))
    oracle = AdditiveOracle(weights)
    manager = GuessManager(k, delta, oracle)
    windows = []
    for e in stream:
        manager.observe(oracle.evaluate((e.id,)))
        windows.append(manager.window)
        manager.process(e)
    assert windows[0][0] < windows[3][0] < windows[6][0]       # dismissed twice
    assert windows[0][-1] < windows[3][-1] < windows[6][-1]    # admitted twice
    assert_guess_trees_match(manager, ref_trees)
    forest = manager.forest
    assert forest.trees == len(manager.window) and forest.size == len(forest.nodes)
    on_paths = set().union(*(n.path_ids for n in forest.nodes))
    assert sorted(el.id for el in forest.elements) == sorted(on_paths)
    assert manager.best() == ref_sol
    stats = RunStats()
    assert guess_run(iter(stream), k, delta, AdditiveOracle(weights), stats=stats) == ref_sol
    assert stats == ref_stats


def test_splits_keys_one_guess_at_a_time():
    """40 guesses over 0..10**5: the split of each adjacent pair equals the
    one read off the whole guesses x (m+1) key matrix, which would take
    tens of MiB, while at most two rows of cuts are held."""
    exponents, m = range(30, 70), 10**5
    tracemalloc.start()
    try:
        split = GuessBuckets(4, 0.1).splits(exponents, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    widths = np.array([0.1 * 1.1**j / 4 for j in exponents])[:, None]
    keys = np.minimum(np.maximum(np.arange(m + 1) // widths, 0), 40)
    cuts = keys[:, 1:] != keys[:, :-1]
    assert split.tolist() == (cuts[1:] != cuts[:-1]).any(axis=1).tolist()
    assert split.size == len(exponents) - 1
    assert peak < 16 * 2**20


def key_matrix_splits(keyer, exponents, m):
    """``splits`` read off the whole guesses x (m+1) key matrix."""
    keys = keyer.keys(np.repeat(np.arange(m + 1), len(exponents)),
                      np.tile(np.arange(len(exponents)), m + 1)).reshape(m + 1, -1).T
    cuts = keys[:, 1:] != keys[:, :-1]
    return (cuts[1:] != cuts[:-1]).any(axis=1).tolist()


@pytest.mark.parametrize("k, delta, exponents, m", [
    (4, 1, range(-4, 9), 12),         # width 2**j/4 is exactly 1 at j = 2
    (3, 0.5, range(-3, 12), 39),      # exponent 9 first keys the clamp bucket at x = m
    (3, 0.5, range(-3, 6), 6),        # as exponent 4 does with a width below 1
    (2, 0.25, range(20, 30), 7),      # every width above m: no cuts anywhere
    (3, 0.5, range(100, 140), 50),    # j * width passes 2**53
    (4, 0.1, range(-80, -40), 300),   # widths far below 1: cuts at every x
    (2, 0.001, range(0, 5), 0),       # m = 0 has no cuts
    (1, 0.5, range(3, 4), 9),         # one guess: no pairs
])
def test_splits_match_the_key_matrix_at_the_edges(k, delta, exponents, m):
    keyer = GuessBuckets(k, delta)
    keyer.use(exponents)
    assert keyer.splits(exponents, m).tolist() == key_matrix_splits(keyer, exponents, m)


@given(st.integers(1, 6), st.sampled_from([0.01, 0.05, 0.1, 0.2, 0.5, 0.9, 1]),
       st.integers(-60, 80), st.integers(0, 30), st.integers(0, 300))
@settings(max_examples=300, deadline=None)
def test_splits_match_the_key_matrix(k, delta, low, count, m):
    keyer = GuessBuckets(k, delta)
    exponents = range(low, low + count)
    keyer.use(exponents)
    assert keyer.splits(exponents, m).tolist() == key_matrix_splits(keyer, exponents, m)


@pytest.mark.parametrize("exponents, m", [(range(6000, 6100), 5000), (range(6000, 9100, 7), 300)])
def test_splits_in_blocks_compare_across_block_edges(exponents, m):
    """4,000 buckets per guess: min(4000, m) cuts per guess leave room for 8
    (m = 5000) or 109 (m = 300) guesses per block, so pairs straddle block
    edges; the second case also crosses from widths below 1 to above."""
    keyer = GuessBuckets(4, 0.001)
    keyer.use(exponents)
    split = keyer.splits(exponents, m).tolist()
    assert split == key_matrix_splits(keyer, exponents, m)
    assert 0 < sum(split) < len(split)


@pytest.mark.parametrize("scale", [1, 0.1])
def test_exact_presence_widens_between_passes(scale):
    """Exact keys interned one new gain per pass: key_count passes 8 and 16
    mid-stream, so every row's presence bitset widens from one byte to two
    and then three between passes; the tree still equals the reference,
    every row's presence bits hold its children's keys, and the flat cells
    the pass reads are a view of the bitsets."""
    weights = {i: (i % 20 + 1) * scale for i in range(26)}
    stream = [Element(i) for i in list(range(26)) + [3, 21]]
    ref_sol, ref_stats, ref_tree = ref_run(stream, 2, ExactKeys(), AdditiveOracle(weights))
    oracle = AdditiveOracle(weights)
    tree = PrefixTree(2, oracle, ExactKeys())
    widths = []
    for e in stream:
        tree_process(tree, e)
        widths.append(tree.presence.shape[1])
        assert np.shares_memory(tree.presence.reshape(-1), tree.presence)
    assert tree.keyer.key_count > 16
    assert widths[0] == 1 and {2, 3} <= set(widths) and sorted(widths) == widths
    assert node_rows(tree.nodes) == node_rows(ref_tree.nodes)
    assert best_solution(tree) == ref_sol and oracle.call_counter == ref_stats.oracle_calls
    for node, ref in zip(tree.nodes, ref_tree.nodes):
        held = tree.keyer.keys(np.array(list(ref.children), dtype=tree.gains.dtype))
        assert presence_keys(tree, node.index) == sorted(held.tolist())


def test_take_trees_keeps_drops_copies_and_adds():
    """Four trees, each fed its own stream, become five: a copy of tree 2,
    tree 1 kept, another copy of tree 2, a fresh root, and tree 2 kept.
    Trees 0 and 3 go, with the interned elements only they used."""
    rects = {i: frozenset(range(i, 2 * i + 3)) for i in range(8)}
    streams = [[0, 6, 1], [1, 2, 3, 1], [2, 4, 5, 0, 3], [7, 6]]
    keyer = GuessBuckets(3, 0.5)
    keyer.use([2, 4, 6, 8])
    forest = PrefixTree(3, CoverageOracle(CoverageInstance(rects)), keyer, trees=4)
    for elements in zip_longest(*streams):
        tree_process(forest, [None if i is None else Element(i, payload=t)
                              for t, i in enumerate(elements)])
    sources = [2, 1, 2, -1, 2]
    before = [node_rows(tree_nodes(forest, t)) for t in range(forest.trees)]
    assert {6, 7} <= {el.id for el in forest.elements}  # only trees 0 and 3 read 6 and 7
    keyer.use([1, 4, 3, 5, 6])  # the kept trees keep their guesses
    forest.take_trees(sources)
    n = forest.size
    assert forest.trees == len(sources)
    root = [(None, 0, 0, 0, frozenset())]
    for t, source in enumerate(sources):
        assert node_rows(tree_nodes(forest, t)) == (root if source < 0 else before[source])
    assert forest.node_counts().tolist() == [len(before[2]), len(before[1]), len(before[2]), 1,
                                             len(before[2])]
    kids = (forest.parent[:n] >= 0).nonzero()[0]
    assert (forest.tree[forest.parent[kids]] == forest.tree[kids]).all()
    assert (forest.parent[kids] < kids).all()
    assert [presence_keys(forest, node.index) for node in forest.nodes] == \
        [sorted(node.children) for node in forest.nodes]
    assert not forest.presence[n:].any()
    ids = [el.id for el in forest.elements]
    assert sorted(ids) == sorted(set().union(*(node.path_ids for node in forest.nodes)))
    assert {6, 7}.isdisjoint(ids)
    assert forest.element_index == {eid: x for x, eid in enumerate(ids)}


def test_take_no_trees_empties_the_forest():
    forest = PrefixTree(2, CoverageOracle(CoverageInstance({0: frozenset({1}), 1: frozenset({2})})),
                        trees=2)
    tree_process(forest, [Element(0), Element(1)])
    assert forest.size == 4
    forest.take_trees([])
    assert forest.trees == forest.size == 0
    assert forest.node_counts().tolist() == []
    assert forest.elements == [] and forest.element_index == {}
    assert not forest.presence.any()


@given(st.sampled_from([2, 5]).flatmap(oracle_and_stream), st.integers(1, 3),
       st.lists(st.integers(-1, 4), max_size=6))
@settings(max_examples=100, deadline=None)
def test_elements_hold_one_element_per_interned_id(case, k, sources):
    """Streams repeat ids with other payloads, within a stream and across the
    trees of a pass: a node's element is an arrival of its path's last id,
    ``elements`` holds one element per id on some path, and ``take_trees``
    drops the ids only the dropped trees used."""
    make, streams = case
    forest = PrefixTree(k, make(), ExactKeys(), trees=len(streams))
    for elements in zip_longest(*streams):
        tree_process(forest, elements)
    arrivals = {id(a) for stream in streams for a in stream}

    def check():
        for n in forest.nodes:
            if n.depth:
                parent = forest.nodes[forest.parent[n.index]]
                assert id(n.element) in arrivals
                assert forest.path[n.index, n.depth - 1] == forest.element_index[n.element.id]
                assert n.path_ids == parent.path_ids | {n.element.id}
        ids = [el.id for el in forest.elements]
        assert sorted(ids) == sorted(set().union(*(n.path_ids for n in forest.nodes)))
        assert forest.element_index == {eid: x for x, eid in enumerate(ids)}

    check()
    sources = [t for t in sources if t < forest.trees]  # -1 is a fresh root
    kept = set().union(*(n.path_ids for n in forest.nodes if forest.tree[n.index] in sources))
    forest.take_trees(sources)
    assert {el.id for el in forest.elements} == kept
    check()


@pytest.mark.parametrize("trees", [0, 3])
def test_forest_starts_with_one_root_per_tree(trees):
    forest = PrefixTree(2, CoverageOracle(CoverageInstance({0: frozenset({1})})), trees=trees)
    assert forest.trees == forest.size == trees
    assert forest.tree[:trees].tolist() == list(range(trees))
    assert forest.node_counts().tolist() == [1] * trees
    assert node_rows(forest.nodes) == [(None, 0, 0, 0, frozenset())] * trees


@given(oracle_and_stream(), st.integers(1, 3), st.sampled_from([0.1, 0.2, 0.5]))
@settings(max_examples=80, deadline=None)
def test_guess_run_matches_reference(case, k, delta):
    make, stream = case
    ref_sol, ref_stats, _ = ref_guess_run(stream, k, delta, make())
    stats = RunStats()
    assert guess_run(iter(stream), k, delta, make(), stats=stats) == ref_sol
    assert stats == ref_stats


def test_float_values_add_up_along_the_path():
    """f({0, 1, 2}) evaluates to 1.5000000000000002 here, but the node's value
    is its parent's 0.4 plus its gain 1.1, which is 1.5, as in the reference."""
    weights = {0: 0.1, 1: 1.1, 2: 0.3}
    stream = [Element(0), Element(2), Element(1)]
    ref_sol, ref_stats, ref_tree = ref_run(stream, 3, ExactKeys(), AdditiveOracle(weights))
    assert AdditiveOracle(weights).evaluate({0, 1, 2}) != ref_sol.value == 1.5
    oracle = AdditiveOracle(weights)
    tree = PrefixTree(3, oracle, ExactKeys())
    for e in stream:
        tree_process(tree, e)
    assert node_rows(tree.nodes) == node_rows(ref_tree.nodes)
    assert best_solution(tree) == ref_sol


def test_array_tree_grows_past_its_first_allocation():
    """Hundreds of nodes and dozens of distinct exact gains: the row arrays
    and the presence bitsets both have to grow."""
    rects = {i: frozenset(range(i, 3 * i + 1)) for i in range(14)}
    stream = [Element(i) for i in (5, 0, 13, 2, 9, 7, 11, 1, 12, 4, 8, 3, 10, 6, 9, 2)]
    for keyer in (ExactKeys, lambda: IncreaseBuckets(40, 3, "0.05")):
        ref_sol, ref_stats, ref_tree = ref_run(stream, 3, keyer(), CoverageOracle(CoverageInstance(rects)))
        oracle = CoverageOracle(CoverageInstance(rects))
        tree = PrefixTree(3, oracle, keyer())
        for e in stream:
            tree_process(tree, e)
        assert len(tree.nodes) == ref_stats.nodes_live_max > 200
        assert node_rows(tree.nodes) == node_rows(ref_tree.nodes)
        assert best_solution(tree) == ref_sol
        assert oracle.call_counter == ref_stats.oracle_calls
