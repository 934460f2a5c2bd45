"""Two-branch matching: greedy, the collector, guessing, exact oracles."""

import math
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injectstream.errors import (
    InvalidInstanceError,
    InvariantError,
    PreconditionError,
    SizeLimitError,
)
from injectstream.matching import (
    BETA,
    BIPARTITE_EXACT_LIMIT,
    COLLECTOR_SLOTS_PER_EDGE,
    EPS,
    GENERAL_EXACT_LIMIT,
    AugPath,
    AugPathStore,
    Edge,
    GuessRunStats,
    Matching,
    apply_augmentations,
    exact_max_matching,
    geometric_guess_run,
    greedy_matching,
    greedy_step,
    live_guess_bound,
    match_run,
    phase1_threshold,
    robust_greedy_check,
    validate_matching,
)
from injectstream import geomgrid, matching
from injectstream.rng import PhiloxRNG

from reference_matching import count_3_augmentable


def path_edges(*vertices):
    return [Edge(a, b) for a, b in zip(vertices, vertices[1:])]


# ------------------------------------------------------------------- basics


def test_edge_normalization_and_other():
    e = Edge(5, 2)
    assert (e.u, e.v) == (2, 5)
    assert Edge("b", "a") == Edge("a", "b")
    assert e.other(2) == 5 and e.other(5) == 2
    with pytest.raises(PreconditionError):
        e.other(7)
    with pytest.raises(InvalidInstanceError):
        Edge(3, 3)


def test_matching_container():
    m = Matching()
    m.add(Edge(1, 2))
    assert Edge(2, 1) in m and len(m) == 1
    assert not m.is_free(1) and m.is_free(3)
    with pytest.raises(InvariantError):
        m.add(Edge(2, 3))
    c = m.copy()
    c.add(Edge(3, 4))
    assert len(m) == 1 and len(c) == 2
    m.remove(Edge(1, 2))
    assert m.is_free(1) and len(m) == 0
    with pytest.raises(InvariantError):
        m.remove(Edge(1, 2))


def test_validate_matching_catches_corruption():
    m = Matching([Edge(1, 2)])
    m._edges[Edge(2, 3)] = None  # bypass add() on purpose
    with pytest.raises(InvariantError):
        validate_matching(m)


def test_matching_edges_view_is_read_only():
    m = Matching([Edge(1, 2)])
    for name in ("append", "extend", "insert", "remove", "pop", "clear",
                 "add", "discard", "update", "__setitem__", "__delitem__"):
        assert not hasattr(m.edges, name), name
    with pytest.raises(AttributeError):
        m.edges = [Edge(3, 4)]
    assert list(m.edges) == [Edge(1, 2)]


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 7), st.integers(0, 7)), max_size=60))
@settings(max_examples=200, deadline=None)
def test_matching_order_follows_list_semantics(ops):
    """A removed edge drops out and an added edge goes to the end."""
    m, ref = Matching(), []
    for add, a, b in ops:
        if a == b:
            continue
        e = Edge(a, b)
        if add and m.is_free(a) and m.is_free(b):
            m.add(e)
            ref.append(e)
        elif not add and e in m:
            m.remove(e)
            ref.remove(e)
    assert list(m) == list(m.edges) == list(m.copy()) == ref
    assert repr(m) == f"Matching({ref!r})"


def test_greedy_step_and_maximality():
    m = Matching()
    assert greedy_step(m, Edge(1, 2)) is m and len(m) == 1
    greedy_step(m, Edge(2, 3))
    assert len(m) == 1  # 2 already matched
    greedy_step(m, Edge(3, 4))
    assert len(m) == 2
    out = greedy_matching(path_edges(1, 2, 3, 4, 5, 6))
    assert len(out) >= 2  # maximal in P6 means at least half of max


# ---------------------------------------------------------------- collector


def test_three_aug_paths_minimal():
    m = Matching([Edge("a", "b")])
    store = AugPathStore(m)
    for e in (Edge("x", "a"), Edge("b", "y")):
        store.offer(e)
    paths = store.paths()
    assert len(paths) == 1
    p = paths[0]
    assert p.center == Edge("a", "b")
    assert set(p.free_endpoints()) == {"x", "y"}
    assert (p.wing_a, p.wing_b) == (Edge("x", "a"), Edge("b", "y"))


def test_collector_rejects_non_wings():
    m = Matching([Edge(1, 2), Edge(3, 4)])
    store = AugPathStore(m)
    store.offer(Edge(1, 3))   # matched-matched
    store.offer(Edge(5, 6))   # free-free
    store.sweep()
    assert store.paths() == [] and store.stored_wings == 0


def test_collector_needs_distinct_free_endpoints():
    m = Matching([Edge("a", "b")])
    store = AugPathStore(m)
    store.offer(Edge("x", "a"))
    store.offer(Edge("b", "x"))  # same free vertex on the other side
    store.sweep()
    assert store.paths() == []
    store.offer(Edge("b", "y"))
    assert len(store.paths()) == 1  # eager commit on arrival


def test_collector_wing_caps_and_dedup():
    m = Matching([Edge("a", "b")])
    store = AugPathStore(m)
    store.offer(Edge("x", "a"))
    store.offer(Edge("x", "a"))   # duplicate edge
    store.offer(Edge("w", "a"))
    store.offer(Edge("z", "a"))   # third distinct endpoint: over the cap
    assert store.stored_wings == 2
    assert store.max_slots <= COLLECTOR_SLOTS_PER_EDGE * len(m)


def test_collector_disjoint_commits_across_centers():
    """Two centers compete for free vertex 9; the first commit burns it and
    the second center, with no alternative wing on that side, gets nothing."""
    m = Matching([Edge(1, 2), Edge(3, 4)])
    store = AugPathStore(m)
    for e in (Edge(9, 1), Edge(2, 8), Edge(9, 3), Edge(4, 7)):
        store.offer(e)
    store.sweep()
    committed = store.paths()
    assert len(committed) == 1
    assert committed[0].center == Edge(1, 2)
    # a second wing with a fresh endpoint revives the losing center
    store.offer(Edge(5, 3))
    assert len(store.paths()) == 2
    used = [v for p in store.paths() for v in p.free_endpoints()]
    assert len(used) == len(set(used))


def test_collector_commits_when_the_second_side_arrives():
    """One side's wing waits; the other side's first wing commits the path."""
    m = Matching([Edge(1, 2)])
    store = AugPathStore(m)
    store.offer(Edge(9, 1))
    assert store.paths() == []  # only one side present
    store.offer(Edge(2, 8))
    assert len(store.paths()) == 1


def test_apply_augmentations():
    m = Matching([Edge("a", "b")])
    store = AugPathStore(m)
    for e in (Edge("x", "a"), Edge("b", "y")):
        store.offer(e)
    [p] = store.paths()
    out = apply_augmentations(m, [p])
    assert len(out) == 2
    assert Edge("x", "a") in out and Edge("b", "y") in out
    assert Edge("a", "b") not in out


def test_apply_augmentations_rejects_overlap():
    m = Matching([Edge(1, 2), Edge(3, 4)])
    p1 = AugPath(wing_a=Edge(9, 1), center=Edge(1, 2), wing_b=Edge(2, 8))
    p2 = AugPath(wing_a=Edge(9, 3), center=Edge(3, 4), wing_b=Edge(4, 7))
    with pytest.raises(InvariantError):
        apply_augmentations(m, [p1, p2])  # 9 reused


# ---------------------------------------------------------------- match_run


def test_match_config_constants():
    assert EPS == Fraction(1, 50) and 0 < EPS < Fraction(1, 4)
    assert BETA == Fraction(157, 192) and 0 < BETA < 1
    assert phase1_threshold(100) == 48  # ceil(0.48 * 100)
    assert phase1_threshold(1) == 1


def test_match_run_requires_positive_mstar():
    with pytest.raises(PreconditionError):
        match_run([], 0)


def test_match_run_on_perfect_stream():
    edges = [Edge(2 * i, 2 * i + 1) for i in range(10)]
    out = match_run(edges, 10)
    assert len(out) == 10
    validate_matching(out)


def test_match_run_never_below_greedy():
    rng = PhiloxRNG(5)
    for trial in range(30):
        edges = [Edge(rng.randbelow(12), 12 + rng.randbelow(12)) for _ in range(25)]
        m_star = len(exact_max_matching(edges))
        if m_star == 0:
            continue
        out = match_run(edges, m_star)
        validate_matching(out)
        assert len(out) >= len(greedy_matching(edges))


@pytest.mark.parametrize("run", ["match", "guessed"])
def test_runs_consume_the_stream_one_edge_at_a_time(monkeypatch, run):
    """Each edge takes its one greedy step (M1's; branch 2 has no greedy of
    its own) before the next one is requested: no run buffers its input
    stream."""
    log = []
    step = matching.greedy_step
    monkeypatch.setattr(matching, "greedy_step", lambda M, e: log.append("step") or step(M, e))
    edges = [Edge(4 * i + 1, 4 * i + 2) for i in range(5)] + [Edge(2 * j, 2 * j + 1) for j in range(10)]

    def stream():
        for e in edges:
            log.append("next")
            yield e

    if run == "match":
        match_run(stream(), 10)
    else:
        geometric_guess_run(stream(), 0.1)
    assert log == ["next", "step"] * len(edges)


def test_trap_stream_beats_half():
    """s crossing edges first stall greedy at s; the second branch augments
    back up to 2*ceil(0.48*2s) regardless of arrival order."""
    s = 10
    crossing = [Edge(4 * i + 1, 4 * i + 2) for i in range(s)]
    good = [Edge(2 * j, 2 * j + 1) for j in range(2 * s)]
    stream = crossing + good
    m_star = 2 * s
    assert len(greedy_matching(stream)) == s
    out = match_run(stream, m_star)
    bound = (1 + BETA**2 / 32) * (Fraction(1, 2) - EPS) * m_star - 1
    assert len(out) >= bound
    assert len(out) == 2 * phase1_threshold(m_star)  # 2 * ceil(0.96 s)


# ------------------------------------------------------------------ guessing


def test_live_guess_bound_value():
    # floor(log_1.1(4 * 1.1 / 0.96)) + 1 = 16
    assert live_guess_bound(0.1) == 16


def test_guess_run_single_edge_hits_bound():
    stats = GuessRunStats()
    out = geometric_guess_run([Edge(1, 2)], 0.1, stats=stats)
    assert len(out) == 1
    assert stats.guesses_live_max == live_guess_bound(0.1)


def test_guess_run_rejects_bad_delta():
    with pytest.raises(PreconditionError):
        geometric_guess_run([], 0.0)


def test_guess_run_rejects_a_delta_with_too_many_guesses_before_reading():
    """delta_guess 1e-5 allows 142,714 live guesses, past GUESS_LIMIT; 1e-3
    allows 1,429 and runs."""
    def stream():
        raise AssertionError("the stream was read")
        yield

    assert live_guess_bound(1e-5) > matching.GUESS_LIMIT >= live_guess_bound(1e-3)
    with pytest.raises(SizeLimitError, match="142714 live guesses; guessed matching is guarded to 10000"):
        geometric_guess_run(stream(), 1e-5)
    assert len(geometric_guess_run([Edge(1, 2)], 1e-3)) == 1


def test_guess_run_tracks_known_run():
    """Paired runs on a fixed battery: the guessed output never trails the
    known-m* output by more than the ceil(2*delta*m*) envelope (measured
    deficit on this battery: 0)."""
    rng = PhiloxRNG(17)
    worst = 0
    for trial in range(25):
        edges = [Edge(rng.randbelow(14), 14 + rng.randbelow(14)) for _ in range(30)]
        m_star = len(exact_max_matching(edges))
        if m_star == 0:
            continue
        known = match_run(edges, m_star)
        stats = GuessRunStats()
        guessed = geometric_guess_run(edges, 0.1, stats=stats)
        validate_matching(guessed)
        assert stats.guesses_live_max <= live_guess_bound(0.1)
        deficit = len(known) - len(guessed)
        worst = max(worst, deficit)
        assert deficit <= math.ceil(2 * 0.1 * m_star)
    assert worst == 0


@pytest.mark.parametrize("run", [
    lambda stream: match_run(stream, 20),
    lambda stream: geometric_guess_run(stream, 0.1),
], ids=["match_run", "geometric_guess_run"])
def test_runs_copy_and_validate_only_after_the_stream(monkeypatch, run):
    """Branch 2 reads the shared M1 in place: no copy of it, and no check of
    one, while the stream is being read."""
    s = 10
    edges = [Edge(4 * i + 1, 4 * i + 2) for i in range(s)] + [
        Edge(2 * j, 2 * j + 1) for j in range(2 * s)
    ]
    exhausted = []
    seen = []

    def stream():
        yield from edges
        exhausted.append(True)

    def recorded(real):
        def wrapper(*args, **kwargs):
            seen.append(bool(exhausted))
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Matching, "copy", recorded(Matching.copy))
    monkeypatch.setattr(matching, "validate_matching", recorded(matching.validate_matching))
    assert len(run(stream())) > s  # branch 2 augmented, so it copied and checked once
    assert seen and all(seen)


def held_windows(sizes: range, base: float, coef: float):
    """Walk ``sizes`` upward as the guessed run walks |M1|, looking the window
    up only at the size ``window_and_recheck`` last named; yield each size
    with the range held there."""
    held, recheck = None, sizes.start
    for size in sizes:
        if size >= recheck:
            held, recheck = geomgrid.window_and_recheck(size, base, coef)
        yield size, held


GUESS_DELTAS = [0.05, 0.1, 0.2, 0.5, 0.9]
UPPER_COEF = 4.0 / float(1 - 2 * EPS)


@pytest.mark.parametrize("delta", GUESS_DELTAS)
def test_recheck_rule_holds_the_window_from_size_one(delta):
    """Sizes 1..5000 pass every ceil(base**j) and ceil(base**j / coef) below
    5000, where the window's bottom and top move."""
    base = 1.0 + delta
    for size, held in held_windows(range(1, 5001), base, UPPER_COEF):
        assert held == geomgrid.window(size, base, UPPER_COEF)


@given(st.sampled_from(GUESS_DELTAS), st.floats(0, 1), st.booleans(),
       st.integers(0, 50), st.integers(1, 200))
@settings(max_examples=300, deadline=None)
def test_recheck_rule_holds_the_window_across_a_grid_power(delta, height, over_coef,
                                                           before, after):
    """A walk that starts ``before`` sizes below ceil(base**j) or
    ceil(base**j / coef), for sizes up to 10**12, holds geomgrid.window at
    every size."""
    base = 1.0 + delta
    j = int(height * math.log(10**12, base))
    anchor = math.ceil(base**j / UPPER_COEF if over_coef else base**j)
    sizes = range(max(1, anchor - before), anchor + after)
    for size, held in held_windows(sizes, base, UPPER_COEF):
        assert held == geomgrid.window(size, base, UPPER_COEF)


def test_guess_run_on_trap_stream():
    s = 10
    stream = [Edge(4 * i + 1, 4 * i + 2) for i in range(s)] + [
        Edge(2 * j, 2 * j + 1) for j in range(2 * s)
    ]
    out = geometric_guess_run(stream, 0.1)
    assert len(out) > s  # strictly beats the greedy stall


def counting_apply(monkeypatch) -> list:
    """Patch matching.apply_augmentations to record its calls; return the record."""
    calls = []
    real = matching.apply_augmentations
    monkeypatch.setattr(
        matching, "apply_augmentations", lambda M, paths: calls.append(len(paths)) or real(M, paths)
    )
    return calls


@pytest.mark.parametrize("stall, applied", [(True, 1), (False, 0)])
def test_guess_run_builds_only_the_winning_branch(monkeypatch, stall, applied):
    """Of the ~16 surviving guesses, only the winner is augmented, and none
    is when greedy already holds a perfect matching."""
    s = 10
    crossing = [Edge(4 * i + 1, 4 * i + 2) for i in range(s)] if stall else []
    stream = crossing + [Edge(2 * j, 2 * j + 1) for j in range(2 * s)]
    calls = counting_apply(monkeypatch)
    out = geometric_guess_run(stream, 0.1)
    assert len(calls) == applied
    assert len(out) == (2 * phase1_threshold(2 * s) if stall else 2 * s)


def planted_finish(paths):
    """M1 of 4 edges; a winning branch freezes all of it and commits one
    valid path, a losing branch freezes its first 2 edges and holds ``paths``."""
    m1 = Matching(Edge(2 * i, 2 * i + 1) for i in range(4))
    winner = AugPathStore(m1, 4)
    winner.committed[Edge(6, 7)] = AugPath(Edge(6, 20), Edge(6, 7), Edge(7, 21))
    loser = AugPathStore(m1, 2)
    for p in paths:
        loser.committed[p.center] = p
    return m1, winner, loser


BAD_LOSER_PATHS = {
    "free endpoint in the prefix": [AugPath(Edge(2, 0), Edge(0, 1), Edge(1, 9))],
    "shared free endpoint": [
        AugPath(Edge(8, 0), Edge(0, 1), Edge(1, 9)),
        AugPath(Edge(8, 2), Edge(2, 3), Edge(3, 10)),
    ],
    "center outside the prefix": [AugPath(Edge(4, 11), Edge(4, 5), Edge(5, 12))],
    "wing off its center": [AugPath(Edge(5, 8), Edge(0, 1), Edge(1, 9))],
}


@pytest.mark.parametrize("bad", list(BAD_LOSER_PATHS))
@pytest.mark.parametrize("loser_first", [True, False])
def test_finish_checks_the_paths_of_a_losing_branch(monkeypatch, bad, loser_first):
    """A branch that does not win is never built, but its paths are still
    checked for what apply_augmentations would reject."""
    paths = BAD_LOSER_PATHS[bad]
    m1, winner, loser = planted_finish(paths)
    assert loser.size + len(loser.committed) < winner.size + len(winner.committed)
    with pytest.raises(InvariantError):
        apply_augmentations(Matching(list(m1.edges)[: loser.size]), paths)
    calls = counting_apply(monkeypatch)
    with pytest.raises(InvariantError):
        matching._finish(m1, [loser, winner] if loser_first else [winner, loser])
    assert calls == []


def test_finish_builds_the_earliest_largest_branch(monkeypatch):
    """Not the first branch that beats M1: the largest one, earliest among equals."""
    m1, beats, loser = planted_finish([AugPath(Edge(8, 0), Edge(0, 1), Edge(1, 9))])
    largest, twin = AugPathStore(m1, 4), AugPathStore(m1, 4)
    for store, center in ((largest, Edge(0, 1)), (twin, Edge(2, 3))):
        store.committed.update(beats.committed)
        store.committed[center] = AugPath(Edge(30, center.u), center, Edge(center.v, 31))
    calls = counting_apply(monkeypatch)
    out = matching._finish(m1, [loser, beats, largest, twin])
    assert calls == [2] and len(out) == 6
    assert {Edge(30, 0), Edge(1, 31), Edge(6, 20), Edge(7, 21)} <= set(out)
    assert matching._finish(m1, [loser]) is m1


# ------------------------------------------------------------- exact oracles


def test_exact_max_matching_small_cases():
    assert len(exact_max_matching([])) == 0
    assert len(exact_max_matching(path_edges(1, 2, 3, 4))) == 2
    assert len(exact_max_matching(path_edges(1, 2, 3, 4, 5))) == 2  # C5 via closing edge below
    c5 = path_edges(1, 2, 3, 4, 5) + [Edge(5, 1)]
    assert len(exact_max_matching(c5)) == 2
    k33 = [Edge(f"l{i}", f"r{j}") for i in range(3) for j in range(3)]
    assert len(exact_max_matching(k33)) == 3


def test_exact_max_matching_duplicates_ignored():
    assert len(exact_max_matching([Edge(1, 2), Edge(2, 1), Edge(1, 2)])) == 1


def test_exact_max_matching_guards():
    # odd cycle forces the general solver; 21 vertices exceeds its limit
    edges = [Edge(i, (i + 1) % 21) for i in range(21)]
    with pytest.raises(SizeLimitError):
        exact_max_matching(edges)
    # bipartite instances of that size are fine
    wide = [Edge(f"l{i}", f"r{i}") for i in range(30)]
    assert len(exact_max_matching(wide)) == 30


def test_exact_max_matching_against_networkx():
    """Independent oracle: networkx blossom on random general graphs."""
    rng = PhiloxRNG(23)
    for trial in range(40):
        n = 5 + rng.randbelow(10)
        edges = []
        for _ in range(2 * n):
            a, b = rng.randbelow(n), rng.randbelow(n)
            if a != b:
                edges.append(Edge(a, b))
        if not edges:
            continue
        ours = exact_max_matching(edges)
        validate_matching(ours)
        g = nx.Graph((e.u, e.v) for e in edges)
        ref = nx.max_weight_matching(g, maxcardinality=True)
        assert len(ours) == len(ref)


def test_exact_max_matching_bipartite_agrees_with_general():
    rng = PhiloxRNG(29)
    for trial in range(20):
        edges = [Edge(f"l{rng.randbelow(8)}", f"r{rng.randbelow(8)}") for _ in range(14)]
        via_bipartite = exact_max_matching(edges)
        g = nx.Graph((e.u, e.v) for e in edges)
        assert len(via_bipartite) == len(nx.max_weight_matching(g, maxcardinality=True))


# -------------------------------------------------------- counting and robust


def test_count_3_augmentable_cases():
    m = Matching([Edge(2, 3)])
    m_star = Matching([Edge(1, 2), Edge(3, 4)])
    assert count_3_augmentable(m, m_star) == 1
    # identical matchings: partners are the edge's own endpoints, never free
    same = Matching([Edge(1, 2)])
    assert count_3_augmentable(same, Matching([Edge(1, 2)])) == 0


def test_count_3_augmentable_maximality_precondition():
    m = Matching([Edge(1, 2)])
    m_star = Matching([Edge(3, 4)])  # free-free in the union graph
    with pytest.raises(PreconditionError):
        count_3_augmentable(m, m_star)


def test_robust_greedy_small_and_empty():
    empty = robust_greedy_check([])
    assert empty.ok and empty.base_size == 0
    report = robust_greedy_check(path_edges(1, 2, 3, 4, 5, 6))
    assert report.ok
    assert all(abs(s - report.base_size) <= 1 for s in report.deleted_sizes)


def test_robust_greedy_battery():
    rng = PhiloxRNG(31)
    for trial in range(50):
        m = 1 + rng.randbelow(12)
        edges = []
        for _ in range(m):
            a, b = rng.randbelow(9), rng.randbelow(9)
            if a != b:
                edges.append(Edge(a, b))
        assert robust_greedy_check(edges).ok


# ------------------------------------------------------------------ properties


edge_streams = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda t: t[0] != t[1]),
    max_size=18,
).map(lambda ts: [Edge(a, b) for a, b in ts])


@given(edge_streams)
@settings(max_examples=80, deadline=None)
def test_greedy_output_is_maximal_matching(edges):
    m = greedy_matching(edges)
    validate_matching(m)
    for e in edges:
        assert not (m.is_free(e.u) and m.is_free(e.v))


@given(edge_streams)
@settings(max_examples=60, deadline=None)
def test_match_run_valid_and_at_least_greedy(edges):
    m_star = len(exact_max_matching(edges))
    if m_star == 0:
        return
    out = match_run(edges, m_star)
    validate_matching(out)
    assert len(greedy_matching(edges)) <= len(out) <= m_star
    assert 2 * len(out) >= m_star  # maximality floor


@given(edge_streams)
@settings(max_examples=60, deadline=None)
def test_robust_greedy_is_a_theorem(edges):
    assert robust_greedy_check(edges).ok


@given(edge_streams, st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_collector_slots_bounded(edges, seed):
    m = greedy_matching(edges)
    if len(m) == 0:
        return
    store = AugPathStore(m)
    for e in edges:
        store.offer(e)
    store.sweep()
    assert store.max_slots <= COLLECTOR_SLOTS_PER_EDGE * len(m)
    committed = store.paths()
    used = [v for p in committed for v in p.free_endpoints()]
    assert len(used) == len(set(used))
    for p in committed:
        assert p.center in m
        assert m.is_free(p.free_endpoints()[0])
        assert m.is_free(p.free_endpoints()[1])


@given(edge_streams, edge_streams)
@settings(max_examples=200, deadline=None)
def test_collector_sweep_commits_nothing(prefix, suffix):
    """Every wing pair is tried when its later wing arrives and used vertices
    stay used, so the end-of-stream sweep adds no path."""
    store = AugPathStore(greedy_matching(prefix))
    for e in suffix:
        store.offer(e)
    committed, used = dict(store.committed), set(store.used)
    store.sweep()
    assert store.committed == committed and store.used == used
