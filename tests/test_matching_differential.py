"""Branch 2 frozen from M1 and the path collector against the references in
reference_matching.py, on random streams and on the greedy trap, and the
collector reading a prefix of a growing M1 against one built on that prefix
alone."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injectstream import geomgrid, matching
from injectstream.errors import InvariantError
from injectstream.generators import generate_matching_instance, make_plan, random_edge_stream
from injectstream.matching import (
    AugPathStore,
    GuessRunStats,
    Matching,
    geometric_guess_run,
    greedy_matching,
    greedy_step,
    match_run,
)
from injectstream.stream_model import build_stream
from reference_matching import RefAugPathStore, ref_geometric_guess_run, ref_match_run

streams = st.builds(
    random_edge_stream,
    seed=st.integers(0, 10**6),
    max_edges=st.integers(1, 120),
    n_vertices=st.integers(2, 40),
)


@settings(max_examples=300, deadline=None)
@given(streams, st.lists(st.integers(1, 60), min_size=1, max_size=4))
def test_match_run_matches_reference(edges, m_stars):
    for m_star in m_stars:
        assert list(match_run(edges, m_star)) == list(ref_match_run(edges, m_star))


@settings(max_examples=300, deadline=None)
@given(streams, st.lists(st.sampled_from([0.05, 0.1, 0.2, 0.5, 0.9]), min_size=1, max_size=3))
def test_geometric_guess_run_matches_reference(edges, deltas):
    for delta in deltas:
        stats = GuessRunStats()
        out = geometric_guess_run(edges, delta, stats=stats)
        ref, ref_live_max = ref_geometric_guess_run(edges, delta)
        assert list(out) == list(ref)
        assert stats.guesses_live_max == ref_live_max


@settings(max_examples=300, deadline=None)
@given(streams, st.integers(0, 10**6), st.integers(0, 120))
def test_collector_matches_reference(edges, seed, split):
    """Freeze greedy on a prefix, offer the rest plus a random tail to both."""
    frozen = greedy_matching(edges[:split])
    suffix = edges[split:] + random_edge_stream(seed, max_edges=120, n_vertices=40)
    store, ref = AugPathStore(frozen.copy()), RefAugPathStore(frozen.copy())
    for e in suffix:
        store.offer(e)
        ref.offer(e)
    store.sweep()
    ref.sweep()
    assert store.paths() == ref.paths()
    assert list(store.committed) == list(ref.committed)  # commit order
    assert (store.stored_wings, store.max_slots) == (ref.stored_wings, ref.max_slots)
    assert store.used == ref.used


@settings(max_examples=300, deadline=None)
@given(streams, st.integers(0, 10**6), st.integers(0, 30))
def test_store_on_growing_m1_matches_store_on_its_prefix(edges, seed, size):
    """Fed while greedy M1 grows past ``size``, a store over M1's first ``size``
    edges equals one built on a matching of just those edges."""
    stream = edges + random_edge_stream(seed, max_edges=120, n_vertices=40)
    m1 = Matching()
    store, prefix = AugPathStore(m1, size), None
    for e in stream:
        greedy_step(m1, e)
        if len(m1) < size:
            continue
        if prefix is None:
            prefix = AugPathStore(Matching(list(m1.edges)[:size]))
        store.offer(e)
        prefix.offer(e)
    if prefix is None:
        assert store.stored_wings == 0 and not store.committed
        return
    assert store.paths() == prefix.paths()
    assert list(store.committed) == list(prefix.committed)  # commit order
    assert (store.stored_wings, store.max_slots) == (prefix.stored_wings, prefix.max_slots)
    assert store.used == prefix.used


def trap_stream(s: int, adversary: str) -> tuple[list, int]:
    split, m_star = generate_matching_instance("greedy_trap", {"s": s})
    stream = build_stream(split, make_plan(split, adversary, seed=3), seed=5)
    return [el.payload for el in stream], m_star


@pytest.mark.parametrize("adversary", ["front", "random"])
@pytest.mark.parametrize("s", [400, 1000])
def test_runs_match_reference_on_the_greedy_trap(s, adversary):
    """At trap scale, where many guesses are live at once and most edges
    feed only some of them: the same edges in the same order."""
    edges, m_star = trap_stream(s, adversary)
    assert list(match_run(edges, m_star)) == list(ref_match_run(edges, m_star))
    stats = GuessRunStats()
    out = geometric_guess_run(edges, 0.1, stats=stats)
    ref, ref_live_max = ref_geometric_guess_run(edges, 0.1)
    assert list(out) == list(ref)
    assert stats.guesses_live_max == ref_live_max


@pytest.mark.parametrize("adversary", ["front", "random"])
def test_guess_run_looks_the_window_up_only_where_it_can_move(monkeypatch, adversary):
    """|M1| grows thousands of times on the s=4000 trap, while the live
    range takes 106 (front) and 117 (random) distinct values: the run calls
    geomgrid.window at most twice per distinct window, plus once."""
    edges, _ = trap_stream(4000, adversary)
    base, coef = 1.1, 4.0 / float(1 - 2 * matching.EPS)
    sizes = range(1, len(greedy_matching(edges)) + 1)
    distinct = len({geomgrid.window(s, base, coef) for s in sizes})
    calls = []
    window = geomgrid.window
    monkeypatch.setattr(geomgrid, "window", lambda *args: calls.append(args) or window(*args))
    geometric_guess_run(edges, 0.1)
    assert distinct <= len(calls) <= 2 * distinct + 1


def test_guess_run_on_the_trap_stays_small_in_memory():
    """Wings are stored as bare edges in two dicts per branch, with no
    tuple per wing or list per vertex: s=1000 under ``front`` peaks under
    4 MiB (4.4 MiB with a tuple and a list each)."""
    edges, _ = trap_stream(1000, "front")
    tracemalloc.start()
    try:
        geometric_guess_run(edges, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_guess_run_rejects_prefix_sizes_out_of_order(monkeypatch):
    """Edges are dispatched by bisecting the live prefix sizes, so sizes
    that decrease in exponent order must stop the run."""
    edges, _ = trap_stream(20, "front")
    monkeypatch.setattr(matching, "phase1_threshold", lambda m_star: 10**6 // m_star)
    with pytest.raises(InvariantError, match="prefix sizes decrease"):
        geometric_guess_run(edges, 0.1)


def _record_offers(mp: pytest.MonkeyPatch) -> tuple[list, list]:
    """Wrap ``AugPathStore.offer``: the edges offered, and those among them that
    are not a wing of the offering store's frozen prefix (both ends inside it,
    or both outside)."""
    offered, non_wings = [], []
    offer = AugPathStore.offer

    def recording_offer(store, e):
        index, size = store.M.index, store.size
        offered.append(e)
        if (index.get(e.u, size) < size) == (index.get(e.v, size) < size):
            non_wings.append(e)
        offer(store, e)

    mp.setattr(AugPathStore, "offer", recording_offer)
    return offered, non_wings


@settings(max_examples=200, deadline=None)
@given(streams, st.integers(1, 60), st.sampled_from([0.05, 0.1, 0.2, 0.5, 0.9]))
def test_runs_offer_only_wings(edges, m_star, delta):
    """Both runs dispatch an edge only to the branches whose prefix it is a wing of."""
    with pytest.MonkeyPatch.context() as mp:
        _, non_wings = _record_offers(mp)
        match_run(edges, m_star)
        geometric_guess_run(edges, delta)
    assert non_wings == []


@pytest.mark.parametrize("adversary", ["front", "random"])
def test_runs_offer_only_wings_on_the_greedy_trap(monkeypatch, adversary):
    edges, m_star = trap_stream(400, adversary)
    offered, non_wings = _record_offers(monkeypatch)
    match_run(edges, m_star)
    assert offered and non_wings == []
    del offered[:]
    geometric_guess_run(edges, 0.1)
    assert offered and non_wings == []
