"""Branch 2 frozen from M1 against the duplicate-greedy reference in reference_matching.py."""

from hypothesis import given, settings
from hypothesis import strategies as st

from injectstream.generators import random_edge_stream
from injectstream.matching import GuessRunStats, geometric_guess_run, match_run
from reference_matching import ref_geometric_guess_run, ref_match_run

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
