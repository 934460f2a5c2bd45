"""Acceptance gate: one test and one printed verdict line per criterion.

Budgeted batteries with fixed seeds throughout; wall-clock limits are part
of the criteria they belong to.  Verdict lines collect in VERDICTS and the
conftest terminal-summary hook replays them after capture ends, so the log
always carries them.
"""

import math
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from injectstream.generators import (
    ADVERSARY_STRATEGIES,
    generate_matching_instance,
    generate_submod_instance,
    make_plan,
)
from injectstream.matching import (
    BETA,
    COLLECTOR_SLOTS_PER_EDGE,
    EPS,
    AugPathStore,
    exact_max_matching,
    greedy_matching,
    match_run,
    robust_greedy_check,
    validate_matching,
)
from injectstream.generators import edges_from_stream, random_edge_stream
from injectstream.recurrence import (
    compute_table,
    first_term_dominance,
    min_diagonal,
)
from injectstream.rng import PhiloxRNG
from injectstream.stream_model import Element, build_stream, enumerate_streams
from injectstream.submodular import (
    AdditiveOracle,
    CoverageInstance,
    CoverageOracle,
    GroundSet,
    WeightedCoverageOracle,
    brute_force_opt,
    figure2_instance,
    verify_axioms,
)
from injectstream.tree_stream import (
    PrefixTree,
    RunStats,
    best_solution,
    guess_run,
    live_guess_bound,
    node_count_bound,
    run_tree_stream,
    run_tree_streams,
    tree_process,
)
from reference_matching import count_3_augmentable, generate_planted_3aug, sample_matching_pair
from reference_recurrence import streamed_cells


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        _verdict(f"[FAIL] criterion {num:2d}: {text}")
        raise
    _verdict(f"[PASS] criterion {num:2d}: {text}")


VERDICTS: list = []


def _verdict(line):
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


def battery_instance(i, rng):
    """Instance i of the shared 50-instance submodular battery (criteria 5, 6
    and the exact-expectation test)."""
    k = (2, 3, 4)[i % 3]
    if i % 2 == 0:
        n = 15 + rng.randbelow(14)
        inst, split = generate_submod_instance(
            "random", {"n": n, "k": k, "universe": 30, "max_points": 5}, seed=100 + i
        )
        strat = ("random", "front", "spread", "back")[i % 4]
    else:
        inst, split = generate_submod_instance(
            "decoy_front", {"k": k, "block": 6, "decoys_per_block": 4}, seed=100 + i
        )
        strat = "front"
    return inst, split, k, make_plan(split, strat, seed=i)


def expected_ratios(split, plan, k, oracle, opt):
    """E[best]/OPT as a Fraction over all |good|! orders of the good set, for
    the exact tree, the bucketed tree at g = OPT and ``guess_run``, at delta 0.1."""
    streams = enumerate_streams(split, plan)
    values = {
        "exact": [s.value for s, _ in run_tree_streams(streams, k, "0.1", oracle, mode="exact")],
        "bucketed": [s.value for s, _ in run_tree_streams(
            streams, k, "0.1", oracle, mode="bucketed", g=opt)],
        "guessed": [guess_run(s, k, "0.1", oracle).value for s in streams],
    }
    return {mode: Fraction(sum(v), len(streams) * opt) for mode, v in values.items()}


def test_criterion_01_certified_recurrence_bound():
    with criterion(1, "R(k,k) >= 0.5506 certified exactly to k=1000; float min to k=10000"):
        t0 = time.perf_counter()
        exact = compute_table(t="0.8", k_max=1000, mode="exact")
        m = min_diagonal(exact, 1, 1000)
        elapsed = time.perf_counter() - t0
        assert m >= Fraction(5506, 10000)
        assert elapsed < 5.0

        t0 = time.perf_counter()
        flt = compute_table(t=0.8, k_max=10000, mode="float")
        mf = min_diagonal(flt, 1, 10000)
        elapsed = time.perf_counter() - t0
        assert 0.5506 <= mf <= 0.5507
        assert elapsed < 60.0


def test_criterion_02_first_term_dominance():
    with criterion(2, "first term attains every minimum for 1000 <= k <= 5000; closed form to 1e-12"):
        report = first_term_dominance(0.8, 5000, 1000)
        assert report.violation_count == 0
        assert report.ok
        assert report.closed_form_max_dev <= 1e-12
        # spot-check the closed form against the stable evaluation directly
        cells = streamed_cells(0.8, 5000, rows=(1000, 2500, 5000))
        for k in (1000, 2500, 5000):
            for h in (1, k // 2, k):
                closed = -math.expm1(h * math.log1p(-0.8 / k))
                assert abs(cells[k, h][0] - closed) <= 1e-12


def test_criterion_03_figure2_tree_reproduction():
    with criterion(3, "worked example: tree on (A,B,C,D), k=2, exact node set and best value 5"):
        instance, k = figure2_instance()
        oracle = CoverageOracle(instance)
        tree = PrefixTree(k, oracle)
        for eid in ("A", "B", "C", "D"):
            tree_process(tree, Element(eid))
        root_gains = {c.element.id: c.gain for c in tree.root.children.values()}
        assert root_gains == {"A": 2, "B": 4, "D": 1}
        node_a = next(c for c in tree.root.children.values() if c.element.id == "A")
        assert {c.element.id: c.gain for c in node_a.children.values()} == {
            "B": 3, "C": 2, "D": 1
        }
        node_b = next(c for c in tree.root.children.values() if c.element.id == "B")
        assert {c.element.id: c.gain for c in node_b.children.values()} == {"C": 1}
        node_d = next(c for c in tree.root.children.values() if c.element.id == "D")
        assert node_d.children == {}
        assert tree.size == 8
        best = best_solution(tree)
        assert best.elements == frozenset({"A", "B"}) and best.value == 5


def test_criterion_04_half_floor_exhaustive():
    with criterion(4, "exact best >= OPT/2 on 200 instances x all permutations x all plans; bucketed >= 0.45 OPT"):
        rng = PhiloxRNG(2024)
        instances = 0
        runs = 0
        while instances < 200:
            n = 6 + rng.randbelow(11)
            k = 2 + rng.randbelow(3)
            inst, split = generate_submod_instance(
                "random",
                {"n": n, "k": k, "universe": 4 + n, "max_points": 5},
                seed=instances,
            )
            oracle = CoverageOracle(inst)
            opt = brute_force_opt(oracle, inst.ground_set(), k)
            if opt.value == 0:
                continue
            instances += 1
            for strat in ADVERSARY_STRATEGIES:
                plan = make_plan(split, strat, seed=instances)
                streams = enumerate_streams(split, plan)
                exact = run_tree_streams(streams, k, "0.05", oracle, mode="exact")
                bucketed = run_tree_streams(
                    streams, k, "0.05", oracle, mode="bucketed", g=opt.value
                )
                for (exact_sol, _), (bucketed_sol, _) in zip(exact, bucketed, strict=True):
                    assert 2 * exact_sol.value >= opt.value  # no exceptions allowed
                    assert bucketed_sol.value >= 0.45 * opt.value
                    runs += 1
        assert runs >= 200 * len(ADVERSARY_STRATEGIES)


def test_criterion_05_empirical_055():
    with criterion(5, "mean best/OPT over 200 permutations >= 0.53 on each of 50 instances"):
        t0 = time.perf_counter()
        rng = PhiloxRNG(55)
        for i in range(50):
            inst, split, k, plan = battery_instance(i, rng)
            oracle = CoverageOracle(inst)
            opt = brute_force_opt(oracle, inst.ground_set(), k)
            assert opt.value > 0
            total = 0.0
            streams = [build_stream(split, plan, seed=7_000_000 + 997 * i + p) for p in range(200)]
            for sol, _ in run_tree_streams(streams, k, "0.1", oracle, mode="exact"):
                total += sol.value / opt.value
            assert total / 200 >= 0.53
        assert time.perf_counter() - t0 < 600.0


def test_exact_expectation_on_the_criterion_05_battery():
    """Criterion 5's battery with the expectation taken exactly: in every
    mode, E[best]/OPT over all orders is at least 11/20 on each instance,
    and the battery minimum is pinned."""
    rng = PhiloxRNG(55)
    lowest = {}
    for i in range(50):
        inst, split, k, plan = battery_instance(i, rng)
        oracle = CoverageOracle(inst)
        opt = brute_force_opt(oracle, inst.ground_set(), k).value
        for mode, ratio in expected_ratios(split, plan, k, oracle, opt).items():
            assert ratio >= Fraction(11, 20), (i, mode, ratio)
            lowest[mode] = min(lowest.get(mode, (ratio, i)), (ratio, i))
    assert lowest == dict.fromkeys(("exact", "bucketed", "guessed"), (Fraction(65, 68), 2))


def test_criterion_06_guessing_overhead():
    with criterion(6, "guess_run >= (1-d)/(1+d) of the known-OPT run, live guesses within bound"):
        rng = PhiloxRNG(55)
        floor = (1 - 0.1) / (1 + 0.1)
        for i in range(50):
            inst, split, k, plan = battery_instance(i, rng)
            oracle = CoverageOracle(inst)
            s = build_stream(split, plan, seed=7_000_000 + 997 * i)
            known = run_tree_stream(s, k, "0.1", oracle, mode="exact")
            stats = RunStats()
            guessed = guess_run(s, k, 0.1, oracle, stats=stats)
            assert guessed.value >= floor * known.value
            assert stats.guesses_live_max <= live_guess_bound(k, 0.1)


def test_criterion_07_memory_independent_of_stream_length():
    with criterion(7, "live node count bounded by node_count_bound(3, 0.2) = 5220 at lengths 1e3 and 1e5"):
        bound = node_count_bound(3, "0.2")
        assert bound == 5220
        counts = {}
        for length in (10**3, 10**5):
            weights = {i: (1, 5, 8)[i % 3] for i in range(length)}
            oracle = AdditiveOracle(weights)
            stream = (Element(i) for i in range(length))
            stats = RunStats()
            sol = run_tree_stream(stream, 3, "0.2", oracle,
                                  mode="bucketed", g=24, stats=stats)
            assert stats.nodes_live_max <= bound
            counts[length] = stats.nodes_live_max
            assert sol.value == 24  # three 8s exist at either length
        # same weight content, same tree: the count is length-independent
        assert counts[10**3] == counts[10**5]


def test_criterion_08_robust_greedy():
    with criterion(8, "greedy sizes move by at most 1 under any single deletion; 500 streams"):
        for seed in range(500):
            edges = random_edge_stream(seed=seed, max_edges=15, n_vertices=10)
            report = robust_greedy_check(edges)
            assert report.ok
            assert all(abs(s - report.base_size) <= 1 for s in report.deleted_sizes)


def test_criterion_09_three_aug_collector_contract():
    with criterion(9, "collector returns >= ceil((beta^2/32)|M|) disjoint valid paths on 100 planted suffixes"):
        beta = Fraction(157, 192)
        for seed in range(100):
            planted = generate_planted_3aug(seed, size_range=(20, 100))
            M = planted.matching
            store = AugPathStore(M)
            for e in planted.suffix:
                store.offer(e)
            store.sweep()
            paths = store.paths()
            assert len(paths) >= math.ceil(len(M) * beta**2 / 32)
            used = set()
            for p in paths:
                x, y = p.free_endpoints()
                assert p.center in M
                assert M.is_free(x) and M.is_free(y) and x != y
                assert not used & {x, y}
                used |= {x, y}
            assert store.max_slots <= COLLECTOR_SLOTS_PER_EDGE * len(M)


def test_criterion_10_match_beats_half():
    with criterion(10, "case-1 instances clear (1+beta^2/32)(1/2-eps)m*-1; all runs at least maximal"):
        lift = (1 + BETA**2 / 32) * (Fraction(1, 2) - EPS)
        for s_param in (25, 40, 60, 100):
            split, m_star = generate_matching_instance("greedy_trap", {"s": s_param}, seed=0)
            plan = make_plan(split, "front")
            for p in range(10):
                stream = build_stream(split, plan, seed=31 * s_param + p)
                edges = edges_from_stream(stream)
                out = match_run(edges, m_star)
                validate_matching(out)
                assert len(out) >= lift * m_star - 1
                assert len(greedy_matching(edges)) == s_param  # the stall is real

        # statistical sanity across mixed instances
        total, runs = 0.0, 0
        for i in range(50):
            if i % 2 == 0:
                split, m_star = generate_matching_instance(
                    "random_bipartite", {"nl": 8, "nr": 8, "p": 0.35}, seed=i
                )
                strat = ("random", "front")[i % 4 == 0]
            else:
                split, m_star = generate_matching_instance(
                    "greedy_trap", {"s": 5 + i % 7}, seed=i
                )
                strat = "front"
            if m_star == 0:
                continue
            plan = make_plan(split, strat, seed=i)
            for p in range(200):
                stream = build_stream(split, plan, seed=10_000 * i + p)
                edges = edges_from_stream(stream)
                out = match_run(edges, m_star)
                assert len(out) >= len(greedy_matching(edges))
                total += len(out) / m_star
                runs += 1
        assert runs >= 9000
        assert total / runs >= 0.5


def test_criterion_11_lemma5_bound():
    with criterion(11, "non-3-augmentable M-edges <= 4*alpha*|M*| on 500 sampled pairs"):
        alpha = Fraction(1, 50)
        for seed in range(500):
            M, M_star = sample_matching_pair(seed)
            aug = count_3_augmentable(M, M_star)
            non_aug = len(M) - aug
            assert non_aug <= 4 * alpha * len(M_star)


def test_criterion_12_axiom_suite():
    with criterion(12, "verify_axioms exhaustive and empty on every shipped oracle family"):
        inst, k = figure2_instance()
        assert verify_axioms(CoverageOracle(inst), inst.ground_set()).ok

        rand_inst, _ = generate_submod_instance(
            "random", {"n": 10, "k": 3, "universe": 16, "max_points": 5}, seed=12
        )
        rep = verify_axioms(CoverageOracle(rand_inst), rand_inst.ground_set())
        assert rep.ok and rep.exhaustive

        decoy_inst, _ = generate_submod_instance("decoy_front", {"k": 2, "block": 5}, seed=0)
        rep = verify_axioms(CoverageOracle(decoy_inst), decoy_inst.ground_set())
        assert rep.ok and rep.exhaustive

        weights = {pt: Fraction(1 + (i % 5), 3) for i, pt in enumerate(sorted(rand_inst.universe, key=repr))}
        rep = verify_axioms(WeightedCoverageOracle(rand_inst, weights), rand_inst.ground_set())
        assert rep.ok and rep.exhaustive
        float_weights = {pt: 0.25 + (i % 7) / 7 for i, pt in enumerate(sorted(rand_inst.universe, key=repr))}
        rep = verify_axioms(WeightedCoverageOracle(rand_inst, float_weights), rand_inst.ground_set())
        assert rep.ok and rep.exhaustive

        additive = AdditiveOracle({i: 1 + (i % 4) for i in range(10)})
        rep = verify_axioms(additive, GroundSet(tuple(range(10))))
        assert rep.ok and rep.exhaustive
