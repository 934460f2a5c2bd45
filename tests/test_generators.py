"""Instance generators and adversary plans."""

import math
from fractions import Fraction

import pytest

from injectstream.errors import PreconditionError
from injectstream.generators import (
    ADVERSARY_STRATEGIES,
    MATCHING_KINDS,
    SUBMOD_KINDS,
    edges_from_stream,
    generate_matching_instance,
    generate_submod_instance,
    make_plan,
    random_edge_stream,
)
from injectstream.matching import (
    BETA,
    COLLECTOR_SLOTS_PER_EDGE,
    EPS,
    AugPathStore,
    Edge,
    exact_max_matching,
    greedy_matching,
    validate_matching,
)
from injectstream.stream_model import Element, InstanceSplit, build_stream, enumerate_streams
from injectstream.submodular import CoverageOracle, brute_force_opt, verify_axioms

from reference_matching import count_3_augmentable, generate_planted_3aug, sample_matching_pair


# -------------------------------------------------------------------- plans


def split_with_noise(n_good, n_noise):
    return InstanceSplit(
        good=tuple(Element(f"g{i}") for i in range(n_good)),
        noise=tuple(Element(f"n{i}") for i in range(n_noise)),
    )


def test_plan_strategies_slots():
    split = split_with_noise(4, 3)
    front = make_plan(split, "front")
    assert all(slot == 0 for slot, _ in front.entries)
    back = make_plan(split, "back")
    assert all(slot == 4 for slot, _ in back.entries)
    spread = make_plan(split, "spread")
    assert [slot for slot, _ in spread.entries] == [0, 1, 2]
    rand = make_plan(split, "random", seed=3)
    assert all(0 <= slot <= 4 for slot, _ in rand.entries)
    for plan in (front, back, spread, rand):
        plan.validate(split)
    with pytest.raises(PreconditionError):
        make_plan(split, "clairvoyant")


def test_plans_are_blind_to_payloads():
    """Same shape and seed, different payloads: identical plan."""
    a = InstanceSplit(
        good=tuple(Element(f"g{i}", payload=i) for i in range(5)),
        noise=(Element("n0", payload="x"),),
    )
    b = InstanceSplit(
        good=tuple(Element(f"g{i}", payload=99 - i) for i in range(5)),
        noise=(Element("n0", payload="y"),),
    )
    assert make_plan(a, "random", seed=7) == make_plan(b, "random", seed=7)


def test_random_plan_deterministic_in_seed():
    split = split_with_noise(6, 4)
    assert make_plan(split, "random", seed=1) == make_plan(split, "random", seed=1)
    plans = {make_plan(split, "random", seed=s) for s in range(10)}
    assert len(plans) > 1


# ------------------------------------------------------------ submod kinds


def test_figure2_kind():
    inst, split = generate_submod_instance("figure2")
    assert {e.id for e in split.good} == {"A", "B"}
    assert {e.id for e in split.noise} == {"C", "D"}
    oracle = CoverageOracle(inst)
    assert oracle.evaluate({e.id for e in split.good}) == 5


@pytest.mark.parametrize("kind", SUBMOD_KINDS)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_generated_good_set_is_an_optimum_of_the_runs_k(kind, k):
    """Every submod kind's good set is worth OPT at the run's k, figure2's too."""
    inst, split = generate_submod_instance(kind, {"k": k}, seed=k)
    oracle = CoverageOracle(inst)
    assert len(split.good) <= k
    good = oracle.evaluate({e.id for e in split.good})
    assert good == brute_force_opt(oracle, inst.ground_set(), k).value


def test_random_kind_good_is_optimum():
    for seed in range(5):
        inst, split = generate_submod_instance(
            "random", {"n": 12, "k": 3, "universe": 20, "max_points": 5}, seed=seed
        )
        oracle = CoverageOracle(inst)
        opt = brute_force_opt(oracle, inst.ground_set(), 3)
        assert oracle.evaluate({e.id for e in split.good}) == opt.value
        assert len(split.good) <= 3
        assert verify_axioms(oracle, inst.ground_set(), sample_pairs=300, seed=1).ok


def test_decoy_front_kind():
    inst, split = generate_submod_instance("decoy_front", {"k": 3, "block": 5})
    oracle = CoverageOracle(inst)
    assert oracle.evaluate({e.id for e in split.good}) == 15  # k disjoint blocks
    # each decoy covers block-1 points of one block
    for e in split.noise:
        assert oracle.evaluate({e.id}) == 4
    opt = brute_force_opt(oracle, inst.ground_set(), 3)
    assert opt.value == 15


def test_kind_normalization_and_errors():
    inst, split = generate_submod_instance("decoy-front", {"k": 2, "block": 4})
    assert len(split.good) == 2
    with pytest.raises(PreconditionError):
        generate_submod_instance("mystery")


@pytest.mark.parametrize("kind", SUBMOD_KINDS)
def test_generation_never_checks_axioms(kind, monkeypatch):
    """Coverage is submodular by construction; axioms are checked in tests and verify."""
    from injectstream import generators, submodular

    def fail(*args, **kwargs):
        raise AssertionError("verify_axioms called during generation")

    monkeypatch.setattr(generators, "verify_axioms", fail)
    monkeypatch.setattr(submodular, "verify_axioms", fail)
    params = {"k": 2, "n": 10} if kind == "random" else {"k": 2}  # n is random's alone
    inst, split = generate_submod_instance(kind, params, seed=3)
    assert split.good and inst.rect_of


# ---------------------------------------------------------- matching kinds


def test_random_bipartite_kind():
    split, m_star = generate_matching_instance("random_bipartite", {"nl": 6, "nr": 6, "p": 0.4}, seed=2)
    edges = [e.payload for e in split.good + split.noise]
    assert m_star == len(split.good)
    assert m_star == len(exact_max_matching(edges))


@pytest.mark.parametrize("kind", MATCHING_KINDS)
def test_matching_payloads_are_edges(kind):
    """Generated matching elements carry their Edge; the stream hands it on as is."""
    split, _ = generate_matching_instance(kind, {}, seed=5)
    elements = split.good + split.noise
    assert all(type(el.payload) is Edge for el in elements)
    assert all(e is el.payload for e, el in zip(edges_from_stream(elements), elements))


def test_greedy_trap_kind_stalls_greedy_everywhere():
    split, m_star = generate_matching_instance("greedy_trap", {"s": 4}, seed=0)
    assert m_star == 8
    plan = make_plan(split, "front")
    for s in enumerate_streams(split, plan):
        m = greedy_matching(edges_from_stream(s))
        assert len(m) == 4  # stalls at s for every permutation


def test_trap_instance_match_run_recovers():
    from injectstream.matching import match_run

    split, m_star = generate_matching_instance("greedy_trap", {"s": 6}, seed=0)
    plan = make_plan(split, "front")
    stream = build_stream(split, plan, seed=11)
    out = match_run(edges_from_stream(stream), m_star)
    assert len(out) >= (1 + BETA**2 / 32) * (Fraction(1, 2) - EPS) * m_star - 1


def test_unknown_matching_kind():
    with pytest.raises(PreconditionError):
        generate_matching_instance("star", {}, seed=0)


# ------------------------------------------------------------------ planted


def test_planted_3aug_instances():
    beta = Fraction(157, 192)
    for seed in range(10):
        inst = generate_planted_3aug(seed)
        validate_matching(inst.matching)
        s = len(inst.matching)
        assert inst.planted == math.ceil(s * beta)
        store = AugPathStore(inst.matching)
        for e in inst.suffix:
            store.offer(e)
        store.sweep()
        committed = store.paths()
        assert len(committed) >= math.ceil(s * beta**2 / 32)  # the contract floor
        assert store.max_slots <= COLLECTOR_SLOTS_PER_EDGE * s


def test_planted_3aug_commits_all_planted():
    """Distractors never cost a planted path its commit."""
    for seed in range(10):
        inst = generate_planted_3aug(seed, size_range=(10, 30))
        store = AugPathStore(inst.matching)
        for e in inst.suffix:
            store.offer(e)
        store.sweep()
        assert len(store.paths()) == inst.planted


# ------------------------------------------------------------------ sampler


def test_sample_matching_pair_contract():
    for seed in range(25):
        m, m_star = sample_matching_pair(seed)
        validate_matching(m)
        validate_matching(m_star)
        aug = count_3_augmentable(m, m_star)  # precondition inside: M maximal
        assert 0 <= aug <= len(m)
        # the generator's size promise
        assert 25 * len(m) <= 13 * len(m_star)


def test_random_edge_stream_shape():
    edges = random_edge_stream(seed=4, max_edges=12, n_vertices=6)
    assert 1 <= len(edges) <= 12
    assert all(e.u != e.v for e in edges)
    assert edges == random_edge_stream(seed=4, max_edges=12, n_vertices=6)
