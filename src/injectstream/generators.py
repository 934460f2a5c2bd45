"""Instance and adversary generators for the experiment harness.

Submodular instances are coverage functions; the good set is an optimal
k-subset of the generated ground set and the remaining elements are the
injectable noise.  For figure2 and random the good set is the brute-force
optimum, so it is optimal by definition; for decoy_front it is the k
disjoint blocks, and no k sets can cover more than k blocks' worth of
points.  Generation does not re-check either fact, nor the oracle axioms
(coverage is submodular by construction): the tests and ``injectstream
verify`` check those.

Matching instances carry :class:`~injectstream.matching.Edge` objects as
element payloads; the good elements are the edges of a maximum matching of
the generated graph.

Adversary strategies are blind: each one maps (number of good elements,
noise ids, seed) to an injection plan and never sees the permutation, which
is the model's information constraint.
"""

from __future__ import annotations

from typing import Optional

from .errors import PreconditionError
from .matching import Edge, exact_max_matching
from .rng import PhiloxRNG, fisher_yates
from .stream_model import Element, InjectionPlan, InstanceSplit
from .submodular import CoverageInstance, CoverageOracle, brute_force_opt, figure2_instance
from .submodular import verify_axioms  # noqa: F401 - perfbench's tracer wraps it by this name

SUBMOD_KINDS = ("figure2", "random", "decoy_front")
MATCHING_KINDS = ("random_bipartite", "greedy_trap")
#: other names accepted for a matching kind; ``random`` is the default config's kind
_MATCHING_ALIASES = {"random": "random_bipartite", "case1": "greedy_trap"}
ADVERSARY_STRATEGIES = ("front", "back", "spread", "random")


#: generator kind -> its params and their defaults; figure2's instance is
#: fixed, and its good set is an optimum of the k the harness passes
KIND_PARAMS = {
    "figure2": {"k": 2},
    "random": {"n": 20, "k": 3, "universe": 30, "max_points": 6},
    "decoy_front": {"k": 3, "block": 5, "decoys_per_block": 3},
    "random_bipartite": {"nl": 8, "nr": 8, "p": 0.3},
    "greedy_trap": {"s": 25},
}


def kind_params(problem: str, kind: str, params: Optional[dict]) -> tuple[str, dict]:
    """The generator kind ``kind`` names for ``problem`` ("submod" or
    "matching"), and ``params`` over that kind's defaults.

    Hyphens read as underscores.  An unknown kind or param name, a value
    that is not an integer (``p`` may be any real number), or a value
    outside the range the kind generates with raises PreconditionError.
    """
    name = str(kind).replace("-", "_")
    kinds = SUBMOD_KINDS
    if problem == "matching":
        kinds, name = MATCHING_KINDS, _MATCHING_ALIASES.get(name, name)
    if name not in kinds:
        raise PreconditionError(f"{problem} kind must be one of {', '.join(kinds)}; got {kind!r}")
    defaults = KIND_PARAMS[name]
    for key, value in (params or {}).items():
        if key not in defaults:
            raise PreconditionError(f"{name} param {key!r} is unknown; it takes {', '.join(defaults)}")
        real = key == "p"
        if isinstance(value, bool) or not isinstance(value, (int, float) if real else int):
            wanted = "a number" if real else "an integer"
            raise PreconditionError(f"{name} param {key} must be {wanted}; got {value!r}")
    merged = {**defaults, **(params or {})}
    _check_ranges(name, merged)
    return name, merged


def _check_ranges(kind: str, p: dict) -> None:
    if kind == "random":
        if not 1 <= p["k"] <= p["n"]:
            raise PreconditionError("need 1 <= k <= n")
        if p["max_points"] < 1 or p["universe"] < p["max_points"]:
            raise PreconditionError("need 1 <= max_points <= universe")
    elif kind == "decoy_front":
        if p["k"] < 1 or p["block"] < 2 or p["decoys_per_block"] < 0:
            raise PreconditionError("need k >= 1, block >= 2, decoys_per_block >= 0")
        if p["decoys_per_block"] > p["block"]:
            raise PreconditionError("at most `block` distinct decoys per block")
    elif kind == "random_bipartite":
        if p["nl"] < 1 or p["nr"] < 1 or not 0 < p["p"] <= 1:
            raise PreconditionError("need nl, nr >= 1 and p in (0, 1]")
    elif kind == "greedy_trap" and p["s"] < 1:
        raise PreconditionError("need s >= 1")


# ---------------------------------------------------------------------------
# blind adversary plans


def make_plan(split: InstanceSplit, strategy: str, seed: int = 0) -> InjectionPlan:
    """Injection plan from a named blind strategy.

    front: everything in slot 0.  back: everything after the last good
    element.  spread: round-robin over slots 0..n_good.  random: uniform
    slot per noise element (Philox on seed).  Each places every noise id
    once, in a slot of [0, n_good], so the plan is valid by construction.
    """
    n = split.n_good
    ids = [e.id for e in split.noise]
    if strategy == "front":
        entries = [(0, i) for i in ids]
    elif strategy == "back":
        entries = [(n, i) for i in ids]
    elif strategy == "spread":
        entries = [(j % (n + 1), i) for j, i in enumerate(ids)]
    elif strategy == "random":
        entries = list(zip(PhiloxRNG(seed).randbelow_many([n + 1] * len(ids)), ids))
    else:
        raise PreconditionError(f"unknown adversary strategy {strategy!r}")
    return InjectionPlan(entries=tuple(entries))


# ---------------------------------------------------------------------------
# submodular instances


def generate_submod_instance(
    kind: str, params: Optional[dict] = None, seed: int = 0
) -> tuple[CoverageInstance, InstanceSplit]:
    """Coverage instance plus a good/noise split; good = an optimal k-set.

    Kinds: figure2 (the fixed 4-rectangle instance, param k); random (n sets
    over a point universe, params n/k/universe/max_points); decoy_front
    (k disjoint blocks as the optimum, noise sets are block subsets one
    point short, params k/block/decoys_per_block).
    """
    kind, params = kind_params("submod", kind, params)
    if kind == "figure2":
        instance, _ = figure2_instance()
        return instance, _split_by_opt(instance, params["k"])
    if kind == "random":
        return _random_coverage(seed, **params)
    return _decoy_front(seed, **params)


def _split(instance: CoverageInstance, good_ids) -> InstanceSplit:
    """Good elements in ``good_ids`` order; the others, sorted by repr, are noise."""
    rect_of = instance.rect_of
    chosen = set(good_ids)
    good = tuple(Element(id=i, payload=rect_of[i]) for i in good_ids)
    noise = tuple(
        Element(id=i, payload=rect_of[i]) for i in sorted(rect_of, key=repr) if i not in chosen
    )
    return InstanceSplit(good=good, noise=noise)


def _split_by_opt(instance: CoverageInstance, k: int) -> InstanceSplit:
    opt = brute_force_opt(CoverageOracle(instance), instance.ground_set(), k)
    return _split(instance, sorted(opt.elements, key=repr))


def _random_coverage(
    seed: int, n: int, k: int, universe: int, max_points: int
) -> tuple[CoverageInstance, InstanceSplit]:
    rng = PhiloxRNG(seed)
    rects = {}
    for i in range(n):
        size = 1 + rng.randbelow(max_points)
        pts = set()
        while len(pts) < size:
            pts.add(rng.randbelow(universe))
        rects[i] = frozenset(pts)
    instance = CoverageInstance(rect_of=rects)
    return instance, _split_by_opt(instance, k)


def _decoy_front(
    seed: int, k: int, block: int, decoys_per_block: int
) -> tuple[CoverageInstance, InstanceSplit]:
    rng = PhiloxRNG(seed)
    rects = {}
    for b in range(k):
        points = frozenset(range(b * block, (b + 1) * block))
        rects[f"g{b}"] = points
        dropped = fisher_yates(sorted(points), rng)[:decoys_per_block]
        for j, pt in enumerate(dropped):
            rects[f"n{b}_{j}"] = points - {pt}
    instance = CoverageInstance(rect_of=rects)
    return instance, _split(instance, [f"g{b}" for b in range(k)])


# ---------------------------------------------------------------------------
# matching instances


def generate_matching_instance(
    kind: str, params: Optional[dict] = None, seed: int = 0
) -> tuple[InstanceSplit, int]:
    """Edge-element split plus the exact maximum matching size.

    Kinds: random_bipartite (params nl/nr/p); greedy_trap (params s: the
    optimum is a perfect matching of 2s pairs, the noise is s cross edges
    that block half of it when they arrive first).  Element payloads are
    :class:`Edge` objects; good elements are a maximum matching's edges.
    """
    kind, params = kind_params("matching", kind, params)
    if kind == "random_bipartite":
        return _random_bipartite(seed, **params)
    return _greedy_trap(**params)


def _random_bipartite(seed: int, nl: int, nr: int, p: float) -> tuple[InstanceSplit, int]:
    scale = 10**6
    draws = iter(PhiloxRNG(seed).randbelow_many([scale] * (nl * nr)))
    edges = [
        Edge(f"L{u}", f"R{v}") for u in range(nl) for v in range(nr) if next(draws) < p * scale
    ]
    if not edges:
        edges.append(Edge("L0", "R0"))
    mstar = exact_max_matching(edges)
    in_mstar = set(mstar.edges)
    good = tuple(Element(id=i, payload=e) for i, e in enumerate(mstar.edges))
    noise = tuple(
        Element(id=len(good) + j, payload=e)
        for j, e in enumerate(e for e in edges if e not in in_mstar)
    )
    return InstanceSplit(good=good, noise=noise), len(mstar)


def _greedy_trap(s: int) -> tuple[InstanceSplit, int]:
    # pair j is (2j, 2j+1) for j < 2s; cross i ties pair 2i to pair 2i+1
    good = tuple(Element(j, Edge(2 * j, 2 * j + 1)) for j in range(2 * s))
    noise = tuple(Element(2 * s + i, Edge(4 * i + 1, 4 * i + 2)) for i in range(s))
    return InstanceSplit(good=good, noise=noise), 2 * s


def edges_from_stream(stream) -> list[Edge]:
    """The Edge payloads of a matching element stream, in arrival order."""
    return [el.payload for el in stream]


def random_edge_stream(
    seed: int, max_edges: int = 15, n_vertices: int = 10
) -> list[Edge]:
    """Random edge stream (repeats allowed) for robustness checks."""
    if n_vertices < 2:
        raise PreconditionError("need n_vertices >= 2")
    rng = PhiloxRNG(seed)
    count = 1 + rng.randbelow(max_edges)
    out = []
    while len(out) < count:
        u = rng.randbelow(n_vertices)
        v = rng.randbelow(n_vertices)
        if u != v:
            out.append(Edge(u, v))
    return out
