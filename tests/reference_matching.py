"""The duplicate-greedy two-branch matching: a short reference the frozen-M1
branch 2 of ``injectstream.matching`` is tested against.

Branch 2 runs its own greedy until it holds ``threshold`` edges, and each
admitted guess starts from a copy of M1; the guess window is the inline
loop over ``snap_ceil_log``/``snap_floor_log``.  The path collector is
``RefAugPathStore``, the list-backed ``wings[center][side]`` table built at
freeze time.  Also the analysis oracles of the collector and lemma tests:
planted 3-augmenting-path instances, sampled (M, M*) pairs, and the count
of 3-augmentable M-edges.  Test-only.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from injectstream.errors import InvalidInstanceError, PreconditionError
from injectstream.geomgrid import snap_ceil_log, snap_floor_log
from injectstream.matching import (
    BETA,
    EPS,
    AugPath,
    Edge,
    Matching,
    apply_augmentations,
    greedy_step,
    phase1_threshold,
    validate_matching,
)
from injectstream.rng import PhiloxRNG, fisher_yates


class RefAugPathStore:
    """Per matched edge and side, the first 2 wings with distinct free
    endpoints; commit a center as soon as both sides hold a usable pair."""

    def __init__(self, M: Matching) -> None:
        self.M = M
        self.wings = {e: {e.u: [], e.v: []} for e in M.edges}
        self.committed = {}
        self.used = set()
        self.stored_wings = 0
        self.max_slots = len(M)

    def offer(self, e) -> None:
        u_matched, v_matched = not self.M.is_free(e.u), not self.M.is_free(e.v)
        if u_matched == v_matched:
            return
        side, free = (e.u, e.v) if u_matched else (e.v, e.u)
        center = self.M.matched[side]
        slots = self.wings[center][side]
        if any(w == free for _, w in slots) or len(slots) >= 2:
            return
        slots.append((e, free))
        self.stored_wings += 1
        self.max_slots = max(self.max_slots, len(self.M) + self.stored_wings)
        self._try_commit(center)

    def _try_commit(self, center) -> None:
        if center in self.committed:
            return
        for wa, x in self.wings[center][center.u]:
            for wb, y in self.wings[center][center.v]:
                if x not in self.used and y not in self.used and x != y:
                    self.committed[center] = AugPath(wing_a=wa, center=center, wing_b=wb)
                    self.used.update((x, y))
                    return

    def sweep(self) -> None:
        for center in self.M.edges:
            self._try_commit(center)

    def paths(self) -> list:
        return [self.committed[c] for c in self.M.edges if c in self.committed]


@dataclass
class MatchRunState:
    m1: Matching
    m2_phase1: Matching
    collector: Optional[RefAugPathStore]
    threshold: int

    def finish(self) -> Matching:
        m2 = self.m2_phase1
        if self.collector is not None:
            self.collector.sweep()
            m2 = apply_augmentations(self.m2_phase1, self.collector.paths())
        return m2 if len(m2) > len(self.m1) else self.m1


def _feed_branch2(state: MatchRunState, e) -> None:
    """Phase 1: greedy until the threshold; phase 2: offer to the collector."""
    if state.collector is None:
        if len(state.m2_phase1) < state.threshold:
            greedy_step(state.m2_phase1, e)
            if len(state.m2_phase1) >= state.threshold:
                state.collector = RefAugPathStore(state.m2_phase1)
            return
        state.collector = RefAugPathStore(state.m2_phase1)
    state.collector.offer(e)


def ref_match_run(edges, m_star) -> Matching:
    state = MatchRunState(Matching(), Matching(), None, phase1_threshold(m_star))
    for e in edges:
        greedy_step(state.m1, e)
        _feed_branch2(state, e)
    return state.finish()


def ref_geometric_guess_run(edges, delta_guess) -> tuple[Matching, int]:
    """(output, guesses_live_max)."""
    base = 1.0 + delta_guess
    upper_coef = 4.0 / float(1 - 2 * EPS)
    m1, branches, live_max = Matching(), {}, 0
    for e in edges:
        greedy_step(m1, e)
        if len(m1) >= 1:
            lo = snap_ceil_log(base, len(m1) / base)
            hi = snap_floor_log(base, upper_coef * len(m1))
            for i in [i for i in branches if i < lo or i > hi]:
                del branches[i]
            for i in range(lo, hi + 1):
                if i not in branches:
                    threshold = phase1_threshold(math.ceil(base**i))
                    branches[i] = MatchRunState(m1, m1.copy(), None, threshold)
            live_max = max(live_max, len(branches))
        for state in branches.values():
            _feed_branch2(state, e)
    best = m1
    for i in sorted(branches):
        out = branches[i].finish()
        if len(out) > len(best):
            best = out
    return best, live_max


def count_3_augmentable(M: Matching, M_star: Matching) -> int:
    """Number of M-edges that are middles of M*-M-M* 3-augmenting paths.

    An edge (a,b) of M qualifies iff both endpoints have M*-partners and
    both partners are M-free.  Requires M maximal in the union graph (the
    Lemma's hypothesis); violations raise.
    """
    validate_matching(M)
    validate_matching(M_star)
    for e in M_star.edges:
        if M.is_free(e.u) and M.is_free(e.v):
            raise PreconditionError(f"M not maximal in the union graph: {e} is free-free")
    count = 0
    for e in M.edges:
        pa = M_star.matched.get(e.u)
        pb = M_star.matched.get(e.v)
        if pa is None or pb is None:
            continue
        x = pa.other(e.u)
        y = pb.other(e.v)
        if M.is_free(x) and M.is_free(y):
            count += 1
    return count


@dataclass(frozen=True)
class PlantedAugInstance:
    matching: Matching
    suffix: tuple[Edge, ...]
    planted: int  # number of planted vertex-disjoint 3-augmenting paths


def generate_planted_3aug(
    seed: int,
    size_range: tuple[int, int] = (20, 100),
) -> PlantedAugInstance:
    """Frozen matching plus a suffix holding >= ceil(BETA*|M|) disjoint
    3-augmenting paths (fresh wing vertices), shuffled, with distractor
    edges (when |M| >= 2) the collector must ignore.

    Center i is (4i, 4i+1); its planted wings go to 4i+2 and 4i+3.
    """
    lo, hi = size_range
    if not 1 <= lo <= hi:
        raise PreconditionError("need 1 <= lo <= hi")
    rng = PhiloxRNG(seed)
    s = lo + rng.randbelow(hi - lo + 1)
    planted = math.ceil(s * BETA)
    M = Matching(Edge(4 * i, 4 * i + 1) for i in range(s))
    suffix = []
    for i in range(planted):
        suffix.append(Edge(4 * i + 2, 4 * i))      # x_i - a_i
        suffix.append(Edge(4 * i + 1, 4 * i + 3))  # b_i - y_i
    if s >= 2:
        suffix.append(Edge(0, 5))           # matched-matched: ignored
        suffix.append(Edge(2, 0))           # repeat of a planted wing: idempotent
        suffix.append(Edge(4 * s + 1, 0))   # extra wing, fresh free vertex
        if planted >= 2:
            suffix.append(Edge(2, 6))       # free-free: ignored
    return PlantedAugInstance(
        matching=M,
        suffix=tuple(fisher_yates(suffix, rng)),
        planted=planted,
    )


def sample_matching_pair(seed: int) -> tuple[Matching, Matching]:
    """(M, M*) with |M| <= (1/2 + EPS)|M*|, M maximal in the union graph.

    Built from disjoint blocks: T3 (3-augmenting path: M center, two M*
    wings), TC (an edge in both matchings), P5 (a 5-edge alternating path
    starting and ending in M*; its 2 M-edges are non-3-augmentable), C4
    (alternating 4-cycle), ISO (an M-edge off M*'s support).  Block counts
    obey c3 >= 12*cc + 11*c5 + 24*c4 + 25*ciso, which at EPS = 1/50 is
    exactly the size hypothesis.
    """
    rng = PhiloxRNG(seed)
    c3 = 20 + rng.randbelow(41)
    while True:
        cc = rng.randbelow(4)
        c5 = rng.randbelow(4)
        c4 = rng.randbelow(3)
        ciso = rng.randbelow(2)
        if 12 * cc + 11 * c5 + 24 * c4 + 25 * ciso <= c3:
            break
    m_edges: list[Edge] = []
    ms_edges: list[Edge] = []
    fresh = iter(range(10**6))

    def nxt() -> int:
        return next(fresh)

    for _ in range(c3):
        x, a, b, y = nxt(), nxt(), nxt(), nxt()
        m_edges.append(Edge(a, b))
        ms_edges.extend([Edge(x, a), Edge(b, y)])
    for _ in range(cc):
        a, b = nxt(), nxt()
        m_edges.append(Edge(a, b))
        ms_edges.append(Edge(a, b))
    for _ in range(c5):
        u = [nxt() for _ in range(6)]
        ms_edges.extend([Edge(u[0], u[1]), Edge(u[2], u[3]), Edge(u[4], u[5])])
        m_edges.extend([Edge(u[1], u[2]), Edge(u[3], u[4])])
    for _ in range(c4):
        u = [nxt() for _ in range(4)]
        ms_edges.extend([Edge(u[0], u[1]), Edge(u[2], u[3])])
        m_edges.extend([Edge(u[1], u[2]), Edge(u[3], u[0])])
    for _ in range(ciso):
        m_edges.append(Edge(nxt(), nxt()))
    M, M_star = Matching(m_edges), Matching(ms_edges)
    if len(M) > (Fraction(1, 2) + EPS) * len(M_star):
        raise InvalidInstanceError("sampler violated its own size hypothesis")
    return M, M_star
