"""The duplicate-greedy two-branch matching: a short reference the frozen-M1
branch 2 of ``injectstream.matching`` is tested against.

Branch 2 runs its own greedy until it holds ``threshold`` edges, and each
admitted guess starts from a copy of M1; the guess window is the inline
loop over ``snap_ceil_log``/``snap_floor_log``.  The path collector is
``RefAugPathStore``, the list-backed ``wings[center][side]`` table built at
freeze time.  Test-only.
"""

import math
from dataclasses import dataclass
from typing import Optional

from injectstream.geomgrid import snap_ceil_log, snap_floor_log
from injectstream.matching import (
    EPS,
    AugPath,
    Matching,
    apply_augmentations,
    greedy_step,
    phase1_threshold,
)


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
