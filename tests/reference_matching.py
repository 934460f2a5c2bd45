"""The duplicate-greedy two-branch matching: a short reference the frozen-M1
branch 2 of ``injectstream.matching`` is tested against.

Branch 2 runs its own greedy until it holds ``threshold`` edges, and each
admitted guess starts from a copy of M1; the guess window is the inline
loop over ``snap_ceil_log``/``snap_floor_log``.  Test-only.
"""

import math
from dataclasses import dataclass
from typing import Optional

from injectstream.geomgrid import snap_ceil_log, snap_floor_log
from injectstream.matching import (
    AugPathStore,
    MatchConfig,
    Matching,
    apply_augmentations,
    greedy_step,
)


@dataclass
class MatchRunState:
    m1: Matching
    m2_phase1: Matching
    collector: Optional[AugPathStore]
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
                state.collector = AugPathStore(state.m2_phase1)
            return
        state.collector = AugPathStore(state.m2_phase1)
    state.collector.offer(e)


def ref_match_run(edges, m_star, cfg=MatchConfig()) -> Matching:
    state = MatchRunState(Matching(), Matching(), None, cfg.phase1_threshold(m_star))
    for e in edges:
        greedy_step(state.m1, e)
        _feed_branch2(state, e)
    return state.finish()


def ref_geometric_guess_run(edges, delta_guess, cfg=MatchConfig()) -> tuple[Matching, int]:
    """(output, guesses_live_max)."""
    base = 1.0 + delta_guess
    upper_coef = 4.0 / float(1 - 2 * cfg.eps)
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
                    threshold = cfg.phase1_threshold(math.ceil(base**i))
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
