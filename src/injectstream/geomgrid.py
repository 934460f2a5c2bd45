"""The geometric guess window shared by both guessing wrappers.

Both the prefix tree (guesses of OPT) and two-branch matching (guesses of
m*) run one instance per integer exponent j whose power base**j lies in a
window that moves with an observed value x: x/base <= base**j <= coef*x.
The tree uses x = the largest singleton value and coef = k/delta; matching
uses x = |M1| and coef = 4/(1 - 2 eps).  Exponent bounds computed via float
logarithms get snapped by direct power comparisons (with a 1e-12 relative
slack) so a value sitting exactly on a grid power cannot flip its exponent
by one ulp.
"""

from __future__ import annotations

import math
from typing import Callable


def snap_floor_log(base: float, x: float) -> int:
    """Largest integer j with base**j <= x (x > 0, base > 1)."""
    j = math.floor(math.log(x) / math.log(base) + 1e-9)
    while base ** (j + 1) <= x * (1 + 1e-12):
        j += 1
    while base**j > x * (1 + 1e-12):
        j -= 1
    return j


def snap_ceil_log(base: float, x: float) -> int:
    """Smallest integer j with base**j >= x (x > 0, base > 1)."""
    j = math.ceil(math.log(x) / math.log(base) - 1e-9)
    while base ** (j - 1) >= x * (1 - 1e-12):
        j -= 1
    while base**j < x * (1 - 1e-12):
        j += 1
    return j


def update_window(runs: dict, x, base: float, coef: float, start: Callable[[int], object]) -> None:
    """Move the window of ``runs`` (exponent j -> run) to the value x > 0.

    Runs with x/base <= base**j <= coef*x stay; the others are dismissed,
    and ``start(j)`` makes the run of each exponent newly inside.  Anchoring
    on the absolute grid means a run stays with its exponent across updates.
    """
    lo = snap_ceil_log(base, x / base)
    hi = snap_floor_log(base, coef * x)
    for j in [j for j in runs if j < lo or j > hi]:
        del runs[j]
    for j in range(lo, hi + 1):
        if j not in runs:
            runs[j] = start(j)


def live_guess_bound(base: float, coef: float) -> int:
    """Ceiling of log base of coef*base: a cap on the runs in one window."""
    return math.ceil(math.log(coef * base) / math.log(base))
