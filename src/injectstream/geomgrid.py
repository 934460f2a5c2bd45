"""The geometric guess window shared by both guessing wrappers.

Both the prefix tree (guesses of OPT) and two-branch matching (guesses of
m*) run one instance per integer exponent j whose power base**j lies in a
window that moves with an observed value x: x/base <= base**j <= coef*x.
The tree uses x = the largest singleton value and coef = k/delta; matching
uses x = |M1| and coef = 4/(1 - 2 eps).  Exponent bounds computed via float
logarithms get snapped by direct power comparisons (with a 1e-12 relative
slack) so a value sitting exactly on a grid power cannot flip its exponent
by one ulp.  x only grows in both wrappers, so ``window`` only moves up.
"""

from __future__ import annotations

import math

from .errors import PreconditionError


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


def window(x, base: float, coef: float) -> range:
    """The exponents j with x/base <= base**j <= coef*x, for a value x > 0.

    Anchoring on the absolute grid means a run stays with its exponent
    while x moves.  A top coef*x that is not a finite float is rejected.
    """
    try:
        top = coef * x
    except OverflowError:  # an int too large for a float
        top = math.inf
    if not math.isfinite(top):
        raise PreconditionError(f"guess window top {coef!r} * x is not finite for x={x!r}")
    return range(snap_ceil_log(base, x / base), snap_floor_log(base, top) + 1)


def live_guess_bound(base: float, coef: float) -> int:
    """A cap on the runs in one window: the largest j with base**j <= coef*base, plus 1.

    A window holds at most that many exponents, and exactly that many when
    x/base sits on the grid.
    """
    return snap_floor_log(base, coef * base) + 1
