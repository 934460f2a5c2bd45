"""The R(k,h) recurrence table and its certification.

Definition (threshold parameter t in (0,1]):

    R(k,0) = 0
    R(k,h) = min( t/k + (1 - t/k) R(k,h-1),
                  1/k + (1 - (1+t)/k) R(k-1,h-1),
                  1/(1+t) )                          for 1 <= h <= k.

One builder streams the table column by column in 64-bit floats, with
O(k_max) working memory, in both modes.  Column h covers only the rows
k = h..k_max that are ever read: its first term reads rows h..k_max of
column h-1, its second rows h-1..k_max-1.  Only the diagonal R(k,k) and
its argmin tags are kept, whatever k_max; ``first_term_dominance`` walks
the same columns with one flag per row.  Exact mode is a filter over the
float columns: it streams each column again as unnormalized integer pairs
(num, den).  Where the float margin between candidate terms exceeds
FILTER_MARGIN the float argmin is trusted (the accumulated float error is
provably far smaller, see below); a near-tie is settled by integer
cross-multiplication and its tag corrected.  Only the exact diagonal is
stored.

Float-filter soundness.  Each streamed column applies affine maps with
coefficients in [0,1) and a three-way min, both 1-Lipschitz in the inputs,
plus at most 4 roundings per cell on values in [0,1].  The absolute float
error after h columns is therefore below h * 4 * 2^-52, under 2e-12 for
h <= 10^5, while FILTER_MARGIN is 1e-9.  A float margin above FILTER_MARGIN
implies the exact comparison orders the same way.

Interval certificate.  ``certify_diagonal`` proves min R(k,k) >= bound for
k <= CERTIFY_LIMIT without rationals: ``diagonal_intervals`` streams the
same triangular columns with each cell held as a float interval
[lo, hi] that contains the exact R(k,h).  Soundness:

* t is bracketed by the nearest floats below and above it.
* Each rounded operation (t/k, 1-t/k, 1/k, 1+t, (1+t)/k, 1-(1+t)/k,
  1/(1+t), and every product and sum) errs by at most half an ulp: the
  exact result is nearer the rounded one than any other float.  So moving
  the lower end one float down and the upper end one float up with
  ``np.nextafter`` encloses it.  ``min`` is exact and monotone, so the
  interval minimum of the three terms encloses the exact one.
* A product of intervals is [lo*lo, hi*hi] only when both factors are
  non-negative.  Every coefficient is >= 0 for k >= 2 (1 - (1+t)/k >= 0
  because t <= 1), so a lower end rounded below 0 is clipped to 0; and R
  itself is >= 0, so a cell's lower end is clipped the same way.  At k = 1
  the second term's coefficient is -t, but it multiplies R(0,0) = 0, held
  as the exact interval [0, 0], so the exact product is 0 whatever the
  coefficient, and clipping it to 0 like the others keeps the enclosure.

The verdict is "holds" when every lower end is >= bound and "VIOLATED"
when some upper end is below it.  Otherwise the bound lies between the
smallest lower and the smallest upper end.  The widest diagonal interval
is about 2e-13 at k = 1000 and 2e-12 at k = 10,000, so that takes a bound
within that distance of the exact minimum, or equal to it, such as 1/2 at
t = 1.  For k_max <= EXACT_LIMIT the exact table then settles the verdict;
above it the verdict is "not certified".

``t`` notes: a float t is interpreted through ``Fraction(str(t))``, so the
CLI value 0.8 means exactly 4/5 in exact mode and in the certificate, and
float(4/5) in float mode.

Exact denominators are never reduced; they grow to about 12 kilobits by
k = 1000, which integer arithmetic absorbs in about a second.  Fraction-
and mpq-based variants measured 10x to 70x slower, hence this backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import PreconditionError, SizeLimitError

EXACT_LIMIT = 2000          # guard for exact mode
FLOAT_LIMIT = 200_000
CERTIFY_LIMIT = 10_000      # guard for certify_diagonal
FILTER_MARGIN = 1e-9

TAG_NONE, TAG_FIRST, TAG_SECOND, TAG_THIRD = 0, 1, 2, 3


def _t_as_fraction(t: Union[float, int, str, Fraction]) -> Fraction:
    """``t`` as an exact rational; PreconditionError unless it is a number in (0, 1]."""
    try:
        frac = Fraction(str(t)) if isinstance(t, float) else Fraction(t)
    except (TypeError, ValueError):
        frac = None
    if frac is None or not 0 < frac <= 1:
        raise PreconditionError(f"t must lie in (0, 1], got {t!r}")
    return frac


def _bound_as_fraction(bound: Union[float, int, str, Fraction]) -> Fraction:
    """``bound`` as an exact rational, read from ``str(bound)``; PreconditionError
    unless that is a decimal or a fraction."""
    try:
        return Fraction(str(bound))
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(f"bound must be a decimal or a fraction; got {bound!r}") from None


@dataclass
class RecurrenceTable:
    """The diagonal R(k,k), 0 <= k <= k_max, plus which term attained each minimum.

    The float diagonal is stored in both modes.  Exact mode adds the exact
    diagonal, a list of Fractions, and the number of near-ties it settled
    exactly.
    """

    t: Fraction
    k_max: int
    diagonal: np.ndarray
    diag_tags: np.ndarray
    exact_diagonal: Optional[list] = None
    exact_comparisons: int = 0

    @property
    def max_float_exact_gap(self) -> Optional[float]:
        """Largest |float(exact) - float| over the diagonal; None without an exact one."""
        if self.exact_diagonal is None:
            return None
        return max(abs(float(e) - f) for e, f in zip(self.exact_diagonal, self.diagonal.tolist()))


def compute_table(
    t: Union[float, int, str, Fraction] = 0.8,
    k_max: int = 1000,
    mode: str = "float",
) -> RecurrenceTable:
    """Stream the R(k,h) table for 0 <= h <= k <= k_max, keeping its diagonal."""
    if k_max < 1:
        raise PreconditionError("k_max must be >= 1")
    t_exact = _t_as_fraction(t)
    limits = {"exact": EXACT_LIMIT, "float": FLOAT_LIMIT}
    if mode not in limits:
        raise PreconditionError(f"unknown mode {mode!r}")
    if k_max > limits[mode]:
        raise SizeLimitError(f"{mode} mode is guarded to k_max <= {limits[mode]}")
    table = RecurrenceTable(t=t_exact, k_max=k_max, diagonal=np.zeros(k_max + 1),
                            diag_tags=np.full(k_max + 1, TAG_NONE, dtype=np.int8))
    columns = _float_columns(float(t_exact), k_max, mode == "exact")
    if mode == "exact":
        columns = _settle_exactly(columns, table)
    for h, _fa, _fb, cur, col_tags in columns:
        table.diagonal[h] = cur[0]
        table.diag_tags[h] = col_tags[0]
    return table


def _float_columns(tf: float, k_max: int, all_tags: bool):
    """Yield (h, fa, fb, cur, tags) for the float columns h = 1..k_max.

    Every array covers rows k = h..k_max only, index k - h: rows below h
    are never read.  ``fa``/``fb`` are the first and second terms, ``cur``
    the column R(., h) and ``tags`` its argmin tags, ties going to the
    lowest-numbered term; without ``all_tags`` only row h gets its tag.
    Each yielded array is fresh, so a caller may keep or edit it.
    """
    third = 1.0 / (1.0 + tf)
    ks = np.arange(k_max + 1, dtype=np.float64)
    ks[0] = 1.0                      # row 0 is never a valid cell
    invk = 1.0 / ks
    tk = tf * invk
    coef_a = 1.0 - tk
    coef_b = 1.0 - (1.0 + tf) * invk
    n = None if all_tags else 1
    prev = np.zeros(k_max + 1)       # R(., 0) over rows 0..k_max
    for h in range(1, k_max + 1):
        fa = tk[h:] + coef_a[h:] * prev[1:]
        fb = invk[h:] + coef_b[h:] * prev[:-1]
        fab = np.minimum(fa, fb)
        cur = np.minimum(fab, third)
        tags = np.where(fab[:n] <= third,
                        np.where(fa[:n] <= fb[:n], TAG_FIRST, TAG_SECOND), TAG_THIRD)
        yield h, fa, fb, cur, tags.astype(np.int8)
        prev = cur


def _settle_exactly(columns, table: RecurrenceTable):
    """Pass the float columns on with every near-tie's tag settled exactly.

    Alongside, each column is streamed as unnormalized integer pairs
    (num, den); ``table`` receives the exact diagonal and the number of
    near-ties settled by cross-multiplication.
    """
    p, q = table.t.numerator, table.t.denominator
    third_f = 1.0 / (1.0 + float(table.t))
    third = (q, p + q)                   # 1/(1+t) = q/(p+q)
    prev = [(0, 1)] * (table.k_max + 1)
    table.exact_diagonal = [Fraction(0)] * (table.k_max + 1)
    ties = 0

    def term(tag: int, k: int) -> tuple:
        """The first term (from R(k,h-1)) or the second (from R(k-1,h-1)) as (num, den)."""
        if tag == TAG_FIRST:
            (n, d), a, b = prev[k], p, q * k - p
        else:
            (n, d), a, b = prev[k - 1], q, q * k - p - q
        return a * d + b * n, q * k * d

    for h, fa, fb, cur, tags in columns:
        col = [None] * len(prev)           # rows below h are never read again
        rows = zip(range(h, table.k_max + 1), fa.tolist(), fb.tolist(), tags.tolist())
        for k, av, bv, tag in rows:
            m = av if av <= bv else bv
            if abs(av - bv) >= FILTER_MARGIN and abs(m - third_f) >= FILTER_MARGIN:
                col[k] = third if tag == TAG_THIRD else term(tag, k)
                continue
            ties += 1
            first, second = term(TAG_FIRST, k), term(TAG_SECOND, k)
            if first[0] * second[1] <= second[0] * first[1]:
                pair, tag = first, TAG_FIRST
            else:
                pair, tag = second, TAG_SECOND
            if third[0] * pair[1] < pair[0] * third[1]:     # strict: ties keep lower tag
                pair, tag = third, TAG_THIRD
            col[k] = pair
            tags[k - h] = tag
        table.exact_diagonal[h] = Fraction(*col[h])
        yield h, fa, fb, cur, tags
        prev = col
    table.exact_comparisons = ties


class Certificate(NamedTuple):
    """Float bounds on min R(k,k) over 1 <= k <= k_max, and the verdict against a bound."""

    lo: float       # every R(k,k) >= lo
    hi: float       # some R(k,k) <= hi
    verdict: str    # "holds", "VIOLATED" or "not certified" (see certify_diagonal)


_OUTWARD = np.array([[-np.inf], [np.inf]])


def _outward(x: np.ndarray) -> np.ndarray:
    """A (2, n) interval array, lower ends (row 0) one ulp down, upper ends (row 1) one up."""
    return np.nextafter(x, _OUTWARD)


def _bracket(t: Fraction) -> np.ndarray:
    """The nearest floats below and above ``t`` as a (2, 1) interval."""
    near = float(t)
    lo = near if Fraction(near) <= t else math.nextafter(near, -math.inf)
    hi = near if Fraction(near) >= t else math.nextafter(near, math.inf)
    return np.array([[lo], [hi]])


def diagonal_intervals(t: Union[float, int, str, Fraction], k_max: int) -> np.ndarray:
    """Float intervals enclosing R(k,k): a (2, k_max+1) array, lower ends in row 0.

    Streams the triangular columns as (2, n) arrays of lower and upper
    ends, rounding every operation outward (see the module docstring), and
    keeps only the diagonal.  Column 0 holds R(0,0) = 0 exactly.
    """
    if k_max < 1:
        raise PreconditionError("k_max must be >= 1")
    if k_max > CERTIFY_LIMIT:
        raise SizeLimitError(f"certificate is guarded to k <= {CERTIFY_LIMIT}")
    ts = _bracket(_t_as_fraction(t))
    ks = np.arange(k_max + 1, dtype=np.float64)
    ks[0] = 1.0                      # row 0 is never a valid cell
    tk = _outward(ts / ks)
    invk = _outward(1.0 / ks)
    # exact coefficients are >= 0 but at k = 1, where -t multiplies R(0, 0) = 0
    coef_a = np.maximum(_outward(1.0 - tk[::-1]), 0.0)
    coef_b = np.maximum(_outward(1.0 - _outward(_outward(1.0 + ts) / ks)[::-1]), 0.0)
    third = _outward(1.0 / _outward(1.0 + ts)[::-1])
    prev = np.zeros((2, k_max + 1))  # R(., 0) = 0 exactly, rows 0..k_max
    diag = np.zeros((2, k_max + 1))
    for h in range(1, k_max + 1):
        fa = _outward(tk[:, h:] + _outward(coef_a[:, h:] * prev[:, 1:]))
        fb = _outward(invk[:, h:] + _outward(coef_b[:, h:] * prev[:, :-1]))
        cur = np.minimum(np.minimum(fa, fb), third)
        np.maximum(cur[0], 0.0, out=cur[0])   # R >= 0: keeps every factor non-negative
        diag[:, h] = cur[:, 0]
        prev = cur
    return diag


def certify_diagonal(
    t: Union[float, int, str, Fraction], k_max: int, bound: Union[float, str, Fraction]
) -> Certificate:
    """Judge min R(k,k) >= bound over 1 <= k <= k_max from ``diagonal_intervals``.

    "holds" when every lower end is >= bound, "VIOLATED" when some upper end
    is below it.  A bound between the two, such as one equal to the exact
    minimum, is settled by the exact table when k_max <= EXACT_LIMIT, and is
    "not certified" above it.  Every comparison with ``bound`` is exact.
    """
    b = _bound_as_fraction(bound)
    diag = diagonal_intervals(t, k_max)
    lo, hi = float(diag[0, 1:].min()), float(diag[1, 1:].min())
    if Fraction(lo) >= b:
        verdict = "holds"
    elif Fraction(hi) < b:
        verdict = "VIOLATED"
    elif k_max <= EXACT_LIMIT:
        exact_min = min_diagonal(compute_table(t, k_max, mode="exact"), 1, k_max)
        verdict = "holds" if exact_min >= b else "VIOLATED"
    else:
        verdict = "not certified"
    return Certificate(lo=lo, hi=hi, verdict=verdict)


def min_diagonal(table: RecurrenceTable, k_lo: int, k_hi: int):
    """Minimum of R(k,k) over k in [k_lo, k_hi]; exact mode returns a Fraction."""
    if not 1 <= k_lo <= k_hi <= table.k_max:
        raise PreconditionError(
            f"diagonal range [{k_lo}, {k_hi}] outside [1, {table.k_max}]"
        )
    if table.exact_diagonal is not None:
        return min(table.exact_diagonal[k_lo : k_hi + 1])
    return float(np.min(table.diagonal[k_lo : k_hi + 1]))


@dataclass
class DominanceReport:
    """Cells of the checked rows whose minimum is not the first term."""

    violations: list            # (k, h, tag) triples, truncated to 50
    violation_count: int
    closed_form_max_dev: float  # |R(k,h) - (1-(1-t/k)^h)| where dominance holds from h=1

    @property
    def ok(self) -> bool:
        return self.violation_count == 0


def first_term_dominance(
    t: Union[float, int, str, Fraction], k_max: int, k_threshold: int
) -> DominanceReport:
    """Check that the first term attains every float minimum for k_threshold <= k <= k_max.

    Walks the float columns once, keeping per row whether the first term has
    held since h=1.  Along that prefix of each row it evaluates the closed
    form R(k,h) = 1 - (1 - t/k)^h, reporting the largest absolute deviation
    from the table.  Violations are reported in (k, h) order.
    """
    tf = float(_t_as_fraction(t))
    if not 1 <= k_threshold <= k_max:
        raise PreconditionError(f"need 1 <= k_threshold <= k_max, got {k_threshold} and {k_max}")
    if k_max > FLOAT_LIMIT:
        raise SizeLimitError(f"float mode is guarded to k_max <= {FLOAT_LIMIT}")
    with np.errstate(divide="ignore"):         # log 0 at t = k = 1, where the third term wins
        log_a = np.log1p(-tf / np.arange(k_threshold, k_max + 1))
    held = np.ones(log_a.size, dtype=bool)     # per row: the first term held since h=1
    violations: list = []
    count = 0
    max_dev = 0.0
    for h, _fa, _fb, cur, tags in _float_columns(tf, k_max, True):
        n = min(cur.size, held.size)             # rows max(h, k_threshold)..k_max
        tags, run = tags[-n:], held[-n:]         # run is a view into held
        run &= tags == TAG_FIRST
        if run.any():
            closed = -np.expm1(h * log_a[-n:][run])
            max_dev = max(max_dev, float(np.max(np.abs(cur[-n:][run] - closed))))
        bad = np.flatnonzero(tags != TAG_FIRST)
        count += bad.size
        if bad.size:
            found = [(k_max + 1 - n + i, h, int(tags[i])) for i in bad[:50].tolist()]
            violations = sorted(violations + found)[:50]
    return DominanceReport(
        violations=violations,
        violation_count=count,
        closed_form_max_dev=max_dev,
    )


def asymptote(t: Union[float, int, str, Fraction]) -> float:
    """The large-k diagonal limit 1 - e^(-t)."""
    t_exact = _t_as_fraction(t)
    return -math.expm1(-float(t_exact))
