"""The R(k,h) recurrence table and its certification.

Definition (threshold parameter t in (0,1]):

    R(k,0) = 0
    R(k,h) = min( t/k + (1 - t/k) R(k,h-1),
                  1/k + (1 - (1+t)/k) R(k-1,h-1),
                  1/(1+t) )                          for 1 <= h <= k.

Two computation modes:

* float: column streaming in 64-bit floats, O(k_max) working memory.  Dense
  value/tag storage is kept when it fits (k_max <= 6000); beyond that only
  the diagonal R(k,k) and its argmin tags are retained.
* exact: the same streaming but over unnormalized integer pairs (num, den),
  so every stored cell is an exact rational.  Branch selection is filtered
  through the float columns: when the float margin between candidate terms
  exceeds FILTER_MARGIN, the float comparison is trusted (the accumulated
  float error is provably far smaller, see below); otherwise the comparison
  is settled by integer cross-multiplication.  Certification against a bound
  then needs only integer arithmetic.

Float-filter soundness.  Each streamed column applies affine maps with
coefficients in [0,1) and a three-way min, both 1-Lipschitz in the inputs,
plus at most 4 roundings per cell on values in [0,1].  The absolute float
error after h columns is therefore below h * 4 * 2^-52, under 2e-12 for
h <= 10^5, while FILTER_MARGIN is 1e-9.  A float margin above FILTER_MARGIN
implies the exact comparison orders the same way.

``t`` notes: a float t is interpreted through ``Fraction(str(t))``, so the
CLI value 0.8 means exactly 4/5 in exact mode and float(4/5) in float mode.

Denominators are never reduced; they grow to about 12 kilobits by k = 1000,
which integer arithmetic absorbs in well under a second.  Fraction- and
mpq-based variants measured 10x to 70x slower, hence this backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import PreconditionError, SizeLimitError

DENSE_LIMIT = 6000          # largest k_max with full value/tag storage
EXACT_LIMIT = 2000          # guard for exact mode
EXACT_FULL_LIMIT = 200      # largest k_max keeping every exact cell
FLOAT_LIMIT = 200_000
FILTER_MARGIN = 1e-9

TAG_NONE, TAG_FIRST, TAG_SECOND, TAG_THIRD = 0, 1, 2, 3


def _t_as_fraction(t: Union[float, int, str, Fraction]) -> Fraction:
    frac = Fraction(str(t)) if isinstance(t, float) else Fraction(t)
    if not 0 < frac <= 1:
        raise PreconditionError(f"t must lie in (0, 1], got {t!r}")
    return frac


@dataclass
class RecurrenceTable:
    """Computed recurrence values plus which term attained each minimum.

    ``values``/``tags`` are dense (k_max+1)x(k_max+1) arrays (NaN / TAG_NONE
    above the diagonal) when stored; large float runs keep only ``diagonal``
    and ``diag_tags``.  Exact mode adds the exact diagonal (always) and the
    full exact table for small k_max.
    """

    t: Fraction
    k_max: int
    mode: str
    diagonal: np.ndarray
    diag_tags: np.ndarray
    values: Optional[np.ndarray] = None
    tags: Optional[np.ndarray] = None
    exact_diagonal: Optional[list] = None
    exact_values: Optional[dict] = None
    max_float_exact_gap: Optional[float] = None
    exact_comparisons: int = 0


def compute_table(
    t: Union[float, int, str, Fraction] = 0.8,
    k_max: int = 1000,
    mode: str = "float",
) -> RecurrenceTable:
    """Fill the lower-triangular R(k,h) table for 0 <= h <= k <= k_max.

    Exact runs keep dense values and tags; float runs keep them while
    k_max <= DENSE_LIMIT and only the diagonal beyond.
    """
    if k_max < 1:
        raise PreconditionError("k_max must be >= 1")
    t_exact = _t_as_fraction(t)
    if mode == "exact":
        if k_max > EXACT_LIMIT:
            raise SizeLimitError(f"exact mode is guarded to k_max <= {EXACT_LIMIT}")
        return _compute_exact(t_exact, k_max)
    if mode != "float":
        raise PreconditionError(f"unknown mode {mode!r}")
    if k_max > FLOAT_LIMIT:
        raise SizeLimitError(f"float mode is guarded to k_max <= {FLOAT_LIMIT}")
    return _compute_float(t_exact, k_max)


def _float_columns(tf: float, k_max: int):
    """Yield (h, fa, fb, cur, tags) for the float columns h = 1..k_max.

    ``fa``/``fb`` are the first and second terms over all rows k, ``cur``
    the column R(., h) (row 0 is 0) and ``tags`` its argmin tags, ties going
    to the lowest-numbered term.  Each yielded array is fresh, so a caller
    may keep or edit it.
    """
    third = 1.0 / (1.0 + tf)
    ks = np.arange(k_max + 1, dtype=np.float64)
    ks[0] = 1.0                      # row 0 is never a valid cell
    invk = 1.0 / ks
    coef_a = 1.0 - tf * invk
    coef_b = 1.0 - (1.0 + tf) * invk
    prev = np.zeros(k_max + 1)
    shifted = np.zeros(k_max + 1)
    for h in range(1, k_max + 1):
        shifted[1:] = prev[:-1]
        fa = tf * invk + coef_a * prev
        fb = invk + coef_b * shifted
        fab = np.minimum(fa, fb)
        cur = np.minimum(fab, third)
        cur[0] = 0.0
        tags = np.where(fab <= third, np.where(fa <= fb, TAG_FIRST, TAG_SECOND), TAG_THIRD)
        yield h, fa, fb, cur, tags.astype(np.int8)
        prev = cur


def _compute_float(t_exact: Fraction, k_max: int) -> RecurrenceTable:
    full = k_max <= DENSE_LIMIT
    values = tags = None
    if full:
        values = np.full((k_max + 1, k_max + 1), np.nan)
        tags = np.full((k_max + 1, k_max + 1), TAG_NONE, dtype=np.int8)
        values[:, 0] = 0.0
    diagonal = np.zeros(k_max + 1)
    diag_tags = np.full(k_max + 1, TAG_NONE, dtype=np.int8)
    for h, _fa, _fb, cur, col_tags in _float_columns(float(t_exact), k_max):
        if full:
            values[h:, h] = cur[h:]
            tags[h:, h] = col_tags[h:]
        diagonal[h] = cur[h]
        diag_tags[h] = col_tags[h]
    return RecurrenceTable(
        t=t_exact,
        k_max=k_max,
        mode="float",
        diagonal=diagonal,
        diag_tags=diag_tags,
        values=values,
        tags=tags,
    )


def _compute_exact(t_exact: Fraction, k_max: int) -> RecurrenceTable:
    p, q = t_exact.numerator, t_exact.denominator
    tf = float(t_exact)
    third_f = 1.0 / (1.0 + tf)
    third_n, third_d = q, p + q      # 1/(1+t) = q/(p+q)

    keep_all = k_max <= EXACT_FULL_LIMIT
    exact_values: Optional[dict] = {} if keep_all else None
    if keep_all:
        for k in range(0, k_max + 1):
            exact_values[(k, 0)] = Fraction(0)

    values = np.full((k_max + 1, k_max + 1), np.nan)
    tags = np.full((k_max + 1, k_max + 1), TAG_NONE, dtype=np.int8)
    values[:, 0] = 0.0
    diagonal = np.zeros(k_max + 1)
    diag_tags = np.full(k_max + 1, TAG_NONE, dtype=np.int8)
    exact_diagonal: list = [Fraction(0)] * (k_max + 1)

    prev_n = [0] * (k_max + 1)
    prev_d = [1] * (k_max + 1)
    n_fallback = 0

    for h, fa, fb, fcur, col_tags in _float_columns(tf, k_max):
        cur_n = [0] * (k_max + 1)
        cur_d = [1] * (k_max + 1)
        for k in range(h, k_max + 1):
            av, bv = fa[k], fb[k]
            m = av if av <= bv else bv
            if abs(av - bv) >= FILTER_MARGIN and abs(m - third_f) >= FILTER_MARGIN:
                tag = int(col_tags[k])
                if tag == TAG_THIRD:
                    num, den = third_n, third_d
                elif tag == TAG_FIRST:
                    d = prev_d[k]
                    num = p * d + (q * k - p) * prev_n[k]
                    den = q * k * d
                else:
                    d = prev_d[k - 1]
                    num = q * d + (q * k - p - q) * prev_n[k - 1]
                    den = q * k * d
            else:
                # near-tie: settle exactly by cross-multiplication
                n_fallback += 1
                d1 = prev_d[k]
                a_n = p * d1 + (q * k - p) * prev_n[k]
                a_d = q * k * d1
                d2 = prev_d[k - 1]
                b_n = q * d2 + (q * k - p - q) * prev_n[k - 1]
                b_d = q * k * d2
                if a_n * b_d <= b_n * a_d:
                    num, den, tag = a_n, a_d, TAG_FIRST
                else:
                    num, den, tag = b_n, b_d, TAG_SECOND
                if third_n * den < num * third_d:     # strict: ties keep lower tag
                    num, den, tag = third_n, third_d, TAG_THIRD
                col_tags[k] = tag
            cur_n[k] = num
            cur_d[k] = den
            if keep_all:
                exact_values[(k, h)] = Fraction(num, den)
        values[h:, h] = fcur[h:]
        tags[h:, h] = col_tags[h:]
        diagonal[h] = fcur[h]
        diag_tags[h] = col_tags[h]
        exact_diagonal[h] = Fraction(cur_n[h], cur_d[h])
        prev_n, prev_d = cur_n, cur_d

    gap = max(
        abs(float(exact_diagonal[k]) - diagonal[k]) for k in range(k_max + 1)
    )
    if keep_all:
        for (k, h), frac in exact_values.items():
            gap = max(gap, abs(float(frac) - values[k, h]))
    return RecurrenceTable(
        t=t_exact,
        k_max=k_max,
        mode="exact",
        diagonal=diagonal,
        diag_tags=diag_tags,
        values=values,
        tags=tags,
        exact_diagonal=exact_diagonal,
        exact_values=exact_values,
        max_float_exact_gap=gap,
        exact_comparisons=n_fallback,
    )


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
    """Cells at or above k_threshold whose minimum is not the first term."""

    k_threshold: int
    violations: list            # (k, h, tag) triples, truncated to 50
    violation_count: int
    closed_form_max_dev: float  # |R(k,h) - (1-(1-t/k)^h)| where dominance holds from h=1

    @property
    def ok(self) -> bool:
        return self.violation_count == 0


def first_term_dominance(table: RecurrenceTable, k_threshold: int) -> DominanceReport:
    """Check that the first term attains every minimum for k >= k_threshold.

    Also evaluates the closed form R(k,h) = 1 - (1 - t/k)^h on every prefix
    of h values for which dominance has held from h=1, reporting the largest
    absolute deviation from the table.
    """
    if table.tags is None or table.values is None:
        raise PreconditionError(
            "first_term_dominance needs dense tags: an exact table, "
            f"or a float one with k_max <= {DENSE_LIMIT}"
        )
    if not 1 <= k_threshold <= table.k_max:
        raise PreconditionError("k_threshold outside table range")
    tf = float(table.t)
    kmax = table.k_max
    violations = []
    count = 0
    max_dev = 0.0
    for k in range(k_threshold, kmax + 1):
        row_tags = table.tags[k, 1 : k + 1]
        bad = np.nonzero(row_tags != TAG_FIRST)[0]
        prefix = k if bad.size == 0 else int(bad[0])
        count += bad.size
        for idx in bad[: max(0, 50 - len(violations))]:
            violations.append((k, int(idx) + 1, int(row_tags[idx])))
        if prefix > 0:
            hs = np.arange(1, prefix + 1, dtype=np.float64)
            closed = -np.expm1(hs * np.log1p(-tf / k))
            dev = np.max(np.abs(table.values[k, 1 : prefix + 1] - closed))
            max_dev = max(max_dev, float(dev))
    return DominanceReport(
        k_threshold=k_threshold,
        violations=violations,
        violation_count=count,
        closed_form_max_dev=max_dev,
    )


def asymptote(t: Union[float, int, str, Fraction]) -> float:
    """The large-k diagonal limit 1 - e^(-t)."""
    t_exact = _t_as_fraction(t)
    return -math.expm1(-float(t_exact))
