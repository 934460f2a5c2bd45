"""R(k,h) straight from its definition in Fractions, a short reference the
exact engine of ``injectstream.recurrence`` is tested against; the cells of
its streamed columns; first-term dominance checked row by row; and the float
and interval columns computed the plain way, with a fresh array per
operation and ``np.nextafter`` for every outward rounding, which the
library's buffered columns must match bit for bit.  Test-only.
"""

from fractions import Fraction

import numpy as np

from injectstream.recurrence import (
    CERTIFY_LIMIT,
    TAG_FIRST,
    TAG_NONE,
    TAG_SECOND,
    TAG_THIRD,
    RecurrenceTable,
    _bracket,
    _float_columns,
    _settle_exactly,
    _t_as_fraction,
)


def reference_table(t: Fraction, k_max: int) -> dict:
    """{(k, h): (R(k,h), argmin tag)} for 0 <= h <= k <= k_max.

    Tags number the terms 1, 2, 3 as in the library (0 on the base row h = 0);
    ties go to the lowest tag.
    """
    cells = {(k, 0): (Fraction(0), 0) for k in range(k_max + 1)}
    for h in range(1, k_max + 1):
        for k in range(h, k_max + 1):
            terms = (
                t / k + (1 - t / k) * cells[k, h - 1][0],
                Fraction(1, k) + (1 - (1 + t) / k) * cells[k - 1, h - 1][0],
                1 / (1 + t),
            )
            low = min(terms)
            cells[k, h] = (low, terms.index(low) + 1)
    return cells


def streamed_cells(t, k_max: int, mode: str = "float", rows=None) -> dict:
    """{(k, h): (float R(k,h), argmin tag)} for 1 <= h <= k <= k_max, read off the
    library's streamed columns; exact mode takes the tags settled by its exact
    filter.  ``rows`` limits the cells to those rows k.

    The library keeps only the diagonal, so this is how tests see the rest.
    """
    table = RecurrenceTable(t=_t_as_fraction(t), k_max=k_max, diagonal=None, diag_tags=None)
    columns = _float_columns(float(table.t), k_max, True)
    if mode == "exact":
        columns = _settle_exactly(columns, table)
    wanted = range(k_max + 1) if rows is None else rows
    cells = {}
    for h, _fa, _fb, cur, tags in columns:
        for k in wanted:
            if k >= h:
                cells[k, h] = (float(cur[k - h]), int(tags[k - h]))
    return cells


def reference_dominance(t, k_max: int, k_threshold: int) -> tuple:
    """(violations, violation count, closed-form deviation) of the float table,
    checked row by row as ``first_term_dominance`` reports them: the first 50
    cells (k, h, tag) in (k, h) order whose tag is not the first term, and the
    largest |R(k,h) - (1 - (1 - t/k)^h)| over each row's prefix of first-term
    cells from h = 1."""
    cells = streamed_cells(t, k_max)
    tf = float(_t_as_fraction(t))
    violations, count, max_dev = [], 0, 0.0
    for k in range(k_threshold, k_max + 1):
        row = [cells[k, h] for h in range(1, k + 1)]
        bad = [(k, h, tag) for h, (_, tag) in enumerate(row, 1) if tag != TAG_FIRST]
        prefix = bad[0][1] - 1 if bad else k
        count += len(bad)
        violations += bad[: 50 - len(violations)]
        if prefix:
            closed = -np.expm1(np.arange(1, prefix + 1, dtype=np.float64) * np.log1p(-tf / k))
            values = np.array([value for value, _ in row[:prefix]])
            max_dev = max(max_dev, float(np.max(np.abs(values - closed))))
    return violations, count, max_dev


def reference_float_columns(tf: float, k_max: int, all_tags: bool):
    """Yield (h, fa, fb, cur, tags) as ``_float_columns`` does, each a fresh
    array; without ``all_tags`` only row h is tagged."""
    third = 1.0 / (1.0 + tf)
    ks = np.arange(k_max + 1, dtype=np.float64)
    ks[0] = 1.0
    invk = 1.0 / ks
    tk = tf * invk
    coef_a = 1.0 - tk
    coef_b = 1.0 - (1.0 + tf) * invk
    n = None if all_tags else 1
    prev = np.zeros(k_max + 1)
    for h in range(1, k_max + 1):
        fa = tk[h:] + coef_a[h:] * prev[1:]
        fb = invk[h:] + coef_b[h:] * prev[:-1]
        fab = np.minimum(fa, fb)
        cur = np.minimum(fab, third)
        tags = np.where(fab[:n] <= third,
                        np.where(fa[:n] <= fb[:n], TAG_FIRST, TAG_SECOND), TAG_THIRD)
        yield h, fa, fb, cur, tags.astype(np.int8)
        prev = cur


def reference_diagonal(t, k_max: int, mode: str = "float") -> tuple:
    """(diagonal, tags) of ``compute_table`` from the reference float columns;
    exact mode settles their near-ties with the library's exact filter."""
    table = RecurrenceTable(t=_t_as_fraction(t), k_max=k_max, diagonal=None, diag_tags=None)
    columns = reference_float_columns(float(table.t), k_max, mode == "exact")
    if mode == "exact":
        columns = _settle_exactly(columns, table)
    diagonal, tags = [0.0], [TAG_NONE]
    for _h, _fa, _fb, cur, col_tags in columns:
        diagonal.append(cur[0])
        tags.append(col_tags[0])
    return np.array(diagonal), np.array(tags, dtype=np.int8)


def reference_diagonal_intervals(t, k_max: int) -> np.ndarray:
    """The (2, k_max+1) diagonal enclosure of ``diagonal_intervals``, rounding
    every operation outward with ``np.nextafter``."""
    assert 1 <= k_max <= CERTIFY_LIMIT

    def outward(x):
        return np.nextafter(x, np.array([[-np.inf], [np.inf]]))

    ts = _bracket(_t_as_fraction(t))
    ks = np.arange(k_max + 1, dtype=np.float64)
    ks[0] = 1.0
    tk = outward(ts / ks)
    invk = outward(1.0 / ks)
    coef_a = np.maximum(outward(1.0 - tk[::-1]), 0.0)
    coef_b = np.maximum(outward(1.0 - outward(outward(1.0 + ts) / ks)[::-1]), 0.0)
    third = outward(1.0 / outward(1.0 + ts)[::-1])
    prev = np.zeros((2, k_max + 1))
    diag = np.zeros((2, k_max + 1))
    for h in range(1, k_max + 1):
        fa = outward(tk[:, h:] + outward(coef_a[:, h:] * prev[:, 1:]))
        fb = outward(invk[:, h:] + outward(coef_b[:, h:] * prev[:, :-1]))
        cur = np.minimum(np.minimum(fa, fb), third)
        np.maximum(cur[0], 0.0, out=cur[0])
        diag[:, h] = cur[:, 0]
        prev = cur
    return diag
