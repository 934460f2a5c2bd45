"""Recurrence table: hand values, exact/float agreement, the Fraction
reference, dominance, and the interval certificate."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from injectstream import recurrence
from injectstream.errors import PreconditionError, SizeLimitError
from injectstream.recurrence import (
    TAG_FIRST,
    TAG_NONE,
    TAG_SECOND,
    TAG_THIRD,
    asymptote,
    certify_diagonal,
    compute_table,
    diagonal_intervals,
    first_term_dominance,
    min_diagonal,
)
from reference_recurrence import (
    reference_diagonal,
    reference_diagonal_intervals,
    reference_dominance,
    reference_float_columns,
    reference_table,
    streamed_cells,
)


def test_hand_computed_small_values():
    """k <= 2 cells worked out by hand at t = 4/5.

    R(1,1): first term 4/5, second 1/5 + (1 - 9/5)R(0,0) = 1/5, third
    1/(1+4/5) = 5/9; but the second term's k-1 = 0 branch is out of elements
    so the admissible minimum is 5/9 via the third term.
    """
    table = compute_table(t="0.8", k_max=2, mode="exact")
    cells = streamed_cells("0.8", 2, mode="exact")
    d = table.exact_diagonal
    assert d[1] == Fraction(5, 9)
    assert cells[1, 1][1] == table.diag_tags[1] == TAG_THIRD
    # R(2,1) = t/2: first term wins
    assert reference_table(Fraction(4, 5), 2)[2, 1] == (Fraction(2, 5), TAG_FIRST)
    assert cells[2, 1][1] == TAG_FIRST
    # R(2,2) = min(2/5 + 3/5 * 2/5, 1/2 + (1 - 9/10) * 5/9, 5/9)
    #        = min(16/25, 1/2 + 1/18, 5/9) -> 5/9 at the second term (ties low tag)
    assert d[2] == Fraction(5, 9)
    assert cells[2, 2][1] == table.diag_tags[2] == TAG_SECOND


def test_base_row_is_zero():
    table = compute_table(t="0.8", k_max=3, mode="exact")
    assert table.diagonal[0] == 0 and table.diag_tags[0] == TAG_NONE
    assert table.exact_diagonal[0] == 0
    # column 1 reads R(., 0) = 0: R(k,1) = min(t/k, 1/k, 1/(1+t))
    cells = streamed_cells(0.8, 3)
    assert [cells[k, 1][0] for k in (1, 2, 3)] == [1 / 1.8, 0.8 / 2, 0.8 / 3]


def test_exact_and_float_agree():
    exact = compute_table(t="0.8", k_max=150, mode="exact")
    flt = compute_table(t=0.8, k_max=150, mode="float")
    gap = max(
        abs(float(exact.exact_diagonal[k]) - flt.diagonal[k]) for k in range(1, 151)
    )
    assert gap < 1e-12
    assert exact.max_float_exact_gap is not None
    assert exact.max_float_exact_gap < 1e-12
    assert exact.exact_comparisons > 0


def test_filter_margin_resolves_exact_ties():
    """Float tags can land on either side of an exact tie; exact mode must
    agree with float everywhere else and take the lowest tag on the ties.

    At t = 4/5 the second term applied to R = 1/(1+t) reproduces 1/(1+t)
    exactly, so the second and third terms tie all along the 5/9 plateau.
    """
    exact = streamed_cells("0.8", 120, mode="exact")
    flt = streamed_cells(0.8, 120)
    t = Fraction(4, 5)
    ref = reference_table(t, 120)
    differ = [(k, h) for (k, h), (_, tag) in exact.items() if tag != flt[k, h][1]]
    assert differ
    for k, h in differ:
        second = Fraction(1, k) + (1 - (1 + t) / k) * ref[k - 1, h - 1][0]
        third = 1 / (1 + t)
        assert second == third  # a genuine tie, not a filter failure
        assert exact[k, h][1] < flt[k, h][1]  # exact resolves low


def test_five_ninths_plateau_ends():
    table = compute_table(t="0.8", k_max=120, mode="exact")
    d = table.exact_diagonal
    assert d[1] == d[2] == Fraction(5, 9)
    assert d[120] < Fraction(5, 9)


def test_min_diagonal_and_guards():
    table = compute_table(t=0.8, k_max=50, mode="float")
    m = min_diagonal(table, 1, 50)
    assert math.isclose(m, 0.5535684065, abs_tol=1e-9)
    with pytest.raises(PreconditionError):
        min_diagonal(table, 0, 50)
    with pytest.raises(PreconditionError):
        min_diagonal(table, 1, 51)


def test_mode_and_size_guards():
    with pytest.raises(PreconditionError):
        compute_table(t=0.8, k_max=0)
    with pytest.raises(PreconditionError):
        compute_table(t=0.8, k_max=5, mode="symbolic")
    with pytest.raises(SizeLimitError):
        compute_table(t=0.8, k_max=2001, mode="exact")


@pytest.mark.parametrize("mode, k_max", [("float", 300), ("exact", 60)])
def test_table_holds_only_the_diagonal(mode, k_max):
    """Every array or list a table keeps has at most k_max + 1 entries."""
    table = compute_table(t="0.8", k_max=k_max, mode=mode)
    held = [v for v in vars(table).values() if isinstance(v, (np.ndarray, list))]
    assert len(held) == (3 if mode == "exact" else 2)     # the exact diagonal too
    assert all(len(v) <= k_max + 1 and np.ndim(v) == 1 for v in held)


def _encloses(intervals, exact) -> bool:
    return all(Fraction(lo) <= e <= Fraction(hi)
               for lo, hi, e in zip(intervals[0], intervals[1], exact))


def test_intervals_enclose_exact_diagonal():
    exact = compute_table(t="0.8", k_max=400, mode="exact").exact_diagonal
    intervals = diagonal_intervals("0.8", 400)
    assert _encloses(intervals, exact)
    assert np.max(intervals[1] - intervals[0]) < 1e-13


def test_certify_settles_an_exact_tie_with_the_exact_table():
    """R(1,1) = 1/2 at t = 1: the intervals straddle 1/2, the exact table decides."""
    cert = certify_diagonal(1, 5, "1/2")
    assert cert.lo < 0.5 < cert.hi
    assert cert.verdict == "holds"
    assert certify_diagonal(1, 5, Fraction(cert.hi)).verdict == "VIOLATED"


def test_certify_verdicts_and_guard():
    cert = certify_diagonal(0.8, 400, "0.5506")
    assert cert.verdict == "holds" and cert.lo < cert.hi
    assert f"{cert.lo:.10f}" == "0.5510308349"
    assert certify_diagonal(0.8, 400, "0.5511").verdict == "VIOLATED"
    # above EXACT_LIMIT a bound strictly inside [min lo, min hi] can be neither
    # proved nor refuted
    k = recurrence.EXACT_LIMIT + 1
    wide = certify_diagonal(0.8, k, "0.5506")
    assert certify_diagonal(0.8, k, Fraction(wide.hi)).verdict == "not certified"
    with pytest.raises(SizeLimitError, match="certificate is guarded to k <= 10000"):
        certify_diagonal(0.8, recurrence.CERTIFY_LIMIT + 1, "0.5506")
    with pytest.raises(PreconditionError):
        certify_diagonal(0.8, 0, "0.5506")


@pytest.mark.parametrize("bound", ["abc", True, "1/0", None])
def test_certify_rejects_an_unreadable_bound_first(monkeypatch, bound):
    """The bound is read, by the rule ExperimentConfig applies, before any
    interval is computed."""
    def no_intervals(*args):
        raise AssertionError("diagonal_intervals ran before the bound was read")

    monkeypatch.setattr(recurrence, "diagonal_intervals", no_intervals)
    with pytest.raises(PreconditionError, match=r"bound must be a decimal or a fraction; got"):
        certify_diagonal(0.8, 5, bound)


def test_first_term_dominance_small_range():
    report = first_term_dominance(0.8, 300, 60)
    assert report.ok
    assert report.closed_form_max_dev <= 1e-12
    # early rows do violate: R(1,1) is a third-term cell
    low = first_term_dominance(0.8, 300, 1)
    assert not low.ok
    assert low.violations[0] == (1, 1, TAG_THIRD)


def test_first_term_dominance_guards():
    with pytest.raises(PreconditionError):
        first_term_dominance(1.5, 10, 1)
    for k_max, k_threshold in ((10, 0), (10, 11), (0, 1)):
        with pytest.raises(PreconditionError):
            first_term_dominance(0.8, k_max, k_threshold)
    with pytest.raises(SizeLimitError):
        first_term_dominance(0.8, recurrence.FLOAT_LIMIT + 1, 1)


@given(
    st.integers(1, 30).flatmap(
        lambda den: st.integers(1, den).map(lambda num: Fraction(num, den))
    ),
    st.integers(1, 60).flatmap(lambda k_max: st.tuples(st.just(k_max), st.integers(1, k_max))),
)
@example(Fraction(1), (60, 1))      # 1,771 violations: the list is cut to the first 50
@example(Fraction(4, 5), (60, 2))
@settings(max_examples=30, deadline=None)
def test_first_term_dominance_matches_row_wise_check(t, sizes):
    """The column-by-column report equals the row-by-row one on the same float cells."""
    k_max, k_threshold = sizes
    report = first_term_dominance(t, k_max, k_threshold)
    violations, count, max_dev = reference_dominance(t, k_max, k_threshold)
    assert report.violations == violations
    assert report.violation_count == count
    assert report.closed_form_max_dev == max_dev


def test_first_term_dominance_reaches_the_certificate_limit():
    """Rows 1000..10000 stream in O(k_max) memory; no dense grid bounds k_max."""
    report = first_term_dominance(0.8, recurrence.CERTIFY_LIMIT, 1000)
    assert report.ok and report.closed_form_max_dev <= 1e-12


def test_closed_form_expr_matches_table():
    cells = streamed_cells(0.8, 300, rows=[200])
    k = 200
    for h in (1, 37, 200):
        closed = -math.expm1(h * math.log1p(-0.8 / k))
        assert abs(cells[k, h][0] - closed) <= 1e-12


def test_asymptote_value():
    assert math.isclose(asymptote(0.8), 1 - math.exp(-0.8), rel_tol=0, abs_tol=1e-15)


def test_t_accepts_fraction_and_string():
    a = compute_table(t=Fraction(4, 5), k_max=30, mode="exact")
    b = compute_table(t="0.8", k_max=30, mode="exact")
    assert a.exact_diagonal == b.exact_diagonal


@given(
    st.integers(1, 19).flatmap(
        lambda num: st.integers(num + 1, 21).map(lambda den: Fraction(num, den))
    ),
    st.integers(2, 40),
)
@settings(max_examples=25, deadline=None)
def test_float_tracks_exact_for_random_t(t, k_max):
    exact = compute_table(t=t, k_max=k_max, mode="exact")
    flt = compute_table(t=float(t), k_max=k_max, mode="float")
    for k in range(1, k_max + 1):
        assert abs(float(exact.exact_diagonal[k]) - flt.diagonal[k]) < 1e-11
        assert 0 < flt.diagonal[k] <= 1


@given(
    st.integers(1, 40).flatmap(
        lambda den: st.integers(1, den).map(lambda num: Fraction(num, den))
    ),
    st.integers(1, 30),
)
@settings(max_examples=40, deadline=None)
def test_exact_engine_matches_fraction_reference(t, k_max):
    """Every exact cell's tag, the exact diagonal and the float values agree
    with R(k,h) computed from its definition."""
    ref = reference_table(t, k_max)
    table = compute_table(t=t, k_max=k_max, mode="exact")
    assert table.exact_diagonal == [ref[k, k][0] for k in range(k_max + 1)]
    assert table.diag_tags.tolist() == [ref[k, k][1] for k in range(k_max + 1)]
    cells = streamed_cells(t, k_max, mode="exact")
    assert len(cells) == len(ref) - (k_max + 1)      # the base row h = 0 is not streamed
    for (k, h), (value, tag) in cells.items():
        assert tag == ref[k, h][1], (k, h)
        assert abs(value - float(ref[k, h][0])) <= 1e-12, (k, h)


@given(
    st.integers(1, 40).flatmap(
        lambda den: st.integers(1, den).map(lambda num: Fraction(num, den))
    ),
    st.integers(1, 40),
)
@settings(max_examples=40, deadline=None)
def test_intervals_enclose_fraction_reference(t, k_max):
    """The certificate's intervals contain R(k,k) computed from its definition."""
    ref = reference_table(t, k_max)
    assert _encloses(diagonal_intervals(t, k_max), [ref[k, k][0] for k in range(k_max + 1)])


@given(st.integers(2, 60))
@settings(max_examples=20, deadline=None)
def test_diagonal_bounded_by_first_term_chain(k):
    """R(k,k) can never exceed the pure first-term closed form."""
    table = compute_table(t=0.8, k_max=k, mode="float")
    closed = -math.expm1(k * math.log1p(-0.8 / k))
    assert table.diagonal[k] <= closed + 1e-12


def _bits(x: np.ndarray) -> list:
    """The bit patterns of a float array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64).tolist()


#: t in (0, 1]: floats down to 1e-300, where the bit step equals nextafter
#: (module docstring), and small fractions
T_VALUES = st.one_of(
    st.floats(1e-300, 1.0),
    st.integers(1, 40).flatmap(lambda den: st.integers(1, den).map(lambda num: Fraction(num, den))),
)


@given(T_VALUES, st.integers(1, 300))
@example(1.0, 1)
@example(1.0, 2)
@example(0.8, 2)
@example(1e-300, 40)
@settings(max_examples=40, deadline=None)
def test_intervals_equal_the_nextafter_reference_bitwise(t, k_max):
    """The in-place bit steps round exactly as ``np.nextafter`` does."""
    assert _bits(diagonal_intervals(t, k_max)) == _bits(reference_diagonal_intervals(t, k_max))


@pytest.mark.parametrize("t", [5e-324, 1e-310, Fraction(1, 10**400)])
def test_intervals_below_1e_300_lie_inside_the_nextafter_ones(t):
    """Where t/k is subnormal a 0 lower end may round up, never out of the exact cell."""
    intervals, ref = diagonal_intervals(t, 6), reference_diagonal_intervals(t, 6)
    assert (intervals[0] >= ref[0]).all() and _bits(intervals[1]) == _bits(ref[1])
    exact = reference_table(recurrence._t_as_fraction(t), 6)
    assert _encloses(intervals, [exact[k, k][0] for k in range(7)])


@given(T_VALUES, st.integers(1, 300))
@example(1.0, 1)
@example(1.0, 2)
@settings(max_examples=30, deadline=None)
def test_buffered_float_columns_equal_the_fresh_array_reference(t, k_max):
    """Every streamed column, read before the next one overwrites it, and every
    tag equal the reference's bit for bit."""
    tf = float(recurrence._t_as_fraction(t))
    columns = recurrence._float_columns(tf, k_max, True)
    for got, want in zip(columns, reference_float_columns(tf, k_max, True), strict=True):
        assert got[0] == want[0]
        for a, b in zip(got[1:4], want[1:4]):
            assert _bits(a) == _bits(b)
        assert got[4].dtype == want[4].dtype and got[4].tolist() == want[4].tolist()


@given(T_VALUES, st.integers(1, 300), st.sampled_from(["float", "exact"]))
@example(1.0, 1, "float")
@example(1.0, 2, "exact")
@settings(max_examples=30, deadline=None)
def test_table_diagonal_and_tags_equal_the_reference(t, k_max, mode):
    table = compute_table(t, k_max, mode)
    diagonal, tags = reference_diagonal(t, k_max, mode)
    assert _bits(table.diagonal) == _bits(diagonal)
    assert table.diag_tags.dtype == tags.dtype and table.diag_tags.tolist() == tags.tolist()


def test_fast_loops_equal_the_references_at_k_1500():
    assert _bits(diagonal_intervals("0.8", 1500)) == _bits(reference_diagonal_intervals("0.8", 1500))
    table = compute_table(0.8, 1500)
    diagonal, tags = reference_diagonal(0.8, 1500)
    assert _bits(table.diagonal) == _bits(diagonal) and table.diag_tags.tolist() == tags.tolist()
