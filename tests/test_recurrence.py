"""Recurrence table: hand values, exact/float agreement, the Fraction
reference, dominance, and the interval certificate."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injectstream import recurrence
from injectstream.errors import PreconditionError, SizeLimitError
from injectstream.recurrence import (
    TAG_FIRST,
    TAG_SECOND,
    TAG_THIRD,
    asymptote,
    certify_diagonal,
    compute_table,
    diagonal_intervals,
    first_term_dominance,
    min_diagonal,
)
from reference_recurrence import reference_table


def test_hand_computed_small_values():
    """k <= 2 cells worked out by hand at t = 4/5.

    R(1,1): first term 4/5, second 1/5 + (1 - 9/5)R(0,0) = 1/5, third
    1/(1+4/5) = 5/9; but the second term's k-1 = 0 branch is out of elements
    so the admissible minimum is 5/9 via the third term.
    """
    table = compute_table(t="0.8", k_max=2, mode="exact")
    d = table.exact_diagonal
    assert d[1] == Fraction(5, 9)
    assert table.tags[1, 1] == TAG_THIRD
    # R(2,1) = t/2: first term wins
    assert reference_table(Fraction(4, 5), 2)[2, 1] == (Fraction(2, 5), TAG_FIRST)
    assert table.tags[2, 1] == TAG_FIRST
    # R(2,2) = min(2/5 + 3/5 * 2/5, 1/2 + (1 - 9/10) * 5/9, 5/9)
    #        = min(16/25, 1/2 + 1/18, 5/9) -> 5/9 at the second term (ties low tag)
    assert d[2] == Fraction(5, 9)
    assert table.tags[2, 2] == TAG_SECOND


def test_base_row_is_zero():
    table = compute_table(t="0.8", k_max=3, mode="exact")
    assert (table.values[:, 0] == 0).all()
    assert table.exact_diagonal[0] == 0


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
    exact = compute_table(t="0.8", k_max=120, mode="exact")
    flt = compute_table(t=0.8, k_max=120, mode="float")
    t = Fraction(4, 5)
    ref = reference_table(t, 120)
    for k, h in np.argwhere(exact.tags[1:, 1:] != flt.tags[1:, 1:]) + 1:
        second = Fraction(1, k) + (1 - (1 + t) / k) * ref[k - 1, h - 1][0]
        third = 1 / (1 + t)
        assert second == third  # a genuine tie, not a filter failure
        assert exact.tags[k, h] < flt.tags[k, h]  # exact resolves low


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


def test_diagonal_storage_matches_dense(monkeypatch):
    dense = compute_table(t=0.8, k_max=400, mode="float")
    assert dense.values is not None
    monkeypatch.setattr(recurrence, "DENSE_LIMIT", 399)
    diag = compute_table(t=0.8, k_max=400, mode="float")
    assert np.allclose(dense.diagonal, diag.diagonal, atol=0)
    assert np.array_equal(dense.diag_tags, diag.diag_tags)
    assert diag.values is None
    with pytest.raises(PreconditionError):
        first_term_dominance(diag, 100)


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


def test_first_term_dominance_small_range():
    table = compute_table(t=0.8, k_max=300, mode="float")
    report = first_term_dominance(table, 60)
    assert report.ok
    assert report.closed_form_max_dev <= 1e-12
    # early rows do violate: R(1,1) is a third-term cell
    low = first_term_dominance(table, 1)
    assert not low.ok


def test_closed_form_expr_matches_table():
    table = compute_table(t=0.8, k_max=300, mode="float")
    k = 200
    for h in (1, 37, 200):
        closed = -math.expm1(h * math.log1p(-0.8 / k))
        assert abs(table.values[k, h] - closed) <= 1e-12


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
    for (k, h), (value, tag) in ref.items():
        assert table.tags[k, h] == tag, (k, h)
        assert abs(table.values[k, h] - float(value)) <= 1e-12, (k, h)


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
