"""Scalar parallel-body flows, the flow invariant, and deficit bounds."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from hypiso.steiner import (
    SIGN_AS_PRINTED,
    SIGN_STEINER_CONSISTENT,
    BodyMeasure,
    area_lower_bound,
    ball_measures,
    bound_scaled,
    deficit,
    deficit_both,
    flow_invariant,
    inner_flow,
    is_past_inradius,
    outer_flow,
    sausage_measures,
)

TWO_PI = 2.0 * math.pi


def test_ball_measures_closed_forms():
    m = ball_measures(1.0)
    assert m.area == pytest.approx(3.4122762652849037, abs=1e-14)
    assert m.perimeter == pytest.approx(7.3840068728826447, abs=1e-14)


def test_sausage_measures_closed_forms():
    m = sausage_measures(2.0, 1.0)
    assert m.area == pytest.approx(3.281413226515788, abs=1e-15)
    assert m.perimeter == pytest.approx(8.2464008819854406, abs=1e-14)
    # d = 0 degenerates to the lambda-ball
    big_r = math.atanh(0.5)
    m0 = sausage_measures(2.0, 0.0)
    b = ball_measures(big_r)
    assert m0.area == pytest.approx(b.area, abs=1e-15)
    assert m0.perimeter == pytest.approx(b.perimeter, abs=1e-15)


def test_outer_flow_of_ball_is_bigger_ball():
    grown = outer_flow(ball_measures(1.0), 0.5)
    want = ball_measures(1.5)
    assert grown.area == pytest.approx(want.area, abs=1e-12)
    assert grown.perimeter == pytest.approx(want.perimeter, abs=1e-12)


def test_inner_flow_inverts_outer_flow():
    m = sausage_measures(2.0, 1.0)
    back = inner_flow(outer_flow(m, 0.8), 0.8)
    assert back.area == pytest.approx(m.area, abs=1e-12)
    assert back.perimeter == pytest.approx(m.perimeter, abs=1e-12)
    again = outer_flow(inner_flow(m, 0.3), 0.3)
    assert again.area == pytest.approx(m.area, abs=1e-12)


def test_flow_is_additive_in_rho():
    m = ball_measures(0.7)
    two_step = outer_flow(outer_flow(m, 0.4), 0.9)
    one_step = outer_flow(m, 1.3)
    assert two_step.area == pytest.approx(one_step.area, rel=1e-13)
    assert two_step.perimeter == pytest.approx(one_step.perimeter, rel=1e-13)


@given(st.floats(min_value=0.05, max_value=2.5),
       st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=80, deadline=None)
def test_flow_invariant_is_conserved(lam_off, d, rho):
    m = sausage_measures(1.0 + lam_off, d)
    q0 = flow_invariant(m)
    assert flow_invariant(outer_flow(m, rho)) == pytest.approx(
        q0, rel=1e-10, abs=1e-9)


def test_invariant_value_for_sausage():
    # (area + 2 pi)^2 - perimeter^2 = 4 pi^2 - (4 d)^2: the core segment
    # of length 2d, traversed both ways, is what erosion leaves behind
    for lam, d in ((1.5, 0.5), (2.0, 1.0), (5.0, 3.0)):
        want = 4.0 * math.pi ** 2 - 16.0 * d * d
        assert flow_invariant(sausage_measures(lam, d)) == pytest.approx(
            want, abs=1e-9)
    # for a ball the invariant is 4 pi^2 exactly
    assert flow_invariant(ball_measures(1.3)) == pytest.approx(
        4.0 * math.pi ** 2, abs=1e-9)


def test_erosion_to_the_core():
    # eroding sausage(2, d) by arccoth 2 leaves the zero-area core segment
    big_r = math.atanh(0.5)
    for d in (0.5, 1.0, 2.0):
        core = inner_flow(sausage_measures(2.0, d), big_r)
        assert core.area == pytest.approx(0.0, abs=1e-12)
        assert core.perimeter == pytest.approx(4.0 * d, abs=1e-12)


def test_is_past_inradius_flags_collapse():
    m = ball_measures(1.0)
    assert not is_past_inradius(inner_flow(m, 0.99))
    assert is_past_inradius(inner_flow(m, 1.01))


def test_area_lower_bound_conventions_differ():
    p = 10.0
    sc = area_lower_bound(p, 2.0, SIGN_STEINER_CONSISTENT)
    ap = area_lower_bound(p, 2.0, SIGN_AS_PRINTED)
    root = math.sqrt(1.0 - 0.25)
    assert sc == pytest.approx(p / 2.0 - TWO_PI * (1.0 - root), abs=1e-14)
    assert ap == pytest.approx(p / 2.0 + TWO_PI * (1.0 - root), abs=1e-14)
    with pytest.raises(ValueError):
        area_lower_bound(p, 2.0, "typo")


def test_sausage_attains_the_bound_exactly():
    for lam in (1.5, 2.0, 5.0):
        for d in (0.0, 1.0, 3.0):
            m = sausage_measures(lam, d)
            rep = deficit(m, lam)
            assert rep.sign_convention == SIGN_STEINER_CONSISTENT
            assert abs(rep.deficit) < 1e-9


def test_ball_deficit_both_conventions():
    both = deficit_both(ball_measures(1.0), 2.0)
    d_sc = both[SIGN_STEINER_CONSISTENT]["deficit"]
    d_ap = both[SIGN_AS_PRINTED]["deficit"]
    assert d_sc == pytest.approx(0.56206004332051451, abs=1e-12)
    assert d_ap == pytest.approx(-1.1215143856333523, abs=1e-12)
    # the printed sign would reject the ball; the consistent one accepts it
    assert d_sc > 0.0 > d_ap


def test_deficit_report_json_shape():
    rep = deficit(sausage_measures(2.0, 1.0), 2.0)
    obj = rep.to_json_dict()
    for key in ("lambda", "area", "perimeter", "bound_value",
                "deficit", "sign_convention"):
        assert key in obj


def test_bound_scaled_euclidean_limit():
    # curvature -> 0 recovers P/lam - pi/lam^2
    val = bound_scaled(10.0, 2.0, 1e-3)
    assert val == pytest.approx(4.2146017876626116, abs=1e-14)
    assert abs(val - (5.0 - math.pi / 4.0)) < 1e-6


def test_bound_scaled_series_joins_direct_branch():
    # the small-c series and the direct formula must agree at the seam;
    # the direct branch carries ~eps/c^2 cancellation noise there, so
    # the comparison band reflects that, not the series accuracy
    for c in (0.9e-4, 0.99e-4, 1.01e-4, 1.1e-4):
        lo = bound_scaled(8.0, 3.0, c * 0.999999)
        hi = bound_scaled(8.0, 3.0, c * 1.000001)
        assert lo == pytest.approx(hi, rel=1e-7)


def test_bound_scaled_at_unit_curvature_matches_unscaled():
    assert bound_scaled(10.0, 2.0, 1.0) == pytest.approx(
        area_lower_bound(10.0, 2.0, SIGN_STEINER_CONSISTENT), rel=1e-13)


def test_measure_validation():
    # negative values are allowed (erosion past the inradius produces
    # them and is_past_inradius flags them); non-finite values are not
    assert is_past_inradius(BodyMeasure(-1.0, 5.0))
    with pytest.raises(ValueError):
        BodyMeasure(math.inf, 5.0)
    with pytest.raises(ValueError):
        BodyMeasure(1.0, math.nan)
