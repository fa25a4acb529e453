"""Arc chains: Frenet transport, closure, measures, splitting, simplicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypiso.geom import ORIGIN_FRAME, Point, dist, frame_defect, minkowski
from hypiso.spline import (
    Arc,
    ArcSpline,
    GeometryError,
    arc_matrices,
    arc_matrix,
    arc_points,
    area_polygonal,
    chain_closure_residual,
    frenet_matrix,
    _c12,
    transport,
    transport_coeffs,
)

ETA = np.diag([-1.0, 1.0, 1.0])


@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=1e-6, max_value=4.0))
@settings(max_examples=120, deadline=None)
def test_arc_matrix_is_lorentz(kappa, length):
    g = arc_matrix(kappa, length)
    assert np.max(np.abs(g.T @ ETA @ g - ETA)) < 1e-11


def test_arc_matrix_series_branch_matches_expm():
    from scipy.linalg import expm
    # alpha*s^2 below the series cutoff, and just above it
    for kappa in (1.0, 1.0 + 5e-9, 0.999999, 1.000001):
        for s in (1e-5, 1e-3, 0.5):
            direct = expm(s * frenet_matrix(kappa))
            assert np.max(np.abs(arc_matrix(kappa, s) - direct)) < 1e-12


def test_transport_zero_curvature_is_geodesic():
    f = transport(ORIGIN_FRAME, 0.0, 1.7)
    assert dist(ORIGIN_FRAME.point, f.point) == pytest.approx(1.7, abs=1e-12)
    assert frame_defect(f) < 1e-12


def test_transport_circle_returns_home():
    # kappa > 1 traces a circle of radius atanh(1/kappa)
    kappa = 2.0
    circ = 2.0 * math.pi * math.sinh(math.atanh(1.0 / kappa))
    f = transport(ORIGIN_FRAME, kappa, circ)
    assert chain_closure_residual(ORIGIN_FRAME, [Arc(kappa, circ)]) < 1e-12
    assert np.max(np.abs(f.m - ORIGIN_FRAME.m)) < 1e-12


def test_transport_hypercircle_endpoint():
    # kappa = tanh(h) runs parallel to a geodesic at distance h; covering
    # base length d costs arclength d*cosh(h)
    h, d = 0.5, 1.0
    ell = d * math.cosh(h)
    u = np.array([math.sinh(h), 0.0, math.cosh(h)])  # core geodesic normal
    feet = []
    for s in (0.0, ell / 3.0, ell):
        p = transport(ORIGIN_FRAME, math.tanh(h), s).point
        assert minkowski(p.v, u) == pytest.approx(-math.sinh(h), abs=1e-12)
        feet.append(Point.from_array(
            (p.v + math.sinh(h) * u) / math.cosh(h), validate=False))
    assert dist(feet[0], feet[2]) == pytest.approx(d, abs=1e-12)


def test_transport_composes():
    rng = np.random.default_rng(2)
    for _ in range(20):
        kappa = rng.uniform(-2, 2)
        s1, s2 = rng.uniform(0.1, 2.0, size=2)
        two_step = transport(transport(ORIGIN_FRAME, kappa, s1), kappa, s2)
        one_step = transport(ORIGIN_FRAME, kappa, s1 + s2)
        assert np.max(np.abs(two_step.m - one_step.m)) < 1e-12


def test_transport_coeffs_match_trig():
    # alpha = 1 - kappa^2 > 0: boost-like (open curves); < 0: periodic
    c0, c1, c2 = transport_coeffs(0.0, 1.3)  # alpha = 1, a geodesic
    assert c0 == pytest.approx(math.cosh(1.3), abs=1e-14)
    assert c1 == pytest.approx(math.sinh(1.3), abs=1e-14)
    assert c2 == pytest.approx(math.cosh(1.3) - 1.0, abs=1e-14)
    c0, c1, c2 = transport_coeffs(math.sqrt(2.0), 0.7)  # alpha = -1, a circle
    assert c0 == pytest.approx(math.cos(0.7), abs=1e-15)
    assert c1 == pytest.approx(math.sin(0.7), abs=1e-15)
    assert c2 == pytest.approx(1.0 - math.cos(0.7), abs=1e-15)


# one array mixing every regime: circles, hypercircles, a geodesic, a
# concave circle, and the horocycle band on both sides of kappa = 1
_MIXED_KAPPAS = np.array([2.0, 1.3, 0.5, 0.0, -1.7, -0.4, 1.0,
                          1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-5, 0.99999])
_MIXED_LENGTHS = np.array([1.1, 2.5, 0.8, 1.6, 0.4, 1.2, 0.9,
                           1.3, 0.7, 1e-3, 2.0])


def _scalar_coeffs(kappa, s):
    """Closed forms per regime; the band uses its Taylor polynomial."""
    alpha = 1.0 - kappa * kappa
    x = alpha * s * s
    if abs(x) < 1e-8:
        return (1.0 + x / 2.0 + x * x / 24.0,
                s * (1.0 + x / 6.0 + x * x / 120.0),
                s * s * (0.5 + x / 24.0 + x * x / 720.0))
    if alpha > 0.0:
        mu = math.sqrt(alpha)
        return (math.cosh(mu * s), math.sinh(mu * s) / mu,
                (math.cosh(mu * s) - 1.0) / alpha)
    w = math.sqrt(-alpha)
    return (math.cos(w * s), math.sin(w * s) / w,
            (1.0 - math.cos(w * s)) / -alpha)


def test_transport_coeffs_mixed_array_matches_scalar_closed_forms():
    c0, c1, c2 = transport_coeffs(_MIXED_KAPPAS, _MIXED_LENGTHS)
    for i, (k, s) in enumerate(zip(_MIXED_KAPPAS, _MIXED_LENGTHS)):
        ref = _scalar_coeffs(k, s)
        for got, want in zip((c0[i], c1[i], c2[i]), ref):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    # one curvature against many arclengths, zero and band-small included
    s = np.array([0.0, 1e-9, 1e-5, 0.3, 2.0])
    for k in (0.5, 1.0, 1.0 + 1e-9, 1.5):
        c0, c1, c2 = transport_coeffs(k, s)
        for j, sj in enumerate(s):
            ref = _scalar_coeffs(k, sj)
            for got, want in zip((c0[j], c1[j], c2[j]), ref):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
        # each element is computed alone: layout and batch do not matter
        grid = np.tile(s, (3, 1))
        for view in (grid, np.asfortranarray(grid), grid[:, ::-1].T):
            for got, want in zip(transport_coeffs(k, view),
                                 transport_coeffs(k, np.ascontiguousarray(view))):
                assert np.array_equal(got, want)
            for got, flat in zip(transport_coeffs(k, view), (c0, c1, c2)):
                assert set(np.ravel(got)) == set(flat)


def test_arc_end_coefficients_match_a_long_row_bit_for_bit():
    # distance queries evaluate the two arc ends once per arc; their
    # coefficients must be the entries a long row of queries holds
    rng = np.random.default_rng(17)
    kappas = (2.0, 1.3, 0.5, 0.0, -0.7, 1.0, 1.0 + 1e-9, 1.0 - 1e-9)
    for k in kappas:
        for length in (1e-5, 0.7, 4.0, 9.0):
            row = rng.uniform(0.0, length, 4099)
            where = [0, 1, 1000, 4097, 4098]
            row[where] = (0.0, length, 0.0, length, length)
            full = transport_coeffs(k, row)
            ends = transport_coeffs(k, np.array([0.0, length]))
            for got, want in zip(ends, full):
                for j in where:
                    assert got[0 if row[j] == 0.0 else 1].tobytes() \
                        == want[j].tobytes()
            # the path without c0 gives the same c1 and c2
            for got, want in zip(_c12(k, np.array([length])), full[1:]):
                assert got[0].tobytes() == want[1].tobytes()
            for got, want in zip(_c12(k, row), full[1:]):
                assert got.tobytes() == want.tobytes()


def test_arc_matrices_match_expm():
    from scipy.linalg import expm
    A = arc_matrices(_MIXED_KAPPAS, _MIXED_LENGTHS)
    assert A.shape == (len(_MIXED_KAPPAS), 3, 3)
    for i, (k, s) in enumerate(zip(_MIXED_KAPPAS, _MIXED_LENGTHS)):
        direct = expm(s * frenet_matrix(k))
        assert np.max(np.abs(A[i] - direct)
                      / np.maximum(1.0, np.abs(direct))) < 1e-12
        # the single-arc view is the same stacked builder
        assert np.array_equal(arc_matrix(k, s), A[i])


def test_arc_matrices_dkappa_matches_central_differences():
    _, dA = arc_matrices(_MIXED_KAPPAS, _MIXED_LENGTHS, dkappa=True)
    h = 1e-6
    fd = (arc_matrices(_MIXED_KAPPAS + h, _MIXED_LENGTHS)
          - arc_matrices(_MIXED_KAPPAS - h, _MIXED_LENGTHS)) / (2.0 * h)
    scale = np.maximum(1.0, np.abs(dA))
    assert np.max(np.abs(dA - fd) / scale) < 1e-7


def test_arc_points_on_sheet():
    s = np.linspace(0.0, 2.0, 9)
    pts = arc_points(ORIGIN_FRAME, 0.8, s)
    norms = np.einsum("ij,ij->i", pts @ ETA, pts)
    assert np.max(np.abs(norms + 1.0)) < 1e-12


def test_arc_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Arc(1.0, -0.5)
    with pytest.raises(ValueError):
        Arc(math.nan, 1.0)


def _circle_spline(r: float) -> ArcSpline:
    kappa = 1.0 / math.tanh(r)
    return ArcSpline(ORIGIN_FRAME, (Arc(kappa, 2.0 * math.pi * math.sinh(r)),))


def test_spline_rejects_unclosed_chain():
    with pytest.raises(GeometryError):
        ArcSpline(ORIGIN_FRAME, (Arc(0.0, 1.0),))
    # same chain is fine as an open diagnostic object
    open_chain = ArcSpline.open_chain(ORIGIN_FRAME, (Arc(0.0, 1.0),))
    assert open_chain.closure_residual() > 1.0


def test_circle_measures_against_closed_forms():
    r = 0.9
    s = _circle_spline(r)
    assert s.perimeter() == pytest.approx(2 * math.pi * math.sinh(r), abs=1e-12)
    assert s.area_gauss_bonnet() == pytest.approx(
        2 * math.pi * (math.cosh(r) - 1.0), abs=1e-12)


def test_polygonal_area_agrees_with_gauss_bonnet():
    s = _circle_spline(1.2)
    a_gb = s.area_gauss_bonnet()
    assert area_polygonal(s, 20_000) == pytest.approx(a_gb, abs=1e-6)


def test_split_preserves_curve():
    s = _circle_spline(0.7)
    t = s.split(0, 1.0)
    assert len(t.arcs) == 2
    assert t.perimeter() == pytest.approx(s.perimeter(), abs=1e-15)
    assert t.area_gauss_bonnet() == pytest.approx(s.area_gauss_bonnet(), abs=1e-12)
    assert t.closure_residual() < 1e-9
    with pytest.raises(ValueError):
        s.split(0, s.arcs[0].length)


def test_thickness_certificate():
    s = _circle_spline(0.7)
    kappa = s.arcs[0].kappa  # coth 0.7 ~ 1.655
    good = s.check_thickness(2.0)
    assert good.ok and good.min_kappa == pytest.approx(kappa)
    bad = s.check_thickness(1.5)
    assert not bad.ok
    assert bad.violations[0][2] == "upper"
    with pytest.raises(ValueError):
        s.check_thickness(1.0)


def test_sample_frames_structure():
    s = _circle_spline(1.0).split(0, 2.0)
    pts, tans, nors, idxs, locs = s.sample_frames(64)
    assert len(pts) >= 64
    assert set(np.unique(idxs)) == {0, 1}
    # frames stay orthonormal along the samples
    assert np.max(np.abs(np.einsum("ij,ij->i", pts @ ETA, tans))) < 1e-10
    assert np.max(np.abs(np.einsum("ij,ij->i", tans @ ETA, tans) - 1.0)) < 1e-10
    assert np.max(np.abs(np.einsum("ij,ij->i", pts @ ETA, nors))) < 1e-10


def test_json_round_trip_is_exact():
    s = _circle_spline(0.8).split(0, 1.5)
    t = ArcSpline.from_json_dict(s.to_json_dict())
    assert [a.kappa for a in t.arcs] == [a.kappa for a in s.arcs]
    assert [a.length for a in t.arcs] == [a.length for a in s.arcs]
    assert np.allclose(t.start.m, s.start.m, atol=1e-12)
    with pytest.raises(ValueError):
        ArcSpline.from_json_dict({"arcs": []})


def test_simplicity_verdicts():
    from hypiso.bodies import sausage, two_ball_hull, offset
    assert sausage(2.0, 1.0).boundary.is_simple()
    hull = two_ball_hull(math.atanh(0.5), 1.0)
    assert hull.boundary.is_simple()
    # eroding the hull past its waist pinches the boundary
    pinched = offset(hull, -0.4, check_simple=False)
    assert not pinched.boundary.is_simple()


def test_arc_turning_more_than_once_is_not_simple():
    r = 0.8
    kappa = 1.0 / math.tanh(r)
    one_turn = 2.0 * math.pi * math.sinh(r)
    assert _circle_spline(r).is_simple()
    # the same circle run twice closes too, but overlaps itself
    twice = ArcSpline(ORIGIN_FRAME, (Arc(kappa, 2.0 * one_turn),))
    assert twice.closure_residual() < 1e-9
    assert not twice.is_simple()
    # a doubly wound arc inside a longer chain is caught as well
    wound = ArcSpline(ORIGIN_FRAME, (Arc(kappa, 1.5 * one_turn),
                                     Arc(kappa, 0.5 * one_turn)))
    assert not wound.is_simple()
