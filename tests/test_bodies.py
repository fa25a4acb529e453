"""Convex bodies: constructors, containment, inradius, offsets, rolling."""

import math

import numpy as np
import pytest

from hypiso.geom import (
    _ETA,
    ORIGIN,
    Frame,
    Point,
    apply_isometry_frame,
    dist,
    exp_map,
    fermi_point,
    from_disk,
)
from hypiso.optimize import random_thick_body
from hypiso.spline import Arc, ArcSpline, NonSimpleBoundaryError, transport_coeffs
from hypiso import bodies
from hypiso.bodies import (
    Body,
    _critical_params,
    _sausage_at_origin,
    ball,
    boundary_proximity,
    contains_body,
    contains_point,
    dist_to_boundary,
    inradius,
    inscribed_ball,
    offset,
    q_counterexample,
    rolls_freely,
    sausage,
    signed_boundary_distance,
    two_ball_hull,
)
from hypiso.steiner import ball_measures, sausage_measures

BIG_R = math.atanh(0.5)  # arccoth 2


def _random_directions(rng, n):
    th = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return np.column_stack([np.zeros(n), np.cos(th), np.sin(th)])


# --- constructors -----------------------------------------------------------

def test_ball_matches_closed_forms():
    b = ball(1.0)
    want = ball_measures(1.0)
    assert b.measure.area == pytest.approx(want.area, abs=1e-12)
    assert b.measure.perimeter == pytest.approx(want.perimeter, abs=1e-12)
    assert b.convex


def test_sausage_matches_closed_forms():
    for lam, d in ((1.5, 0.5), (2.0, 1.0), (5.0, 3.0)):
        s = sausage(lam, d)
        want = sausage_measures(lam, d)
        assert s.measure.area == pytest.approx(want.area, abs=1e-12)
        assert s.measure.perimeter == pytest.approx(want.perimeter, abs=1e-12)
        cert = s.thickness_certificate(lam)
        assert cert.ok
    with pytest.raises(ValueError):
        sausage(1.0, 1.0)


def test_sausage_kappa_values():
    s = sausage(2.0, 1.0)
    kappas = sorted({round(a.kappa, 12) for a in s.boundary.arcs})
    assert kappas == [0.5, 2.0]


def test_hull_measures_and_tangency():
    hull = two_ball_hull(BIG_R, 1.0)
    assert hull.measure.area == pytest.approx(2.7763849358988644, abs=1e-10)
    assert hull.measure.perimeter == pytest.approx(8.1052733927536131, abs=1e-10)
    # geodesic sides sit at distance exactly r from both ball centers
    centers = [fermi_point(-1.0, 0.0), fermi_point(1.0, 0.0)]
    for i, a in enumerate(hull.boundary.arcs):
        if abs(a.kappa) > 1e-12:
            continue
        f = hull.boundary.frames[i]
        for s in (0.0, a.length):
            pass  # endpoints are the tangency points
        for c in centers:
            d_end = [dist(c, Point.from_array(p, validate=False))
                     for p in (f.p, (hull.boundary.frames[i + 1]).p)]
            assert min(d_end) == pytest.approx(BIG_R, abs=1e-9)


def test_hull_degenerates_to_ball():
    tiny = two_ball_hull(0.8, 1e-6)
    want = ball_measures(0.8)
    assert tiny.measure.area == pytest.approx(want.area, abs=1e-5)
    assert tiny.measure.perimeter == pytest.approx(want.perimeter, abs=1e-5)


def test_q_counterexample_measures_and_thickness():
    q = q_counterexample(2.0, 0.1)
    assert q.measure.area == pytest.approx(3.1595852308986281, abs=1e-10)
    assert q.measure.perimeter == pytest.approx(8.212871512814985, abs=1e-10)
    cert = q.thickness_certificate(2.0)
    assert not cert.ok  # the flattened side dips below 1/lam
    assert cert.min_kappa < 0.5
    # eps = 0 recovers the sausage
    q0 = q_counterexample(2.0, 0.0)
    want = sausage_measures(2.0, 1.0)
    assert q0.measure.area == pytest.approx(want.area, abs=1e-10)


# --- containment ------------------------------------------------------------

def test_contains_point_basic():
    s = sausage(2.0, 1.0)
    assert contains_point(s, ORIGIN)
    assert contains_point(s, fermi_point(1.0, 0.0))
    assert not contains_point(s, fermi_point(3.0, 0.0))
    assert not contains_point(s, fermi_point(0.0, 2.0))


def test_contains_point_matches_signed_distance():
    rng = np.random.default_rng(31)
    body = two_ball_hull(0.9, 0.7)  # mixed curvature signs on the boundary
    dirs = _random_directions(rng, 200)
    radii = rng.uniform(0.0, 2.5, size=200)
    pts = np.array([exp_map(ORIGIN, r * u).v for r, u in zip(radii, dirs)])
    sd = signed_boundary_distance(body, pts)
    for v, s in zip(pts, sd):
        if abs(s) < 1e-7:
            continue  # too close to the boundary to trust either verdict
        inside = contains_point(body, Point.from_array(v, validate=False))
        assert inside == (s > 0.0)


def test_contains_body_nested_balls():
    assert contains_body(ball(1.0), ball(0.8))
    assert not contains_body(ball(0.8), ball(1.0))


def test_contains_body_hull_inside_sausage():
    hull = two_ball_hull(BIG_R, 1.0)
    s = sausage(2.0, 1.0)
    assert contains_body(s, hull)
    assert not contains_body(hull, s)


def test_dist_to_boundary_on_ball():
    rng = np.random.default_rng(5)
    b = ball(1.0)
    for _ in range(25):
        u = _random_directions(rng, 1)[0]
        r = rng.uniform(0.0, 2.0)
        q = exp_map(ORIGIN, r * u)
        assert dist_to_boundary(b, q) == pytest.approx(abs(r - 1.0), abs=1e-6)


def test_boundary_proximity_locates_arc():
    s = sausage(2.0, 1.0)
    dists, best_arc, best_s = boundary_proximity(
        s, np.array([fermi_point(0.0, 1.0).v]))
    assert dists.shape == (1,)
    assert 0 <= best_arc[0] < len(s.boundary.arcs)
    assert 0.0 <= best_s[0] <= s.boundary.arcs[best_arc[0]].length


def _reference_proximity(body, pts):
    """The per-row loop with the arc ends as two more rows per query."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    nq = pts.shape[0]
    Q = pts @ _ETA
    best = np.full(nq, np.inf)
    best_arc = np.zeros(nq, dtype=int)
    best_s = np.zeros(nq)
    spline = body.boundary
    for i, a in enumerate(spline.arcs):
        f = spline.frames[i]
        A = -(Q @ f.p)
        B = -(Q @ f.t)
        D = A + a.kappa * (-(Q @ f.n))
        S = _critical_params(a.kappa, a.length, B, D)
        ends = np.broadcast_to(np.array([[0.0], [a.length]]), (2, nq))
        S = np.concatenate([S, ends])
        valid = (S >= -1e-12) & (S <= a.length + 1e-12)
        Sc = np.clip(S, 0.0, a.length)
        _, c1, c2 = transport_coeffs(a.kappa, Sc)
        gvals = A + c1 * B + c2 * D
        for g, s, ok in zip(gvals, Sc, valid):
            better = ok & (g < best)
            best = np.where(better, g, best)
            best_arc[better] = i
            best_s = np.where(better, s, best_s)
    return np.arccosh(np.maximum(best, 1.0)), best_arc, best_s


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def _query_cloud(rng, n, g=np.eye(3)):
    # points up to 3 units from the origin, then moved by g
    r = rng.uniform(0.0, 3.0, n)
    th = rng.uniform(0.0, 2.0 * math.pi, n)
    pts = np.column_stack([np.cosh(r), np.sinh(r) * np.cos(th),
                           np.sinh(r) * np.sin(th)])
    return pts @ g.T


def _exact_center_tie_ball():
    # ball of radius log 2, whose start frame and center are exact
    # floats: every candidate of the center query evaluates to 1.25
    m = np.column_stack([[1.25, 0.0, -0.75], [0.0, 1.0, 0.0],
                         [-0.75, 0.0, 1.25]])
    spline = ArcSpline(Frame(m), (Arc(1.25 / 0.75, 1.5 * math.pi),))
    return Body(boundary=spline, convex=True)


def test_boundary_proximity_matches_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    s = sausage(2.0, 1.0)
    g = np.array([[math.cosh(4.0), math.sinh(4.0), 0.0],
                  [math.sinh(4.0), math.cosh(4.0), 0.0],
                  [0.0, 0.0, 1.0]])
    moved = Body(boundary=ArcSpline(apply_isometry_frame(g, s.boundary.start),
                                    s.boundary.arcs),
                 convex=True)
    # open chains reach the horocycle branch and concave arcs
    odd = Body(boundary=ArcSpline.open_chain(
        Frame(np.eye(3)), (Arc(1.0, 2.0), Arc(1.0 + 1e-13, 1.0),
                           Arc(-0.7, 1.5), Arc(-2.5, 3.0), Arc(0.0, 1.0))),
        convex=False)
    cases = [(b, _query_cloud(rng, 2000)) for b in (
        ball(1.0), sausage(2.0, 1.0), sausage(2.507, 1.983),
        sausage(3.0, 0.0), two_ball_hull(0.8, 0.7),
        q_counterexample(2.0, 0.1), random_thick_body(2.0, 12, 7),
        random_thick_body(2.0, 12, 23), odd)]
    cases.append((moved, _query_cloud(rng, 2000, g)))
    for b, pts in cases:
        pts = np.concatenate([pts, b.boundary.sample_points(200)])
        _assert_same_bits(boundary_proximity(b, pts),
                          _reference_proximity(b, pts))


def test_boundary_proximity_matches_reference_on_rolling_queries(monkeypatch):
    seen = []
    real = bodies.boundary_proximity

    def record(body, pts):
        seen.append(np.array(pts))
        return real(body, pts)

    s = sausage(2.0, 1.0)
    monkeypatch.setattr(bodies, "boundary_proximity", record)
    rep = rolls_freely(s, 2.0)
    (pts,) = seen
    assert pts.shape == (rep.n_boundary * rep.n_ball, 3)
    _assert_same_bits(real(s, pts), _reference_proximity(s, pts))


def test_boundary_proximity_keeps_the_first_of_equal_minima():
    center = ORIGIN.v[None, :]
    tie = _exact_center_tie_ball()
    got = boundary_proximity(tie, center)
    _assert_same_bits(got, _reference_proximity(tie, center))
    # roots at 0, a half turn and a full turn tie with both arc ends;
    # the first root wins, not an end row
    assert got[1][0] == 0 and got[2][0] == 0.0
    assert got[0][0] == pytest.approx(math.log(2.0), abs=1e-15)
    # the same ball cut into quarters, and restarted at the first cut,
    # ties across arcs and between a later root and the arc ends
    a = tie.boundary.arcs[0]
    quarters = ArcSpline(tie.boundary.start,
                         (Arc(a.kappa, a.length / 4.0),) * 4)
    restarted = ArcSpline(quarters.frames[1], tie.boundary.arcs)
    for spline in (quarters, restarted):
        b = Body(boundary=spline, convex=True)
        _assert_same_bits(boundary_proximity(b, center),
                          _reference_proximity(b, center))


# --- inradius ---------------------------------------------------------------

def test_inradius_of_ball_and_sausage():
    assert inradius(ball(1.0)) == pytest.approx(1.0, abs=1e-6)
    assert inradius(sausage(2.0, 1.0)) == pytest.approx(BIG_R, abs=1e-6)


def test_sausage_inradius_is_the_cap_radius():
    s = sausage(2.0, 1.0)
    assert _sausage_at_origin(s)
    assert inradius(s) == s.meta["cap_radius"] == BIG_R
    depth, center = inscribed_ball(s)
    assert depth == BIG_R and center == ORIGIN
    assert _sausage_at_origin(Body.from_json_dict(s.to_json_dict()))
    assert not _sausage_at_origin(Body(boundary=s.boundary, convex=True,
                                       meta={"kind": "sausage"}))
    # Nelder-Mead agrees once meta no longer names the body
    bare = Body(boundary=s.boundary, convex=True)
    assert inradius(bare) == pytest.approx(BIG_R, abs=1e-6)
    # an offset sausage keeps its meta but not its inradius
    grown = offset(s, 0.3)
    assert not _sausage_at_origin(grown)
    assert inradius(grown) == pytest.approx(BIG_R + 0.3, abs=1e-5)
    # a moved sausage keeps its inradius but not its core
    g = np.array([[math.cosh(1.0), 0.0, math.sinh(1.0)], [0.0, 1.0, 0.0],
                  [math.sinh(1.0), 0.0, math.cosh(1.0)]])
    moved = Body(boundary=ArcSpline(apply_isometry_frame(g, s.boundary.start),
                                    s.boundary.arcs),
                 convex=True, meta=dict(s.meta))
    assert not _sausage_at_origin(moved)
    depth, center = inscribed_ball(moved)
    assert depth == pytest.approx(BIG_R, abs=1e-5)
    assert dist_to_boundary(moved, center) == pytest.approx(BIG_R, abs=1e-5)


def test_inscribed_ball_center_off_origin():
    # the deepest point of a hull is at a ball center, not the midpoint:
    # the geodesic side cuts inside the tube radius between tangencies
    hull = two_ball_hull(0.8, 1.2)
    depth, center = inscribed_ball(hull)
    assert depth == pytest.approx(0.8, abs=1e-5)
    assert min(dist(center, fermi_point(-1.2, 0.0)),
               dist(center, fermi_point(1.2, 0.0))) < 1e-2
    mid_depth = dist_to_boundary(hull, ORIGIN)
    assert mid_depth < depth - 1e-3


# --- offsets ----------------------------------------------------------------

def test_offset_matches_scalar_flow():
    from hypiso.steiner import outer_flow, inner_flow
    s = sausage(2.0, 1.0)
    for rho in (0.1, 0.25, 0.4):
        grown = offset(s, rho)
        want = outer_flow(s.measure, rho)
        assert grown.measure.area == pytest.approx(want.area, rel=1e-10)
        assert grown.measure.perimeter == pytest.approx(want.perimeter, rel=1e-10)
        shrunk = offset(s, -rho)
        want = inner_flow(s.measure, rho)
        assert shrunk.measure.area == pytest.approx(want.area, abs=1e-9)
        assert shrunk.measure.perimeter == pytest.approx(want.perimeter, abs=1e-9)


def test_offset_round_trip():
    s = sausage(2.0, 1.0)
    back = offset(offset(s, -0.3), 0.3)
    assert back.measure.area == pytest.approx(s.measure.area, abs=1e-8)
    assert back.measure.perimeter == pytest.approx(s.measure.perimeter, abs=1e-8)


def test_offset_ball_is_ball():
    grown = offset(ball(1.0), 0.5)
    want = ball_measures(1.5)
    assert grown.measure.area == pytest.approx(want.area, abs=1e-10)
    assert grown.measure.perimeter == pytest.approx(want.perimeter, abs=1e-10)


def test_erosion_to_core_segment():
    # eroding by exactly arccoth lam collapses the sausage to its core
    s = sausage(2.0, 1.0)
    core = offset(s, -BIG_R, check_simple=False)
    assert core.measure.area == pytest.approx(0.0, abs=1e-6)
    assert core.measure.perimeter == pytest.approx(4.0, abs=1e-6)


def test_erosion_of_thick_body_stays_convex():
    for body, lam in ((sausage(2.0, 1.0), 2.0), (ball(1.0), None)):
        for rho in (0.1, 0.3, 0.5):
            if lam is not None and rho >= math.atanh(1.0 / lam):
                continue
            shrunk = offset(body, -rho)
            assert min(a.kappa for a in shrunk.boundary.arcs) >= -1e-9


def test_erosion_of_hull_goes_concave():
    # geodesic sides of the hull erode to curves bending away
    hull = two_ball_hull(BIG_R, 1.0)
    shrunk = offset(hull, -0.2, check_simple=False)
    assert min(a.kappa for a in shrunk.boundary.arcs) <= -math.tanh(0.2) + 1e-9


def test_erosion_past_pinch_raises():
    hull = two_ball_hull(BIG_R, 1.0)
    with pytest.raises(NonSimpleBoundaryError):
        offset(hull, -0.4)


# --- rolling ----------------------------------------------------------------

def test_sausage_rolls_freely():
    rep = rolls_freely(sausage(2.0, 1.0), 2.0)
    assert rep.ok
    assert rep.worst_margin > -1e-6


def test_ball_at_critical_radius_rolls():
    rep = rolls_freely(ball(BIG_R), 2.0)
    assert rep.ok


def test_q_counterexample_does_not_roll():
    body = q_counterexample(2.0, 0.1)
    rep = rolls_freely(body, 2.0)
    assert not rep.ok
    assert rep.worst_margin <= -1e-3
    # the witness: the tangent ball at that center pokes out of the body
    assert dist_to_boundary(body, rep.witness_center) < rep.rho - 1e-4
    assert not contains_point(body, rep.witness_point, tol=1e-6)


def test_roll_report_json():
    rep = rolls_freely(sausage(2.0, 1.0), 2.0)
    obj = rep.to_json_dict()
    assert obj["ok"] is True
    assert "worst_margin" in obj and "witness_center" in obj


# --- serialization ----------------------------------------------------------

def test_body_json_round_trip():
    s = sausage(2.0, 1.0)
    t = Body.from_json_dict(s.to_json_dict())
    assert t.measure.area == pytest.approx(s.measure.area, abs=1e-12)
    assert t.measure.perimeter == pytest.approx(s.measure.perimeter, abs=1e-12)
    assert t.convex == s.convex
    assert t.thick_for == s.thick_for
