"""Convex bodies: constructors, containment, inradius, offsets, rolling."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    project_to_sheet,
    random_isometry,
    to_disk,
)
from hypiso.optimize import random_thick_body
from hypiso.render import _view_arcs
from model_oracles import byte_identity_corpus, double_normals_ref
from hypiso.spline import (
    CLOSURE_TOL,
    _support_vectors,
    Arc,
    ArcSpline,
    GeometryError,
    NonSimpleBoundaryError,
    _kernel,
    _sample_chain,
    arc_transports,
)
from hypiso import bodies
from hypiso.bodies import (
    CONTAIN_TOL,
    INRADIUS_TOL,
    ROLL_TOL,
    Body,
    ConvexFlagError,
    _axis_boost,
    _double_normals,
    _fermi_frame,
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
    # the start foot and its mirror image in the x2 axis end a segment
    hull = two_ball_hull(1.0, 0.5)
    foot = hull.boundary.start.p
    mirror = Point.from_array(foot * np.array([1.0, -1.0, 1.0]))
    assert hull.meta["segment_length"] == pytest.approx(
        dist(Point.from_array(foot), mirror), abs=2e-15)
    # the segment and the start tangent are exact for every d > 0, so
    # the hull builds and closes all the way down, and its measures
    # approach the ball's linearly in d
    for r in (0.8, 1.0):
        want = ball_measures(r)
        for d in (1e-3, 1e-5, 1e-6, 1e-7, 1e-8, 1e-12, 1e-20):
            tiny = two_ball_hull(r, d)
            assert tiny.boundary.closure_residual() < CLOSURE_TOL
            assert tiny.measure.area == pytest.approx(
                want.area, rel=1e-14, abs=10.0 * d)
            assert tiny.measure.perimeter == pytest.approx(
                want.perimeter, rel=1e-14, abs=10.0 * d)


def test_a_chain_whose_walk_overflows_does_not_close():
    # both are finite, but their walks overflow and read a NaN closure
    # residual, which a test of res > tol let through
    for build in (lambda: ball(300.0), lambda: sausage(2.0, 200.0)):
        with pytest.raises(GeometryError, match="residual nan"):
            build()


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


def _bisected_base_height(lam, eps, d):
    """The base height by bisection on the height of the right cap's
    center, and that height as a function of the base height."""
    h = math.atanh(1.0 / lam - eps)
    rc = math.atanh(1.0 / lam)

    def center_height(t0):
        j = apply_isometry_frame(_axis_boost(t0), _fermi_frame(d, -h))
        return exp_map(j.point, rc * j.n).v[2]

    lo, hi = -1.0, 1.0
    assert center_height(lo) < 0.0 < center_height(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if center_height(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-16 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi), center_height


def test_q_counterexample_base_height_is_closed_form():
    for lam, eps, d in ((2.0, 0.1, 1.0), (1.5, 0.3, 1.0), (3.0, 0.05, 0.5),
                        (2.5, 0.15, 2.0)):
        t0 = q_counterexample(lam, eps, d).meta["base_height"]
        want, center_height = _bisected_base_height(lam, eps, d)
        assert t0 == pytest.approx(want, abs=5e-16)
        # the right cap's center sits on the symmetry axis
        assert abs(center_height(t0)) <= 1e-15


def test_body_file_convexity_is_read_from_the_arcs():
    eroded = offset(two_ball_hull(0.9, 0.7), -0.3)
    moved = sausage(2.0, 1.0).to_json_dict()
    g = random_isometry(np.random.default_rng(3))
    m = g @ sausage(2.0, 1.0).boundary.start.m
    moved["boundary"]["start"] = {k: [float(v) for v in m[:, j]]
                                  for j, k in enumerate("ptn")}
    files = [b.to_json_dict() for b in (
        ball(1.0), sausage(2.0, 1.0), two_ball_hull(0.9, 0.7), eroded,
        offset(sausage(2.0, 1.0), 0.2), random_thick_body(2.0, 12, 7))]
    files.append(moved)
    for obj in files:
        # constructor, offset and placed files load as they were written
        assert Body.from_json_dict(obj).convex is obj["convex"]
        # a file without the flag gets it from the arcs
        bare = {k: v for k, v in obj.items() if k != "convex"}
        assert Body.from_json_dict(bare).convex is obj["convex"]
        # a flag that disagrees is refused, by name
        with pytest.raises(ConvexFlagError, match="least curvature"):
            Body.from_json_dict({**obj, "convex": not obj["convex"]})
    assert not Body.from_json_dict(eroded.to_json_dict()).convex
    assert issubclass(ConvexFlagError, ValueError)


# --- containment ------------------------------------------------------------

def test_contains_point_basic():
    s = sausage(2.0, 1.0)
    assert contains_point(s, ORIGIN)
    assert contains_point(s, fermi_point(1.0, 0.0))
    assert not contains_point(s, fermi_point(3.0, 0.0))
    assert not contains_point(s, fermi_point(0.0, 2.0))


# The ray-parity point test, kept as an oracle independent of the
# normal-sign rule: it casts a ray in the disk view and counts boundary
# crossings, rotating the direction when a ray grazes an arc or passes
# through a joint.

# parity test directions, a fixed quasi-uniform rotation so reruns are
# deterministic; the first clean direction wins
_RAY_ANGLES = tuple((0.7548776662466927 + 2.399963229728653 * k) % (2.0 * math.pi)
                    for k in range(32))
_RAY_T_MIN = 1e-13


def _segment_ray_hits(z: complex, ang: float, z0: complex, z1: complex):
    d = complex(math.cos(ang), math.sin(ang))
    e = z1 - z0
    det = -(d.real * e.imag - d.imag * e.real)
    scale = max(abs(e), 1e-30)
    if abs(det) < 1e-14 * scale:
        # parallel ray; either misses or grazes along the chord
        return None if abs((z0 - z).real * d.imag
                           - (z0 - z).imag * d.real) < 1e-13 else []
    rhs = z0 - z
    t = (rhs.real * (-e.imag) + rhs.imag * e.real) / det
    u = (d.real * rhs.imag - d.imag * rhs.real) / det
    if u < -1e-12 or u > 1.0 + 1e-12:
        return []
    if u < 1e-10 or u > 1.0 - 1e-10:
        return None  # too close to a joint, retry with a new direction
    if t < _RAY_T_MIN:
        return [] if t < -_RAY_T_MIN else None
    return [t]


def _circle_ray_hits(z: complex, ang: float, darc):
    d = complex(math.cos(ang), math.sin(ang))
    f = z - darc.center
    b = f.real * d.real + f.imag * d.imag
    c = abs(f) ** 2 - darc.radius ** 2
    disc = b * b - c
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    if sq < 1e-9 * (1.0 + darc.radius):
        return None  # grazing, parity ambiguous
    hits = []
    full = abs(darc.sweep) >= 2.0 * math.pi - 1e-12
    for t in (-b - sq, -b + sq):
        if t < _RAY_T_MIN:
            if t > -_RAY_T_MIN:
                return None
            continue
        zp = z + t * d
        phi = math.atan2((zp - darc.center).imag, (zp - darc.center).real)
        u = ((phi - darc.a0) * math.copysign(1.0, darc.sweep)) % (2.0 * math.pi)
        if u > 2.0 * math.pi - 1e-11:
            u = 0.0
        if full:
            hits.append(t)
            continue
        span = abs(darc.sweep)
        if u < 1e-11 or abs(u - span) < 1e-11:
            return None  # joint hit
        if u < span:
            hits.append(t)
    return hits


def _reference_contains_point(body, disk_arcs, q, tol=CONTAIN_TOL):
    """Boundary-inclusive within tol, else the parity of a clean ray
    across the body's disk-view arcs."""
    if dist_to_boundary(body, q) <= tol:
        return True
    z = to_disk(q)
    for ang in _RAY_ANGLES:
        parity = 0
        clean = True
        for darc in disk_arcs:
            if darc.is_segment:
                hits = _segment_ray_hits(z, ang, darc.z0, darc.z1)
            else:
                hits = _circle_ray_hits(z, ang, darc)
            if hits is None:
                clean = False
                break
            parity += len(hits)
        if clean:
            return parity % 2 == 1
    raise GeometryError("no clean ray direction found for containment test")


# eroded hulls: the geodesic sides erode to hypercycles bending away,
# so each is non-convex, and every depth stays short of the pinch
_ERODED_HULLS = ((0.9, 0.7, 0.3), (0.9, 0.7, 0.6), (BIG_R, 1.0, 0.2),
                 (BIG_R, 1.0, 0.35), (0.6, 1.2, 0.3), (0.7, 0.4, 0.5),
                 (1.1, 0.9, 0.8), (1.3, 1.5, 0.5), (0.5, 0.3, 0.2),
                 (1.031, 0.761, 0.7))


def test_contains_point_matches_signed_distance():
    cases = [two_ball_hull(0.9, 0.7)]  # convex: caps and geodesic sides
    for r, d, rho in _ERODED_HULLS:
        eroded = offset(two_ball_hull(r, d), -rho)
        assert not eroded.convex and eroded.boundary.is_simple()
        cases.append(eroded)
    for body in cases:
        rng = np.random.default_rng(31)
        dirs = _random_directions(rng, 200)
        radii = rng.uniform(0.0, 2.5, size=200)
        pts = np.array([exp_map(ORIGIN, r * u).v
                        for r, u in zip(radii, dirs)])
        sd = signed_boundary_distance(body, pts)
        disk_arcs = _view_arcs(body, "disk")
        for v, s in zip(pts, sd):
            if abs(s) < 1e-7:
                continue  # too close to the boundary to trust either verdict
            q = Point.from_array(v, validate=False)
            assert contains_point(body, q) == (s > 0.0)
            assert _reference_contains_point(body, disk_arcs, q) == (s > 0.0)


def test_containment_in_a_non_simple_chain_raises():
    # eroded past the pinch, the hull's sides cross: no side is defined
    body = offset(two_ball_hull(1.031, 0.761), -0.865, check_simple=False)
    assert not body.convex and not body.boundary.is_simple()
    with pytest.raises(NonSimpleBoundaryError):
        contains_point(body, ORIGIN)
    with pytest.raises(NonSimpleBoundaryError):
        contains_body(body, ball(0.1))


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


def _reference_critical_params(kappa: float, length: float, B, D):
    """Interior stationary parameters of one arc, one row per candidate
    root and one column per query, invalid slots < 0: the scalar form
    the stacked pass replaced, kept here so the oracle shares no code
    with it."""
    alpha = 1.0 - kappa * kappa
    if abs(alpha) < 1e-11:
        with np.errstate(divide="ignore", invalid="ignore"):
            s = -B / D
        s = np.where(np.isfinite(s), s, -1.0)
        return s[None, :]
    if alpha > 0.0:
        mu = math.sqrt(alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = -B * mu / D
            s = np.arctanh(ratio) / mu
        s = np.where(np.isfinite(s), s, -1.0)
        return s[None, :]
    w = math.sqrt(-alpha)
    base = np.arctan2(-B * w, D) / w
    period = math.pi / w
    k0 = np.ceil((0.0 - base) / period)
    # at most length/period + 1 roots can land inside the arc
    count = int(math.floor(length / period)) + 2
    return base + (k0 + np.arange(count)[:, None]) * period


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
        S = _reference_critical_params(a.kappa, a.length, B, D)
        ends = np.broadcast_to(np.array([[0.0], [a.length]]), (2, nq))
        S = np.concatenate([S, ends])
        valid = (S >= -1e-12) & (S <= a.length + 1e-12)
        Sc = np.clip(S, 0.0, a.length)
        c1, c2 = _kernel(a.kappa, Sc)
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
    return Body(boundary=spline)


def test_boundary_proximity_matches_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    s = sausage(2.0, 1.0)
    g = np.array([[math.cosh(4.0), math.sinh(4.0), 0.0],
                  [math.sinh(4.0), math.cosh(4.0), 0.0],
                  [0.0, 0.0, 1.0]])
    moved = Body(boundary=ArcSpline(apply_isometry_frame(g, s.boundary.start),
                                    s.boundary.arcs))
    # open chains reach the horocycle branch and concave arcs
    odd = Body(boundary=ArcSpline(
        Frame(np.eye(3)), (Arc(1.0, 2.0), Arc(1.0 + 1e-13, 1.0),
                           Arc(-0.7, 1.5), Arc(-2.5, 3.0), Arc(0.0, 1.0)),
        closure_tol=math.inf))
    # a circle arc over more than a full turn, so with five roots,
    # between hypercircles: the stacked pass pads the other arcs' rows
    looped = Body(boundary=ArcSpline(
        Frame(np.eye(3)), (Arc(0.4, 1.2), Arc(3.0, 3.5), Arc(0.8, 0.6)),
        closure_tol=math.inf))
    assert _reference_critical_params(3.0, 3.5, np.ones(1),
                                      np.ones(1)).shape[0] >= 4
    # arcs in the horocycle band, of either sign of 1 - kappa^2 and
    # exactly 1, between circle arcs
    band = Body(boundary=ArcSpline(
        Frame(np.eye(3)), (Arc(2.0, 1.0), Arc(1.0 + 3e-12, 0.8),
                           Arc(1.5, 0.7), Arc(1.0 - 4e-12, 0.5),
                           Arc(1.0, 0.4), Arc(2.5, 0.9)),
        closure_tol=math.inf))
    assert sum(abs(1.0 - a.kappa ** 2) < 1e-11
               for a in band.boundary.arcs) == 3
    cases = [(b, _query_cloud(rng, 2000)) for b in (
        ball(1.0), sausage(2.0, 1.0), sausage(2.507, 1.983),
        sausage(3.0, 0.0), two_ball_hull(0.8, 0.7),
        q_counterexample(2.0, 0.1), random_thick_body(2.0, 12, 7),
        random_thick_body(2.0, 12, 23), odd, looped, band)]
    cases.append((moved, _query_cloud(rng, 2000, g)))
    for b, pts in cases:
        pts = np.concatenate([pts, b.boundary.sample_points(200)])
        _assert_same_bits(boundary_proximity(b, pts),
                          _reference_proximity(b, pts))
    # a cloud of one query
    for b in (random_thick_body(2.0, 12, 7), looped, band):
        pts = _query_cloud(rng, 1)
        _assert_same_bits(boundary_proximity(b, pts),
                          _reference_proximity(b, pts))
    # queries whose values overflow or are NaN: a NaN never wins, and a
    # query with no candidate reads arc 0 at s = 0, as in the loop
    wild = np.array([[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0],
                     [np.inf, np.inf, 0.0], [1e200, 1e200, 0.0],
                     [-np.inf, 1.0, 1.0], [1.0, 0.0, 0.0]])
    with np.errstate(invalid="ignore", over="ignore"):
        for b in (sausage(2.0, 1.0), looped):
            _assert_same_bits(boundary_proximity(b, wild),
                              _reference_proximity(b, wild))


def test_boundary_proximity_matches_reference_on_rolling_queries():
    # the grid a sampled rolling test sends: 360 circle samples on each
    # lambda = 2 ball tangent from inside at 720 boundary points
    s = sausage(2.0, 1.0)
    P, T, N = s.boundary.sample_frames(720)[:3]
    ch, sh = math.cosh(BIG_R), math.sinh(BIG_R)
    C = P * ch + N * sh
    u1 = T + np.einsum("ij,ij->i", T @ _ETA, C)[:, None] * C
    u1 = u1 / np.sqrt(np.einsum("ij,ij->i", u1 @ _ETA, u1))[:, None]
    u2 = np.cross(C, u1) @ _ETA
    thetas = 2.0 * math.pi * np.arange(360) / 360
    X = (C[:, None, :] * ch
         + sh * (u1[:, None, :] * np.cos(thetas)[None, :, None]
                 + u2[:, None, :] * np.sin(thetas)[None, :, None]))
    pts = X.reshape(-1, 3)
    assert pts.shape == (P.shape[0] * 360, 3)
    _assert_same_bits(boundary_proximity(s, pts),
                      _reference_proximity(s, pts))


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
        b = Body(boundary=spline)
        _assert_same_bits(boundary_proximity(b, center),
                          _reference_proximity(b, center))


def _reference_normals(frame: Frame, kappa: float, s):
    """Inward unit normals at arclengths s of one arc, as a vector each:
    the normal column of I + c1 M + c2 M^2 carried by the start frame."""
    c1, c2 = _kernel(kappa, s)
    coeffs = np.stack([-kappa * c2, -kappa * c1, 1.0 - kappa * kappa * c2],
                      axis=-1)
    return coeffs @ frame.m.T


def test_signed_distance_keeps_its_side_at_snapped_caps():
    # eroding a sausage by its cap radius snaps each cap to radius 1e-9,
    # curvature 1e9; points 1e-8 to 1e-7 outside such a cap, and 5e-10
    # inside it, keep the side that the normal built at the nearest
    # point reads, bit for bit
    core = offset(sausage(2.0, 1.0), -BIG_R)
    spline = core.boundary
    caps = [i for i, a in enumerate(spline.arcs) if a.kappa > 1e8]
    assert len(caps) == 2
    pts = []
    for i in caps:
        a, f = spline.arcs[i], spline.frames[i]
        s = np.linspace(0.0, a.length, 17)
        c1, c2 = _kernel(a.kappa, s)
        x = np.stack([1.0 + c2, c1, a.kappa * c2], axis=-1) @ f.m.T
        N = _reference_normals(f, a.kappa, s)
        for delta in (-1e-7, -5e-8, -2e-8, -1e-8, 5e-10):
            pts.append(x * math.cosh(delta) + N * math.sinh(delta))
    pts = np.concatenate(pts)
    d, arc, s = _reference_proximity(core, pts)
    Q = pts @ _ETA
    side = np.empty(len(pts))
    for i in np.unique(arc):
        sel = arc == i
        N = _reference_normals(spline.frames[i], spline.arcs[i].kappa, s[sel])
        side[sel] = np.einsum("ij,ij->i", Q[sel], N)
    want = np.where(side >= 0.0, d, -d)
    got = signed_boundary_distance(core, pts)
    assert got.tobytes() == want.tobytes()

# --- inradius ---------------------------------------------------------------

def test_inradius_of_ball_and_sausage():
    assert inradius(ball(1.0)) == pytest.approx(1.0, abs=1e-6)
    assert inradius(sausage(2.0, 1.0)) == pytest.approx(BIG_R, abs=1e-6)


def test_inradius_is_exact_for_known_radii():
    for r in (0.01, 1.0, 3.0):
        assert inradius(ball(r)) == pytest.approx(r, abs=1e-12)
    for d in (0.7, 1.2):
        assert inradius(two_ball_hull(0.8, d)) == pytest.approx(0.8, abs=1e-12)
    # not thick, but its deepest balls are still the caps
    assert inradius(q_counterexample(2.0, 0.1)) == pytest.approx(
        math.atanh(0.5), abs=1e-12)


def test_sausage_inradius_is_the_cap_radius():
    s = sausage(2.0, 1.0)
    assert _sausage_at_origin(s)
    assert inradius(s) == s.meta["cap_radius"] == BIG_R
    depth, center = inscribed_ball(s)
    assert depth == BIG_R and center == ORIGIN
    assert _sausage_at_origin(Body.from_json_dict(s.to_json_dict()))
    assert not _sausage_at_origin(Body(boundary=s.boundary,
                                       meta={"kind": "sausage"}))
    # the touching-configuration search agrees once meta no longer
    # names the body: the cap circles' centers are candidates
    bare = Body(boundary=s.boundary)
    assert inradius(bare) == pytest.approx(BIG_R, abs=1e-12)
    # an offset sausage keeps its meta but not its inradius
    grown = offset(s, 0.3)
    assert not _sausage_at_origin(grown)
    assert inradius(grown) == pytest.approx(BIG_R + 0.3, abs=1e-12)
    # a moved sausage keeps its inradius but not its core
    g = np.array([[math.cosh(1.0), 0.0, math.sinh(1.0)], [0.0, 1.0, 0.0],
                  [math.sinh(1.0), 0.0, math.cosh(1.0)]])
    moved = Body(boundary=ArcSpline(apply_isometry_frame(g, s.boundary.start),
                                    s.boundary.arcs),
                 meta=dict(s.meta))
    assert not _sausage_at_origin(moved)
    depth, center = inscribed_ball(moved)
    assert depth == pytest.approx(BIG_R, abs=1e-12)
    assert dist_to_boundary(moved, center) == pytest.approx(BIG_R, abs=1e-12)


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


def test_inradius_between_sides_of_one_geodesic():
    # both sides are equidistant from the x1 axis at height 0.5, and
    # each cap is a tight arc, a flat one across the axis and a tight
    # one; the balls between the sides end where they meet the flat
    # arc, a touch no circle center or antipodal pair describes; the
    # lengths put each flat arc's midpoint on the axis, closing the chain
    h = 0.5
    tight, flat = Arc(4.0, 0.36281103882142135), Arc(0.8, 0.5948103531701934)
    side = Arc(math.tanh(h), 2.0 * math.cosh(h))
    spline = ArcSpline(bodies._fermi_frame(1.0, -h),
                       [tight, flat, tight, side] * 2)
    body = Body(boundary=spline)
    r, center = inscribed_ball(body)
    assert r == pytest.approx(h, abs=1e-12)
    assert abs(center.x2) < 1e-12
    assert dist_to_boundary(body, center) == pytest.approx(h, abs=1e-12)


@pytest.mark.parametrize("lam", [1.5, 2.0, 3.0])
def test_inscribed_ball_of_random_bodies_is_deepest(lam):
    rng = np.random.default_rng(int(lam * 10))
    far = np.array([[math.cosh(8.0), math.sinh(8.0), 0.0],
                    [math.sinh(8.0), math.cosh(8.0), 0.0], [0.0, 0.0, 1.0]])
    for seed in range(1, 11):
        body = random_thick_body(lam, 12, seed=seed)
        r, center = inscribed_ball(body)
        # the center attains the radius
        got = signed_boundary_distance(body, center.v[None, :])[0]
        assert got == pytest.approx(r, abs=1e-9)
        # and nothing is deeper: 128 inward normal rays x 32 depths
        P, _, N = body.boundary.sample_frames(128)[:3]
        t = np.linspace(0.0, 2.0 * r, 32)[:, None, None]
        lattice = (P * np.cosh(t) + N * np.sinh(t)).reshape(-1, 3)
        assert np.max(signed_boundary_distance(body, lattice)) <= r + 1e-9
        # placement does not move it, not even 8 units out, where the
        # coordinates reach cosh 8 and chains miss closure by up to 2e-8
        # (so they are built without the closure check)
        spline = body.boundary
        for g in (random_isometry(rng), far @ random_isometry(rng)):
            moved = ArcSpline(apply_isometry_frame(g, spline.start),
                              spline.arcs, closure_tol=math.inf)
            assert inradius(Body(boundary=moved)) == \
                pytest.approx(r, abs=1e-9)


@pytest.mark.parametrize("r, d, rho, want", [(0.9, 0.7, 0.3, 0.6),
                                             (0.6, 1.0, 0.2, 0.4)])
def test_inscribed_ball_of_eroded_hulls(r, d, rho, want):
    # eroded, a hull's geodesic sides turn concave; the body stays
    # simple and its deepest balls are the eroded caps, of radius r - rho
    body = offset(two_ball_hull(r, d), -rho)
    assert not body.convex and body.boundary.is_simple()
    depth, center = inscribed_ball(body)
    assert depth == pytest.approx(want, abs=1e-12)
    # the ball fits: its center lies depth inside the boundary
    assert signed_boundary_distance(body, center.v[None, :])[0] == \
        pytest.approx(depth, abs=1e-9)
    # and nothing on a grid of inner normal rays is deeper
    P, _, N = body.boundary.sample_frames(256)[:3]
    t = np.linspace(0.0, 2.0 * depth, 64)[:, None, None]
    grid = (P * np.cosh(t) + N * np.sinh(t)).reshape(-1, 3)
    assert np.max(signed_boundary_distance(body, grid)) <= depth + 1e-9


def _unfiltered_deepest_center(body: Body):
    """`_deepest_center` with no supporting-geodesic prefilter: the exact
    fit test on every touching configuration."""
    spline = body.boundary
    assert spline.is_simple()
    F = spline.origin_frames
    C, R = bodies._touch_candidates(spline.kappas, F)
    C = project_to_sheet(C)
    depth = bodies._signed_distance(spline.kappas, spline.lengths, F, C)
    fits = depth >= R - INRADIUS_TOL * np.maximum(1.0, R)
    best = np.max(np.where(fits, R, -np.inf))
    k = int(np.argmax(fits & (R >= best - INRADIUS_TOL * max(1.0, best))))
    return float(R[k]), spline.start.m @ C[k]


def test_inscribed_ball_prefilter_keeps_the_winner():
    boost = np.array([[math.cosh(3.0), math.sinh(3.0), 0.0],
                      [math.sinh(3.0), math.cosh(3.0), 0.0],
                      [0.0, 0.0, 1.0]])
    s = sausage(2.0, 4.0)
    moved = Body(boundary=ArcSpline(apply_isometry_frame(boost, s.boundary.start),
                                    s.boundary.arcs))
    bodies_ = [random_thick_body(lam, 12, seed) for lam in (1.5, 2.0, 3.0)
               for seed in range(1, 41)]
    bodies_ += [offset(two_ball_hull(0.9, 0.7), -0.3),
                offset(two_ball_hull(0.6, 1.0), -0.2), moved]
    dropped = 0
    for body in bodies_:
        r, center = bodies._deepest_center(body)
        want_r, want_c = _unfiltered_deepest_center(body)
        assert np.float64(r).tobytes() == np.float64(want_r).tobytes()
        assert center.v.tobytes() == want_c.tobytes()
        spline = body.boundary
        if min(a.kappa for a in spline.arcs) >= -1e-12:
            F = spline.origin_frames
            C, R = bodies._touch_candidates(spline.kappas, F)
            dropped += np.count_nonzero(~bodies._supported(
                project_to_sheet(C), R, F[:-1, :, 2]))
    # the prefilter does drop candidates: most of them, on random bodies
    assert dropped > 100 * len(bodies_)


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


def test_offset_of_an_offset_records_the_total():
    once = offset(sausage(2.0, 1.0), 0.1)
    twice = offset(once, 0.2)
    assert twice.meta["offset_rho"] == pytest.approx(0.3, abs=1e-15)
    assert twice.meta["offset_from"] == "sausage"
    assert twice.meta["degenerate_caps"] is False
    # a cap snapped by the erosion stays recorded after growing back
    core = offset(sausage(2.0, 1.0), -BIG_R, check_simple=False)
    assert core.meta["degenerate_caps"] is True
    grown = offset(core, 0.2)
    assert grown.meta["degenerate_caps"] is True
    assert grown.meta["offset_rho"] == pytest.approx(0.2 - BIG_R, abs=1e-15)


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


def _offset_or_error(body, rho, check_simple):
    try:
        return offset(body, rho, check_simple)
    except (ValueError, ArithmeticError) as e:
        return e


def _arc_bits(arcs) -> bytes:
    return np.array([(a.kappa, a.length) for a in arcs]).tobytes()


def _same_spline(got: ArcSpline, want: ArcSpline):
    assert _arc_bits(got.arcs) == _arc_bits(want.arcs)
    assert got.start.m.tobytes() == want.start.m.tobytes()
    assert got.origin_frames.shape == want.origin_frames.shape
    assert got.origin_frames.tobytes() == want.origin_frames.tobytes()
    assert got.closure_residual() == want.closure_residual()
    assert got.is_simple() == want.is_simple()
    assert got.closure_tol == want.closure_tol


def test_offsets_match_offset_alone_bit_for_bit():
    # all distances share one stacked walk; each entry must be the body
    # offset builds alone, or the error it raises, to the bit.  The
    # stacks mix convex and concave chains, a ball's one arc (split for
    # its rotation index), snapped caps, pinches and collapsed caps
    snapped = offset(sausage(2.0, 1.0), -BIG_R, check_simple=False)
    assert snapped.meta["degenerate_caps"] is True
    cases = [sausage(2.0, 1.0), ball(0.7), two_ball_hull(0.9, 0.7),
             q_counterexample(2.0, 0.1), random_thick_body(2.0, 12, 7),
             offset(two_ball_hull(0.9, 0.7), -0.3),
             offset(two_ball_hull(0.6, 1.0), -0.2), snapped]
    rhos = [0.1, -0.1, 0.25, -0.3, 0.4, -0.45, 0.0, -0.8]
    errors = set()
    for body in cases:
        for check_simple in (True, False):
            got = bodies.offsets(body, rhos, check_simple)
            assert len(got) == len(rhos)
            for rho, g in zip(rhos, got):
                want = _offset_or_error(body, rho, check_simple)
                if rho == 0.0:
                    assert g is body and want is body
                elif isinstance(want, Exception):
                    assert type(g) is type(want) and str(g) == str(want)
                    errors.add(type(want).__name__)
                else:
                    assert g.meta == want.meta and g.convex == want.convex
                    _same_spline(g.boundary, want.boundary)
                    # and the chain walked on its own, without a stack
                    fresh = ArcSpline(want.boundary.start, want.boundary.arcs,
                                      closure_tol=1e-8)
                    _same_spline(g.boundary, fresh)
    assert errors == {"DegenerateBodyError", "NonSimpleBoundaryError"}


def test_offsets_keep_each_distance_its_own_error(monkeypatch):
    # an arc that cannot be offset at one distance fails that entry
    # alone, and the other entries are the bodies built without it
    body = two_ball_hull(0.9, 0.7)
    rhos = [0.1, 0.25, -0.3]
    want = bodies.offsets(body, rhos)
    offset_arc = bodies._offset_arc

    def broken(kappa, length, rho):
        if rho == 0.25:
            raise bodies.DegenerateBodyError("refused")
        return offset_arc(kappa, length, rho)

    monkeypatch.setattr(bodies, "_offset_arc", broken)
    got = bodies.offsets(body, rhos)
    assert isinstance(got[1], bodies.DegenerateBodyError)
    with pytest.raises(bodies.DegenerateBodyError, match="refused"):
        offset(body, 0.25)
    for g, w in ((got[0], want[0]), (got[2], want[2])):
        _same_spline(g.boundary, w.boundary)


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


# the sausages the rolling tests use, (lam, d)
_SAUSAGES = ((2.0, 1.0), (5.0, 3.0), (4.0, 3.0), (1.5, 2.0), (2.0, 4.0))


def _sampled_rolling(body: Body, lam: float, n: int = 720) -> float:
    """The sampled rolling margin the exact test replaced, as its oracle.

    The lam-ball tangent from inside at a boundary point x with inward
    normal N is centered at c = x cosh rho + N sinh rho; the margin is
    the least of dist(c, boundary) - rho over the centers at the
    `sample_frames(n)` points, one boundary distance each, on the chain
    walked from the origin frame.  It is <= 0, as x itself lies at rho,
    and equals 2 (reach - rho) where rho / 2 <= reach <= rho.
    """
    rho = math.atanh(1.0 / lam)
    spline = body.boundary
    k, L, frames = spline.kappas, spline.lengths, spline.origin_frames
    P, _, N = _sample_chain(k, L, frames, n)[:3]
    centers = P * math.cosh(rho) + N * math.sinh(rho)
    d, _, _ = bodies._proximity(k, L, frames, centers)
    return float(np.min(d - rho))


def _assert_matches_oracle(body: Body, lam: float):
    """Verdict, margin and witness of `rolls_freely` against the oracle."""
    rep = rolls_freely(body, lam)
    sampled = _sampled_rolling(body, lam)
    # the oracle judged with the tolerance it had, 1e-6
    assert rep.ok == (sampled >= -1e-6), (rep.worst_margin, sampled)
    if 2.0 * rep.reach >= rep.rho:
        assert abs(sampled - min(rep.worst_margin, 0.0)) <= 1e-4, \
            (rep.worst_margin, sampled)
    assert dist(rep.witness_center, rep.witness_point) == pytest.approx(
        rep.rho, abs=1e-12)
    if not rep.ok:
        assert not contains_point(body, rep.witness_point)
    return rep, sampled


def test_long_sausages_roll_at_their_lambda():
    # the sides' double normal is 2 arccoth lam in closed form and the
    # caps' focal distance arccoth lam, so the margin is 0 however long
    for lam, d in ((5.0, 3.0), (4.0, 3.0), (1.5, 2.0)):
        rep = rolls_freely(sausage(lam, d), lam)
        assert rep.ok, (lam, d)
        assert abs(rep.worst_margin) < 1e-12, (lam, d, rep.worst_margin)


def test_criterion_05_bodies_roll():
    for seed in range(1, 51):
        rep = rolls_freely(random_thick_body(2.0, 12, seed), 2.0)
        assert rep.ok, (seed, rep.worst_margin)


def test_rolling_margin_is_one_boundary_distance_per_center(monkeypatch):
    # the exact test measures no boundary distance at all, yet where
    # rho / 2 <= reach <= rho its margin is the oracle's: the least
    # boundary distance of the sampled centers, less rho
    calls = []
    real = bodies._proximity

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bodies, "_proximity", record)
    for body in (q_counterexample(2.0, 0.1), q_counterexample(2.0, 0.05),
                 two_ball_hull(0.6, 1.0), ball(0.5)):
        rep = rolls_freely(body, 2.0)
        assert not calls
        assert rep.rho / 2.0 <= rep.reach <= rep.rho
        sampled = _sampled_rolling(body, 2.0)
        calls.clear()
        # sampling can miss the worst center, never find a worse one
        assert rep.worst_margin - 1e-12 <= sampled <= rep.worst_margin + 1e-4
    # q(2, 0.1) binds at the double normal across its middle, which
    # the samples hit
    assert rolls_freely(q_counterexample(2.0, 0.1), 2.0).worst_margin \
        == pytest.approx(-0.088945, abs=1e-6)


def test_q_counterexample_witness():
    body = q_counterexample(2.0, 0.1)
    rep = rolls_freely(body, 2.0)
    assert rep.worst_margin == pytest.approx(-0.088945, abs=1e-6)
    # the sides face each other across the body's middle
    assert rep.binding_arcs == (0, 2)
    assert rep.reach == pytest.approx(rep.rho - 0.088945 / 2.0, abs=1e-6)
    assert dist(rep.witness_center, rep.witness_point) == pytest.approx(
        rep.rho, abs=1e-12)
    assert not contains_point(body, rep.witness_point)


def test_witness_of_a_ball_whose_centers_leave_it():
    # radius 0.2 < arccoth(2) / 2: the reach is the focal distance 0.2
    # and the margin 2 (0.2 - rho); the oracle's centers lie outside the
    # body, where their boundary distance is rho - 0.4, so it reads -0.4
    b = ball(0.2)
    rep = rolls_freely(b, 2.0)
    assert not rep.ok
    assert rep.reach == pytest.approx(0.2, abs=1e-15)
    assert rep.binding_arcs == (0, 0)
    assert rep.worst_margin == pytest.approx(2.0 * (0.2 - BIG_R), abs=1e-12)
    assert rep.worst_margin == pytest.approx(-0.6986123, abs=1e-7)
    assert _sampled_rolling(b, 2.0) == pytest.approx(-0.4, abs=1e-9)
    assert dist(rep.witness_center, rep.witness_point) == pytest.approx(
        rep.rho, abs=1e-12)
    assert not contains_point(b, rep.witness_point)


@pytest.mark.parametrize("lam", [1.5, 2.0, 3.0])
def test_rolling_matches_sampled_oracle_on_random_bodies(lam):
    for seed in range(1, 201):
        rep, _ = _assert_matches_oracle(random_thick_body(lam, 12, seed),
                                        lam)
        assert rep.ok and rep.worst_margin >= 0.0, (seed, rep.worst_margin)


def test_rolling_matches_sampled_oracle_on_constructed_bodies():
    cases = [(sausage(lam, d), lam) for lam, d in _SAUSAGES]
    cases += [(ball(r), 2.0) for r in (0.2, 0.5, BIG_R, 1.0)]
    cases += [(two_ball_hull(r, d), 2.0)
              for r in (0.3, 0.6, 0.9) for d in (0.5, 1.0, 2.0)]
    cases += [(q_counterexample(2.0, eps), 2.0) for eps in (0.05, 0.1, 0.2)]
    # non-convex and simple, and it keeps lam, so render rolls it
    eroded = offset(q_counterexample(2.0, 0.1), -0.45)
    assert not eroded.convex and eroded.boundary.is_simple()
    cases.append((eroded, 2.0))
    verdicts = [_assert_matches_oracle(b, lam)[0].ok for b, lam in cases]
    assert verdicts == [True] * 5 + [False, False, True, True] \
        + [False] * 6 + [True, True, False] + [False] * 4
    # its caps have radius 0.1: the ball at a cap, of radius rho, runs
    # far into the body along the normal, and its witness is found
    # beyond the cap's tangent instead
    rep, sampled = _assert_matches_oracle(eroded, 2.0)
    assert sampled == pytest.approx(-0.5408, abs=1e-4)
    assert rep.reach < rep.rho / 2.0
    # the caps of this hull are below rho as well
    hull = two_ball_hull(0.3, 1.0)
    rep, _ = _assert_matches_oracle(hull, 2.0)
    assert not rep.ok and not contains_point(hull, rep.witness_point)


def _restarted(body: Body, s: int) -> Body:
    """The same body with its chain started at the start of arc s."""
    spline = body.boundary
    arcs = spline.arcs[s:] + spline.arcs[:s]
    return Body(boundary=ArcSpline(spline.frames[s], arcs,
                                   closure_tol=math.inf))


def _mirrored(body: Body) -> Body:
    """The body's mirror image in the plane x2 = 0, still traversed
    counterclockwise: the arcs run in reverse order from the mirrored
    start point, with the tangent turned round."""
    f = body.boundary.start
    R = np.diag([1.0, 1.0, -1.0])
    start = Frame(np.column_stack([R @ f.p, -(R @ f.t), R @ f.n]))
    return Body(boundary=ArcSpline(
        start, tuple(reversed(body.boundary.arcs)), closure_tol=math.inf))


def _shortest_double_normal(body: Body) -> float:
    spline = body.boundary
    k = np.array([a.kappa for a in spline.arcs])
    L = np.array([a.length for a in spline.arcs])
    F = spline.origin_frames
    length = _double_normals(k, L, F, _support_vectors(k, F[:-1]))[0]
    return float(length.min())


def _double_normal_bodies():
    """Bodies whose reach is set by a double normal, convex or not."""
    yield q_counterexample(2.0, 0.1)
    yield q_counterexample(3.0, 0.2, 0.6)
    yield offset(q_counterexample(2.0, 0.05), 0.2)
    for r, d in ((0.3, 1.0), (0.6, 0.5), (0.6, 1.0), (0.9, 2.0)):
        yield two_ball_hull(r, d)
    yield offset(two_ball_hull(0.9, 0.7), -0.3)
    yield offset(two_ball_hull(0.6, 1.0), -0.2)
    yield offset(q_counterexample(2.0, 0.1), -0.3)


def test_reach_matches_sampled_oracle_wherever_the_chain_starts():
    # for rho / 2 <= reach <= rho the least center distance, less rho,
    # is 2 (reach - rho) exactly, realized by the binding double normal:
    # so the oracle, asked at rho = 1.25 reach, finds the reach again.
    # Restarting the chain at each joint renumbers the arcs, and the
    # mirror image turns every double normal round; none may be lost or
    # invented
    for body in _double_normal_bodies():
        want = None
        for s, mirror in itertools.product(range(len(body.boundary.arcs)),
                                           (False, True)):
            moved = _restarted(_mirrored(body) if mirror else body, s)
            rep = rolls_freely(moved, 2.0)
            i, j = rep.binding_arcs
            assert i != j
            if want is None:
                want = rep.reach
            assert rep.reach == pytest.approx(want, abs=1e-12)
            lam = 1.0 / math.tanh(1.25 * rep.reach)
            rep = rolls_freely(moved, lam)
            assert rep.worst_margin == pytest.approx(
                _sampled_rolling(moved, lam), abs=1e-4)
            assert not contains_point(moved, rep.witness_point)


@pytest.mark.parametrize("lam", [1.5, 3.0])
def test_shortest_double_normal_of_random_bodies_ignores_handedness(lam):
    # random bodies roll by their focal distance, so their double
    # normals never decide a verdict; they must still all be found
    for seed in range(1, 21):
        body = random_thick_body(lam, 12, seed)
        want = _shortest_double_normal(body)
        for moved in (_mirrored(body), _restarted(body, 5),
                      _restarted(_mirrored(body), 7)):
            assert _shortest_double_normal(moved) == pytest.approx(
                want, abs=1e-9), seed


def test_double_normals_need_facing_normals():
    # arcs of two unit circles centered 5 apart on the x1 axis: on the
    # sides that face each other the inner normals point apart and no
    # double normal joins them; on the far sides they face, 7 apart
    k, ell = 1.0 / math.tanh(1.0), 0.4

    def arc_start(s, inward):
        # the arc through the axis point at x1-distance s, centered there
        p = np.array([math.cosh(s), math.sinh(s), 0.0])
        n = inward * np.array([math.sinh(s), math.cosh(s), 0.0])
        t = np.array([0.0, 0.0, -inward])  # so that n = p x t
        at_axis = np.column_stack([p, t, n])
        return at_axis @ arc_transports([k], [-ell / 2.0])[0][0]

    for (a, da), (b, db), want in (((1.0, -1.0), (4.0, 1.0), []),
                                   ((-1.0, 1.0), (6.0, -1.0), [7.0, 7.0])):
        fa, fb = arc_start(a, da), arc_start(b, db)
        # arcs 1 and 3 repeat arcs 0 and 2: the only non-adjacent pairs
        # of four arcs are (0, 2) and (1, 3)
        F = np.array([fa, fa, fb, fb, fa])
        kk, L = np.full(4, k), np.full(4, ell)
        length = _double_normals(kk, L, F, _support_vectors(kk, F[:-1]))[0]
        assert length.tolist() == pytest.approx(want, abs=1e-9)


def test_double_normals_of_split_sausage_sides():
    # each side cut in three: pieces of one side lie on one equidistant,
    # whose normals run the same way, so no double normal joins them;
    # a piece of one side faces the pieces of the other that overlap
    # it, at 2 arccoth(lam) in closed form, and the caps face each
    # other along the axis
    s = sausage(2.0, 1.0)
    spline = s.boundary
    for index in (3, 1):
        a = spline.arcs[index]
        spline = spline.split(index, a.length / 3.0)
        spline = spline.split(index + 1, a.length / 3.0)
    arcs = spline.arcs
    assert len(arcs) == 8  # cap, 3 bottom pieces, cap, 3 top pieces
    k = np.array([a.kappa for a in arcs])
    L = np.array([a.length for a in arcs])
    F = spline.origin_frames
    length, first, second, _, _ = _double_normals(k, L, F,
                                                  _support_vectors(k, F[:-1]))
    bottom, top = {1, 2, 3}, {5, 6, 7}
    pairs = set(zip(first.tolist(), second.tolist()))
    assert all({i, j} & bottom and {i, j} & top
               for i, j in pairs - {(0, 4), (4, 0)}), pairs
    # the pieces overlap like this, ends included
    for i, j in ((1, 7), (2, 6), (3, 5), (1, 6), (2, 7), (2, 5), (3, 6)):
        assert (i, j) in pairs or (j, i) in pairs, (i, j)
    sides = np.isin(first, list(bottom | top))
    assert np.all(length[sides] == 2.0 * s.meta["cap_radius"])
    rep = rolls_freely(Body(boundary=spline), 2.0)
    assert rep.worst_margin == 0.0


def test_sausages_read_zero_margin_and_moved_copies_keep_inradius_bits():
    # rho, the focal distance and the cap radii come from one arccoth, so
    # a sausage at the origin (closed-form inradius) and a moved copy
    # (the general search) agree to the bit
    g = _translation(0.7, 3.0, 1.1)
    for lam, d in _SAUSAGES + ((1.7, 0.5), (2.9, 1.3), (7.0, 0.4)):
        s = sausage(lam, d)
        assert abs(rolls_freely(s, lam).worst_margin) <= 1e-12, (lam, d)
        moved = Body(boundary=ArcSpline(
            apply_isometry_frame(g, s.boundary.start), s.boundary.arcs),
            meta=dict(s.meta))
        assert not _sausage_at_origin(moved)
        assert inradius(moved) == inradius(s) == s.meta["cap_radius"]


def test_moved_long_sausage_keeps_its_cap_radius_bits():
    # the walk of sausage(2, 4) from the origin frame is long enough that
    # a pair of touches reads a radius 2.2e-11 deeper than the cap's;
    # the fit test cannot tell the two apart, so the cap's closed form,
    # first in order, wins wherever the copy sits
    s = sausage(2.0, 4.0)
    for phi, d, psi in ((0.0, 0.0, 0.3), (0.7, 3.0, 1.1), (2.5, 8.0, 4.0)):
        moved = Body(boundary=ArcSpline(
            apply_isometry_frame(_translation(phi, d, psi), s.boundary.start),
            s.boundary.arcs), meta=dict(s.meta))
        assert not _sausage_at_origin(moved)
        r, _ = inscribed_ball(moved)
        assert r == inradius(s) == s.meta["cap_radius"]


def test_deepest_center_reads_every_sausage_cap_radius_bits():
    # the general search, at the origin and moved 0.5 along x1; at
    # lam = 2.2390445222611306, 2.2459979989995 and 3.0807692307692305
    # a nearly degenerate pair system returns a radius near 18 whose
    # center's <c, c> rounds to 0, and the perimeter bound drops it;
    # sausage(lam, 0) at lam = 2.1923076923076925, 2.7 and
    # 2.8269230769230766 keeps its cap center only through the bound's
    # slack
    g = _translation(0.0, 0.5, 0.0)
    lams = sorted({*np.linspace(1.05, 4.35, 27)[2:].tolist(),
                   2.2390445222611306, 2.2459979989995})
    assert {2.1923076923076925, 2.7, 2.8269230769230766,
            3.0807692307692305} <= set(lams)
    for lam in lams:
        for d in (0.0, 0.5, 1.0, 2.0, 3.0):
            s = sausage(lam, d)
            moved = Body(boundary=ArcSpline(
                apply_isometry_frame(g, s.boundary.start), s.boundary.arcs))
            for body in (s, moved):
                r, _ = bodies._deepest_center(body)
                assert r == s.meta["cap_radius"], (lam, d)


def test_near_sausage_between_old_and_new_tolerance_is_rejected():
    # sides 1e-8 below 1/lam: the ball misses by about 9.4e-9, which the
    # old tolerance 1e-6 let pass and ROLL_TOL does not
    body = q_counterexample(2.0, 1e-8)
    rep = rolls_freely(body, 2.0)
    assert -1e-6 < rep.worst_margin < -ROLL_TOL
    assert rep.worst_margin == pytest.approx(-9.385e-9, abs=1e-11)
    assert not rep.ok and rep.binding_arcs == (0, 2)
    assert _sampled_rolling(body, 2.0) == pytest.approx(rep.worst_margin,
                                                        abs=1e-11)


def test_rolling_verdict_survives_isometries():
    s = sausage(2.0, 1.0)
    at_origin = rolls_freely(s, 2.0)
    rng = np.random.default_rng(5)
    for _ in range(5):
        g = random_isometry(rng)
        moved = Body(boundary=ArcSpline(apply_isometry_frame(
            g, s.boundary.start), s.boundary.arcs))
        rep = rolls_freely(moved, 2.0)
        assert rep.ok == at_origin.ok
        assert rep.worst_margin == at_origin.worst_margin


def _translation(phi: float, d: float, psi: float) -> np.ndarray:
    """Rotate by psi at the origin, then translate d in direction phi.

    `random_isometry` stops at 2 units; this reaches any distance.
    """
    def rot(a):
        c, s = math.cos(a), math.sin(a)
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    ch, sh = math.cosh(d), math.sinh(d)
    boost = np.array([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])
    return rot(phi) @ boost @ rot(-phi) @ rot(psi)


# one constructor per kind, its two parameters read from a grid on
# [0, 1]
_KINDS = {
    "sausage": lambda a, b: sausage(1.5 + 3.5 * a, 3.0 * b),
    "ball": lambda a, b: ball(0.2 + 1.8 * a),
    "hull2": lambda a, b: two_ball_hull(0.3 + 1.2 * a, 1.5 * b),
    "qbody": lambda a, b: q_counterexample(2.0, 0.3 * a, 0.5 + b),
    "random": lambda a, b: random_thick_body(1.5 + 1.5 * a, 12,
                                             round(40 * b)),
}
_GRID = st.integers(0, 20).map(lambda i: i / 20.0)


def _intrinsic(body: Body, lam: float) -> tuple:
    spline = body.boundary
    roll = rolls_freely(body, lam)
    try:
        rin = inradius(body)
    except GeometryError as e:
        rin = type(e)
    return (spline.closure_residual(), body.measure,
            spline.check_thickness(lam), spline.is_simple(),
            roll.worst_margin, roll.ok, rin)


@given(kind=st.sampled_from(sorted(_KINDS)),
       a=_GRID, b=_GRID,
       phi=st.floats(0.0, 2.0 * math.pi), d=st.floats(0.0, 10.0),
       psi=st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=40, deadline=None)
def test_intrinsic_verdicts_do_not_depend_on_placement(kind, a, b, phi, d,
                                                       psi):
    # both bodies drop the constructor's meta, so a sausage takes the
    # general inradius search on both sides rather than the closed form
    # `_sausage_at_origin` keeps for the unmoved one
    body = _KINDS[kind](a, b)
    lam = body.thick_for or 2.0
    home = Body(boundary=body.boundary)
    moved = Body(boundary=ArcSpline(
        apply_isometry_frame(_translation(phi, d, psi), body.boundary.start),
        body.boundary.arcs))
    assert _intrinsic(moved, lam) == _intrinsic(home, lam)


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


def test_double_normals_match_the_reference_bit_for_bit():
    # the cached pair table, the early return without far pairs, the
    # concatenations and the one _on_arcs call for both feet keep every
    # output of the solver, dtypes and shapes included
    for name, body in byte_identity_corpus():
        spline = body.boundary
        k = np.array([a.kappa for a in spline.arcs])
        L = np.array([a.length for a in spline.arcs])
        F = spline.origin_frames
        W = _support_vectors(k, F[:-1])
        got, want = _double_normals(k, L, F, W), double_normals_ref(k, L, F, W)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape, name
            assert g.tobytes() == w.tobytes(), name
