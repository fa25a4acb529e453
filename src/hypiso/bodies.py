"""Convex bodies bounded by constant-curvature arc chains.

Constructors for the standard bodies (balls, two-ball hulls, thick
sausages, the near-sausage counterexample), exact distance queries
against arc boundaries, point and body containment, parallel bodies by
arc-wise offset, inradius, and the free-rolling test for the ball whose
boundary curvature matches the thickness bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geom import (
    _ETA,
    ORIGIN,
    Frame,
    Point,
    apply_isometry_frame,
    dist,
    exp_map,
    fermi_point,
    from_disk,
    lorentz_cross,
    minkowski,
    project_to_sheet,
    to_disk,
)
from .spline import (
    Arc,
    ArcSpline,
    GeometryError,
    NonSimpleBoundaryError,
    ThicknessCertificate,
    _arc_normals,
    _c12,
)
from .steiner import BodyMeasure

CONTAIN_TOL = 1e-9
# distances are arccosh of a Lorentz product, so values near zero carry
# sqrt(machine eps) noise of order 1e-8; the rolling tolerance sits
# above that floor and far below any real violation
ROLL_TOL = 1e-6

# erosion that lands a cap radius inside this band is snapped to the
# band's top instead of failing, so eroding by exactly the inradius
# degenerates cleanly to the core set
_CAP_SNAP_LO = -1e-12
_CAP_SNAP_HI = 1e-9


class DegenerateBodyError(GeometryError):
    """Requested body collapses or turns inside out."""


def _axis_boost(t: float) -> np.ndarray:
    # translation orthogonal to the x1-axis geodesic, through the origin
    return np.array([
        [math.cosh(t), 0.0, math.sinh(t)],
        [0.0, 1.0, 0.0],
        [math.sinh(t), 0.0, math.cosh(t)],
    ])


def _fermi_frame(s: float, t: float) -> Frame:
    """Frame at Fermi coordinates (s, t), tangent along increasing s.

    The tangent of a coordinate line t = const is (sinh s, cosh s, 0)
    at every height, which keeps these frames cheap to build.
    """
    p = fermi_point(s, t).v
    tv = np.array([math.sinh(s), math.cosh(s), 0.0])
    return Frame.create(p, tv, validate=False)


@dataclass
class Body:
    """A compact region bounded by one closed arc chain.

    convex means every boundary arc has nonnegative curvature;
    thick_for records the thickness parameter the body was built to
    satisfy, if any.  meta carries construction details.
    """

    boundary: ArcSpline
    convex: bool
    thick_for: float | None = None
    meta: dict = field(default_factory=dict)

    @cached_property
    def measure(self) -> BodyMeasure:
        return BodyMeasure(
            area=self.boundary.area_gauss_bonnet(),
            perimeter=self.boundary.perimeter())

    @cached_property
    def anchor(self) -> Point:
        # Euclidean mean of hyperboloid points is timelike; pushing it
        # back to the sheet is a Klein-model convex combination, hence
        # interior for convex bodies.
        pts = self.boundary.sample_points(256)
        return Point.from_array(project_to_sheet(pts.mean(axis=0)),
                                validate=False)

    def thickness_certificate(self, lam: float) -> ThicknessCertificate:
        return self.boundary.check_thickness(lam)

    def to_json_dict(self) -> dict:
        return {
            "boundary": self.boundary.to_json_dict(),
            "convex": self.convex,
            "thick_for": self.thick_for,
            "meta": dict(self.meta),
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "Body":
        spline = ArcSpline.from_json_dict(obj["boundary"])
        convex = obj.get("convex")
        if convex is None:
            convex = min(a.kappa for a in spline.arcs) >= -1e-12
        tf = obj.get("thick_for")
        return Body(boundary=spline, convex=bool(convex),
                    thick_for=None if tf is None else float(tf),
                    meta=dict(obj.get("meta", {})))


def _cap_sweep(center: Point, foot: np.ndarray, what: str) -> float:
    """Sweep of a cap centered on the x1 axis, from foot to its mirror.

    The foot's angle at the center is measured against the outward
    axis direction and must lie in (-pi, 0); the cap runs the long way
    around, through the axis, so it sweeps twice the angle's size.
    what is the message of the GeometryError raised otherwise.
    """
    sC = math.asinh(center.v[1])
    e1 = np.array([math.sinh(sC), math.cosh(sC), 0.0])
    e2 = np.array([0.0, 0.0, 1.0])
    v = foot + minkowski(center.v, foot) * center.v
    v = v / math.sqrt(minkowski(v, v))
    theta = math.atan2(minkowski(v, e2), minkowski(v, e1))
    if not -math.pi < theta < 0.0:
        raise GeometryError(what)
    return 2.0 * (-theta)


def _make_body(start: Frame, arcs, convex: bool, thick_for=None,
               meta=None, closure_tol=None) -> Body:
    kw = {} if closure_tol is None else {"closure_tol": closure_tol}
    spline = ArcSpline(start, tuple(arcs), **kw)
    return Body(boundary=spline, convex=convex, thick_for=thick_for,
                meta=meta or {})


# ---------------------------------------------------------------------------
# constructors


def ball(r: float) -> Body:
    """Metric ball of radius r centered at the origin."""
    if not r > 0.0 or not math.isfinite(r):
        raise ValueError("ball radius must be positive and finite")
    start = _fermi_frame(0.0, -r)
    k = 1.0 / math.tanh(r)
    return _make_body(
        start, [Arc(k, 2.0 * math.pi * math.sinh(r))], convex=True,
        meta={"kind": "ball", "radius": r})


def sausage(lam: float, d: float) -> Body:
    """Thick sausage: all points within arccoth(lam) of a segment.

    The segment has half-length d and lies on the x1-axis.  Boundary is
    two caps at curvature lam and two equidistant sides at curvature
    1/lam, so the body is exactly thick for lam.  d = 0 gives the ball
    whose boundary curvature is lam.
    """
    if lam <= 1.0:
        raise ValueError("thickness parameter must exceed 1")
    if d < 0.0:
        raise ValueError("half-length must be nonnegative")
    r = math.atanh(1.0 / lam)  # cap radius, coth(r) = lam
    cap = Arc(lam, math.pi * math.sinh(r))
    arcs = [cap]
    if d > 0.0:
        side = Arc(1.0 / lam, 2.0 * d * math.cosh(r))
        arcs = [cap, side, cap, side]
    else:
        arcs = [cap, cap]
    start = _fermi_frame(d, -r)
    return _make_body(start, arcs, convex=True, thick_for=lam,
                      meta={"kind": "sausage", "lambda": lam, "d": d,
                            "cap_radius": r})


def two_ball_hull(r: float, d: float) -> Body:
    """Convex hull of two radius-r balls with centers 2d apart.

    Boundary: two geodesic segments on the outer common tangents plus
    one major arc of each ball.  d = 0 degenerates to the single ball.
    """
    if not r > 0.0:
        raise ValueError("ball radius must be positive")
    if d < 0.0:
        raise ValueError("half-distance must be nonnegative")
    if d == 0.0:
        b = ball(r)
        b.meta.update({"kind": "two_ball_hull", "d": 0.0})
        return b
    sh, ch = math.sinh(r), math.cosh(r)
    cd = math.cosh(d)
    # unit normal of the lower tangent geodesic {x : <x,u> = 0};
    # both centers sit at signed distance r on its positive side
    w = math.sqrt(1.0 + (sh / cd) ** 2)
    u = np.array([-sh / cd, 0.0, w])
    centers = [fermi_point(-d, 0.0), fermi_point(d, 0.0)]
    feet = []
    for c in centers:
        f = (c.v - sh * u) / ch  # foot of the perpendicular from c
        feet.append(Point.from_array(f))
    seg = dist(feet[0], feet[1])
    if seg <= 0.0:
        raise DegenerateBodyError("tangent points coincide")
    sweep = _cap_sweep(centers[1], feet[1].v,
                       "tangent foot on the wrong side")
    cap = Arc(ch / sh, sweep * sh)
    # start at the lower-left foot heading along the tangent geodesic
    tv = feet[1].v + minkowski(feet[0].v, feet[1].v) * feet[0].v
    tv = tv / math.sqrt(minkowski(tv, tv))
    start = Frame.create(feet[0].v, tv)
    arcs = [Arc(0.0, seg), cap, Arc(0.0, seg), cap]
    return _make_body(start, arcs, convex=True,
                      meta={"kind": "two_ball_hull", "radius": r, "d": d,
                            "cap_sweep": sweep, "segment_length": seg})


def q_counterexample(lam: float, eps: float, d: float = 1.0) -> Body:
    """Sausage-like body whose sides undershoot the thickness bound.

    Sides are equidistant arcs at curvature 1/lam - eps, caps stay at
    curvature lam.  Closing the chain forces each cap to sweep more
    than half a turn, and the matched ball no longer rolls freely
    inside.  eps = 0 reproduces the sausage.
    """
    if lam <= 1.0:
        raise ValueError("thickness parameter must exceed 1")
    if not 0.0 <= eps < 1.0 / lam:
        raise ValueError("eps must lie in [0, 1/lam)")
    if d <= 0.0:
        raise ValueError("half-length must be positive")
    ks = 1.0 / lam - eps
    h = math.atanh(ks)          # side's height below its base geodesic
    rc = math.atanh(1.0 / lam)  # cap radius

    def cap_center(t0: float) -> Point:
        g = _axis_boost(t0)
        j = apply_isometry_frame(g, _fermi_frame(d, -h))
        return exp_map(j.point, rc * j.n)

    # pick the base height t0 so the right cap's center lands on the
    # symmetry axis; the residual is monotone in t0
    lo, hi = 0.0, 0.0
    if cap_center(0.0).v[2] > 0.0:
        lo = -0.1
        while cap_center(lo).v[2] > 0.0:
            lo *= 2.0
            if lo < -50.0:
                raise GeometryError("no closing height found")
    else:
        hi = 0.1
        while cap_center(hi).v[2] < 0.0:
            hi *= 2.0
            if hi > 50.0:
                raise GeometryError("no closing height found")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cap_center(mid).v[2] > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-16 * max(1.0, abs(lo)):
            break
    t0 = 0.5 * (lo + hi)

    g = _axis_boost(t0)
    j = apply_isometry_frame(g, _fermi_frame(d, -h))
    sweep = _cap_sweep(cap_center(t0), j.p,
                       "junction on the wrong side of the axis")

    side = Arc(ks, 2.0 * d * math.cosh(h)) if ks > 0.0 else Arc(0.0, 2.0 * d)
    cap = Arc(lam, sweep * math.sinh(rc))
    start = apply_isometry_frame(g, _fermi_frame(-d, -h))
    body = _make_body(start, [side, cap, side, cap], convex=True,
                      meta={"kind": "q_counterexample", "lambda": lam,
                            "eps": eps, "d": d, "cap_sweep": sweep,
                            "base_height": t0})
    if not body.boundary.is_simple():
        raise NonSimpleBoundaryError("counterexample parameters self-intersect")
    return body


# ---------------------------------------------------------------------------
# distance to the boundary

# For a point q and one arc with start frame (p, T, N), the Lorentz
# product -<q, curve(s)> expands to A + c1(s) B + c2(s) D with
# A = -<q,p>, B = -<q,T>, D = A + kappa * (-<q,N>), where c1, c2 are
# the transport coefficients.  Its stationary points solve
# c0(s) B + c1(s) D = 0, which each curvature regime inverts in closed
# form, so the nearest parameter needs no iteration.  The candidates
# per query are those interior roots, one row each, plus the two arc
# ends.  The ends are the same two parameters for every query, so their
# coefficients are evaluated once per arc: at s = 0, c1 = c2 = 0 and
# the row is A itself; at s = length it is A + c1L B + c2L D with
# scalar c1L, c2L.  Only the root rows need the clip, the validity mask
# and a kernel call over all queries; the end rows, always valid, are
# merged after them.


def _critical_params(kappa: float, length: float, B, D):
    """Interior stationary parameters, one row per candidate root and
    one column per query; invalid slots are < 0."""
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


def boundary_proximity(body: Body, pts: np.ndarray):
    """Distance from each point to the boundary, with nearest location.

    pts has shape (n, 3) in hyperboloid coordinates.  Returns
    (dist, arc_index, s_local) arrays.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    nq = pts.shape[0]
    Q = pts @ _ETA  # row i dotted with x gives <pts[i], x>
    best = np.full(nq, np.inf)
    best_arc = np.zeros(nq, dtype=int)
    best_s = np.zeros(nq)
    spline = body.boundary
    for i, a in enumerate(spline.arcs):
        f = spline.frames[i]
        A = -(Q @ f.p)
        B = -(Q @ f.t)
        D = A + a.kappa * (-(Q @ f.n))
        # one row per root, so every candidate is a contiguous vector
        # over the queries
        S = _critical_params(a.kappa, a.length, B, D)
        valid = (S >= -1e-12) & (S <= a.length + 1e-12)
        Sc = np.clip(S, 0.0, a.length)
        c1, c2 = _c12(a.kappa, Sc)
        gvals = A + c1 * B + c2 * D
        c1L, c2L = _c12(a.kappa, np.array([a.length]))
        ends = ((A, 0.0, True), (A + c1L * B + c2L * D, a.length, True))
        # strict <: of equal minima the first candidate, in arc order
        # and then roots, s = 0, s = length, wins
        for g, s, ok in itertools.chain(zip(gvals, Sc, valid), ends):
            better = ok & (g < best)
            np.copyto(best, g, where=better)
            np.copyto(best_arc, i, where=better)
            np.copyto(best_s, s, where=better)
    dists = np.arccosh(np.maximum(best, 1.0))
    return dists, best_arc, best_s


def dist_to_boundary(body: Body, q: Point) -> float:
    d, _, _ = boundary_proximity(body, q.v[None, :])
    return float(d[0])


def signed_boundary_distance(body: Body, pts: np.ndarray) -> np.ndarray:
    """Distance to the boundary, positive inside, negative outside.

    For convex bodies the sign comes from the supporting line at the
    nearest boundary point.  Otherwise each sign falls back to a ray
    parity test, which is slower.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d, arc_idx, s_loc = boundary_proximity(body, pts)
    if body.convex:
        normals = np.empty_like(pts)
        spline = body.boundary
        for i, a in enumerate(spline.arcs):
            sel = arc_idx == i
            if not np.any(sel):
                continue
            normals[sel] = _arc_normals(spline.frames[i], a.kappa,
                                        s_loc[sel])
        side = np.einsum("ij,ij->i", pts @ _ETA, normals)
        return np.where(side >= 0.0, d, -d)
    signs = np.empty(pts.shape[0])
    for i in range(pts.shape[0]):
        inside = contains_point(body, Point.from_array(pts[i],
                                                       validate=False))
        signs[i] = 1.0 if inside else -1.0
    return signs * d


# ---------------------------------------------------------------------------
# containment

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


def contains_point(body: Body, q: Point, tol: float = CONTAIN_TOL) -> bool:
    """Point-in-body test, boundary-inclusive within tol.

    Casts a ray in the disk view and counts boundary crossings.  If a
    ray grazes an arc or passes through a joint the direction is
    rotated; directions are fixed, so results are reproducible.
    """
    if dist_to_boundary(body, q) <= tol:
        return True
    z = to_disk(q)
    for ang in _RAY_ANGLES:
        parity = 0
        clean = True
        for darc in body.boundary.disk_arcs:
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


def contains_body(outer: Body, inner: Body, n: int = 256,
                  tol: float = CONTAIN_TOL) -> bool:
    """Sampled containment: every inner boundary sample lies in outer."""
    pts = inner.boundary.sample_points(n)
    if outer.convex:
        margins = signed_boundary_distance(outer, pts)
        return bool(np.min(margins) >= -tol)
    for i in range(pts.shape[0]):
        if not contains_point(outer, Point.from_array(pts[i], validate=False),
                              tol=tol):
            return False
    return True


# ---------------------------------------------------------------------------
# inradius

def _deepest_center(body: Body, tol: float):
    """Max-depth interior point in disk coordinates: (depth, (u, v))."""
    from scipy.optimize import minimize

    if not body.convex:
        raise ValueError("inradius expects a convex body")
    if not body.boundary.is_simple():
        raise NonSimpleBoundaryError("boundary is not simple")

    def negdepth(uv):
        z = complex(uv[0], uv[1])
        if abs(z) >= 0.999999999:
            return 1.0
        p = np.array([
            (1.0 + abs(z) ** 2), 2.0 * z.real, 2.0 * z.imag,
        ]) / (1.0 - abs(z) ** 2)
        m = signed_boundary_distance(body, p[None, :])
        return -float(m[0])

    za = to_disk(body.anchor)
    bz = [to_disk(Point.from_array(p, validate=False))
          for p in body.boundary.sample_points(64)]
    xs = [z.real for z in bz]
    ys = [z.imag for z in bz]
    best_uv, best_val = (za.real, za.imag), negdepth((za.real, za.imag))
    for gx in np.linspace(min(xs), max(xs), 7):
        for gy in np.linspace(min(ys), max(ys), 7):
            v = negdepth((gx, gy))
            if v < best_val:
                best_val, best_uv = v, (gx, gy)
    res = minimize(negdepth, np.array(best_uv), method="Nelder-Mead",
                   options={"xatol": tol * 1e-3, "fatol": tol * 1e-4,
                            "maxfev": 4000})
    return float(-res.fun), (float(res.x[0]), float(res.x[1]))


def _sausage_at_origin(body: Body) -> bool:
    """True for a sausage as `sausage` built and placed it.

    Its inradius is then the cap radius, attained along the whole core
    segment on the x1 axis.  An offset keeps the sausage's meta but not
    its inradius, and a moved sausage keeps its inradius but not its
    core, so both fail the test.
    """
    meta = body.meta
    if meta.get("kind") != "sausage" or "offset_rho" in meta:
        return False
    d, r = meta.get("d"), meta.get("cap_radius")
    if not all(isinstance(v, (int, float)) for v in (d, r)):
        return False  # meta read from a file that lacks them
    return bool(np.array_equal(body.boundary.start.m,
                               _fermi_frame(d, -r).m))


def inradius(body: Body, tol: float = 1e-6) -> float:
    """Radius of the largest inscribed ball.

    Exact for a sausage at the origin (`_sausage_at_origin`).  Otherwise
    maximizes the boundary distance over interior centers with a seed
    grid plus Nelder-Mead in disk coordinates.  Convex bodies only; the
    maximum may be attained along a segment, any point of it is fine.
    """
    return inscribed_ball(body, tol)[0]


def inscribed_ball(body: Body, tol: float = 1e-6):
    """Inradius together with a center attaining it."""
    if _sausage_at_origin(body):
        return float(body.meta["cap_radius"]), ORIGIN
    depth, uv = _deepest_center(body, tol)
    return depth, from_disk(complex(uv[0], uv[1]))


# ---------------------------------------------------------------------------
# parallel bodies

def _offset_arc(kappa: float, length: float, rho: float):
    """Offset one arc outward by rho (inward when rho < 0).

    Returns (kappa', length').  Raises DegenerateBodyError when a cap
    or a concave arc collapses.  A cap radius landing in the snap band
    just above zero is clamped, so erosion by exactly the inradius
    yields the degenerate core instead of failing.
    """
    if abs(kappa - 1.0) <= 1e-12:
        return 1.0, length * math.exp(rho)
    if abs(kappa + 1.0) <= 1e-12:
        return -1.0, length * math.exp(-rho)
    if abs(kappa) < 1.0:
        h = math.atanh(kappa)
        h2 = h + rho
        return math.tanh(h2), length * math.cosh(h2) / math.cosh(h)
    if kappa > 1.0:
        r = math.atanh(1.0 / kappa)
        r2 = r + rho
        if r2 < _CAP_SNAP_LO:
            raise DegenerateBodyError(
                f"cap of radius {r:.6g} collapses under offset {rho:.6g}")
        snapped = r2 < _CAP_SNAP_HI
        if snapped:
            r2 = _CAP_SNAP_HI
        return 1.0 / math.tanh(r2), length * math.sinh(r2) / math.sinh(r)
    # kappa < -1: concave circular arc, center on the outward side
    r = math.atanh(-1.0 / kappa)
    r2 = r - rho
    if r2 < _CAP_SNAP_LO:
        raise DegenerateBodyError(
            f"concave arc of radius {r:.6g} collapses under offset {rho:.6g}")
    if r2 < _CAP_SNAP_HI:
        r2 = _CAP_SNAP_HI
    return -1.0 / math.tanh(r2), length * math.sinh(r2) / math.sinh(r)


def offset(body: Body, rho: float, check_simple: bool = True) -> Body:
    """Parallel body at signed distance rho (outward positive).

    Each arc maps to the constant-curvature arc at distance |rho| on
    the appropriate side; the start frame slides along its normal.  The
    offset chain of a closed C1 chain closes again, which is verified.
    """
    if rho == 0.0:
        return body
    spline = body.boundary
    new_arcs = []
    snapped = False
    for a in spline.arcs:
        k2, l2 = _offset_arc(a.kappa, a.length, rho)
        if a.kappa > 1.0 and math.atanh(1.0 / a.kappa) + rho < _CAP_SNAP_HI:
            snapped = True
        new_arcs.append(Arc(k2, l2))
    f = spline.start
    ch, sh = math.cosh(rho), math.sinh(rho)
    # slide the start frame along its normal; the tangent is parallel
    # along that perpendicular geodesic, the normal stays in the plane
    start = Frame(np.column_stack([f.p * ch - f.n * sh, f.t,
                                   f.n * ch - f.p * sh]))
    new_body = _make_body(start, new_arcs,
                          convex=min(a.kappa for a in new_arcs) >= -1e-12,
                          closure_tol=1e-8,
                          meta={**body.meta, "offset_from": body.meta.get(
                              "kind", "body"), "offset_rho": rho,
                              "degenerate_caps": snapped})
    if check_simple and not snapped and not new_body.boundary.is_simple():
        raise NonSimpleBoundaryError(
            f"offset by {rho:.6g} pinches the boundary")
    return new_body


# ---------------------------------------------------------------------------
# rolling

@dataclass(frozen=True)
class RollReport:
    """Outcome of the free-rolling test for the matched ball."""

    ok: bool
    lam: float
    rho: float
    worst_margin: float
    witness_point: Point
    witness_center: Point
    witness_boundary_index: int
    witness_theta_index: int
    n_boundary: int
    n_ball: int

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "lambda": self.lam,
            "rho": self.rho,
            "worst_margin": self.worst_margin,
            "witness_point": list(self.witness_point.v),
            "witness_center": list(self.witness_center.v),
            "witness_boundary_index": self.witness_boundary_index,
            "witness_theta_index": self.witness_theta_index,
            "n_boundary": self.n_boundary,
            "n_ball": self.n_ball,
        }


def rolls_freely(body: Body, lam: float, n: int = 720,
                 ball_samples: int = 360, tol: float = ROLL_TOL) -> RollReport:
    """Test whether the curvature-lam ball rolls freely inside body.

    Places the ball tangent from inside at n boundary points and checks
    every ball boundary sample stays in the body.  The report's margin
    is the most negative signed distance seen; tangency contributes
    zero, so a pass means margin >= -tol.
    """
    if lam <= 1.0:
        raise ValueError("thickness parameter must exceed 1")
    if not body.convex:
        n = min(n, 144)
        ball_samples = min(ball_samples, 72)
    rho = math.atanh(1.0 / lam)
    P, T, N = body.boundary.sample_frames(n)[:3]
    n_eff = P.shape[0]
    ch, sh = math.cosh(rho), math.sinh(rho)
    C = P * ch + N * sh  # ball centers, tangent from inside
    # orthonormal tangent basis at each center
    u1 = T + np.einsum("ij,ij->i", T @ _ETA, C)[:, None] * C
    u1 = u1 / np.sqrt(np.einsum("ij,ij->i", u1 @ _ETA, u1))[:, None]
    u2 = np.cross(C, u1) @ _ETA
    thetas = 2.0 * math.pi * np.arange(ball_samples) / ball_samples
    ct, st = np.cos(thetas), np.sin(thetas)
    X = (C[:, None, :] * ch
         + sh * (u1[:, None, :] * ct[None, :, None]
                 + u2[:, None, :] * st[None, :, None]))
    flat = X.reshape(-1, 3)
    margins = signed_boundary_distance(body, flat)
    worst = int(np.argmin(margins))
    wm = float(margins[worst])
    bi, ti = divmod(worst, ball_samples)
    return RollReport(
        ok=wm >= -tol, lam=lam, rho=rho, worst_margin=wm,
        witness_point=Point.from_array(flat[worst], validate=False),
        witness_center=Point.from_array(C[bi], validate=False),
        witness_boundary_index=int(bi), witness_theta_index=int(ti),
        n_boundary=n_eff, n_ball=ball_samples)
