"""Convex bodies bounded by constant-curvature arc chains.

Constructors for the standard bodies (balls, two-ball hulls, thick
sausages, the near-sausage counterexample), exact distance queries
against arc boundaries, point and body containment, parallel bodies by
arc-wise offset, inradius, and the free-rolling test for the ball whose
boundary curvature matches the thickness bound.  The ball rolls when
the body's inner reach, the smaller of the focal distance and half the
shortest inner double normal, is at least its radius; both are read in
closed form, with no sampling, and the margin is 2 (reach - radius).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geom import (
    _ETA,
    HOROCYCLE_BAND,
    ORIGIN,
    Frame,
    Point,
    apply_isometry_frame,
    curve_height,
    exp_map,
    fermi_point,
    lam_ball_radius,
    lorentz_cross,
    minkowski,
    project_to_sheet,
)
from .spline import (
    Arc,
    ArcSpline,
    GeometryError,
    NonSimpleBoundaryError,
    ThicknessCertificate,
    _arc_pairs,
    _closure_gaps,
    _frame_columns,
    _kernel,
    _on_arcs,
    _simple_chains,
    _support_vectors,
    _walk,
    arc_transports,
)
from .steiner import BodyMeasure

CONTAIN_TOL = 1e-9
# rolling margins are 2 (reach - rho), both from closed forms on the
# chain walked from the origin frame.  Bodies that roll read 0 exactly
# or more: criterion 05's 1000 bodies (four read 0, where restoration
# left a curvature on the bound lam), sausages (2, 1), (5, 3), (4, 3),
# (1.5, 2) and (2, 4), and the rolling bodies of the `placed` and `cli`
# streams, seeds 0-9 (sausages 0, random bodies 1.3e-8 and more);
# ball(arccoth 2) reads -2.2e-16, as coth(atanh 0.5) rounds one ulp
# above 2.  The tolerance is the method's resolution, set by
# _PARALLEL_TOL below, and lies far below any real violation (the
# near-sausage counterexample reads -0.089).
ROLL_TOL = 1e-11
# two arcs whose w agree to this fraction of their size are read as
# parallel and take their distance in closed form.  Roundoff leaves the
# sides of every sausage that closes within 1.4e-12 of parallel (2e-15
# for sausage(2, 1)); read as parallel, a pair that is not moves its
# length by about 0.8 of its angle (q bodies of eps 1e-12 to 1e-10), so
# the margin by less than ROLL_TOL.
_PARALLEL_TOL = 1e-11

# erosion that lands a cap radius inside this band is snapped to the
# band's top instead of failing, so eroding by exactly the inradius
# degenerates cleanly to the core set
_CAP_SNAP_LO = -1e-12
_CAP_SNAP_HI = 1e-9


class DegenerateBodyError(GeometryError):
    """Requested body collapses or turns inside out."""


class ConvexFlagError(ValueError):
    """A body file's "convex" flag disagrees with its arcs."""


def _arcs_convex(kappas) -> bool:
    """Convexity as every constructor reads it: no arc bends outward
    beyond roundoff, kappa >= -1e-12 throughout."""
    return bool(kappas.min() >= -1e-12)


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

    thick_for records the thickness parameter the body was built to
    satisfy, if any.  meta carries construction details.
    """

    boundary: ArcSpline
    thick_for: float | None = None
    meta: dict = field(default_factory=dict)

    @cached_property
    def convex(self) -> bool:
        """Whether no boundary arc bends outward (`_arcs_convex`), read
        from the arcs alone."""
        return _arcs_convex(self.boundary.kappas)

    @cached_property
    def measure(self) -> BodyMeasure:
        return BodyMeasure(
            area=self.boundary.area_gauss_bonnet(),
            perimeter=self.boundary.perimeter())

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
        """The body of a parsed body file.

        Convexity is read from the arcs, never taken on trust: a
        "convex" flag that disagrees with them raises ConvexFlagError,
        since verify and the boundary distance pick their checks by it.
        """
        spline = ArcSpline.from_json_dict(obj["boundary"])
        flag = obj.get("convex")
        if flag is not None and flag != _arcs_convex(spline.kappas):
            raise ConvexFlagError(
                f'"convex": {flag!r} disagrees with the arcs, '
                f"whose least curvature is {spline.kappas.min():.6g}")
        tf = obj.get("thick_for")
        return Body(boundary=spline,
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


def _make_body(start: Frame, arcs, thick_for=None, meta=None) -> Body:
    spline = ArcSpline(start, tuple(arcs))
    return Body(boundary=spline, thick_for=thick_for, meta=meta or {})


# ---------------------------------------------------------------------------
# constructors


def ball(r: float) -> Body:
    """Metric ball of radius r centered at the origin."""
    if not r > 0.0 or not math.isfinite(r):
        raise ValueError("ball radius must be positive and finite")
    start = _fermi_frame(0.0, -r)
    k = 1.0 / math.tanh(r)
    return _make_body(
        start, [Arc(k, 2.0 * math.pi * math.sinh(r))],
        meta={"kind": "ball", "radius": r})


def sausage(lam: float, d: float) -> Body:
    """Thick sausage: all points within arccoth(lam) of a segment.

    The segment has half-length d and lies on the x1-axis.  Boundary is
    two caps at curvature lam and two equidistant sides at curvature
    1/lam, so the body is exactly thick for lam.  d = 0 gives the ball
    whose boundary curvature is lam.
    """
    r = lam_ball_radius(lam)  # cap radius, coth(r) = lam
    if d < 0.0:
        raise ValueError("half-length must be nonnegative")
    cap = Arc(lam, math.pi * math.sinh(r))
    arcs = [cap]
    if d > 0.0:
        side = Arc(1.0 / lam, 2.0 * d * math.cosh(r))
        arcs = [cap, side, cap, side]
    else:
        arcs = [cap, cap]
    start = _fermi_frame(d, -r)
    return _make_body(start, arcs, thick_for=lam,
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
    # feet of the perpendiculars from the centers
    feet = [(c.v - sh * u) / ch for c in centers]
    # centers and feet span a Saccheri quadrilateral with legs r and
    # summit 2d, whose base is 2 asinh(sinh d / cosh r): exact for every
    # d, where the distance between two nearly equal feet is not
    seg = 2.0 * math.asinh(math.sinh(d) / ch)
    if seg <= 0.0:
        raise DegenerateBodyError("tangent points coincide")
    sweep = _cap_sweep(centers[1], feet[1], "tangent foot on the wrong side")
    cap = Arc(ch / sh, sweep * sh)
    # start at the lower-left foot heading along the tangent geodesic
    # toward increasing s: its unit tangent there is normal to both the
    # foot and u, and its x1 component is never zero
    tv = lorentz_cross(u, feet[0])
    tv = math.copysign(1.0 / math.sqrt(minkowski(tv, tv)), tv[1]) * tv
    start = Frame.create(feet[0], tv)
    arcs = [Arc(0.0, seg), cap, Arc(0.0, seg), cap]
    return _make_body(start, arcs,
                      meta={"kind": "two_ball_hull", "radius": r, "d": d,
                            "cap_sweep": sweep, "segment_length": seg})


def q_counterexample(lam: float, eps: float, d: float = 1.0) -> Body:
    """Sausage-like body whose sides undershoot the thickness bound.

    Sides are equidistant arcs at curvature 1/lam - eps, caps stay at
    curvature lam.  Closing the chain forces each cap to sweep more
    than half a turn, and the matched ball no longer rolls freely
    inside.  eps = 0 reproduces the sausage.
    """
    rc = lam_ball_radius(lam)  # cap radius
    if not 0.0 <= eps < 1.0 / lam:
        raise ValueError("eps must lie in [0, 1/lam)")
    if d <= 0.0:
        raise ValueError("half-length must be positive")
    ks = 1.0 / lam - eps
    h = curve_height(ks)  # side's height below its base geodesic

    # base height t0 in closed form: `_axis_boost(t0)` moves the right
    # cap's center c0, seen from the unboosted junction frame, onto the
    # symmetry axis x2 = 0 where sinh(t0) c0[0] + cosh(t0) c0[2] = 0;
    # |c0[2]| < c0[0] holds for every point of the hyperboloid
    junction = _fermi_frame(d, -h)
    c0 = exp_map(junction.point, rc * junction.n).v
    t0 = -math.atanh(c0[2] / c0[0])

    g = _axis_boost(t0)
    j = apply_isometry_frame(g, junction)
    sweep = _cap_sweep(exp_map(j.point, rc * j.n), j.p,
                       "junction on the wrong side of the axis")

    side = Arc(ks, 2.0 * d * math.cosh(h)) if ks > 0.0 else Arc(0.0, 2.0 * d)
    cap = Arc(lam, sweep * math.sinh(rc))
    start = apply_isometry_frame(g, _fermi_frame(-d, -h))
    body = _make_body(start, [side, cap, side, cap],
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
# the coefficients of `spline._kernel`.  Its stationary points solve
# c0(s) B + c1(s) D = 0, with c0 = c1' (c1 = c2'), which each
# curvature regime inverts in closed form, so the nearest parameter
# needs no iteration.  All arcs are solved in one stacked pass: the
# arcs of each root regime share one `_critical_params` call, every
# root of every arc lands in one (arcs, R + 2, queries) array, R the
# most roots any arc has, with the arc's two ends as its last two rows,
# and one argmin over the flattened (arc, roots..., s = 0, s = length)
# axis picks each query's nearest point.  The end rows hold the same
# two parameters for every query, so their coefficients come from one
# kernel call per chain: at s = 0, c1 = c2 = 0 and the row is A itself;
# at s = length it is A + c1L B + c2L D.  Padded root slots, roots off
# the arc and NaN values read +inf, so the first of equal minima, in
# arc order, then roots, then s = 0, then s = length, wins.

# queries per block of `_proximity`: each block's stacked temporaries hold
# about ten (arcs x (R + 2)) values per query, a few MB for a 12-arc
# chain, however many queries a call brings
_PROXIMITY_BLOCK = 4096


def _critical_params(kappa, length, B, D):
    """Interior stationary parameters of arcs that share one root
    regime (horocycle band, hypercircle or geodesic, circle).

    kappa and length are (m,) arrays, B and D of shape (m, q); the
    result has shape (m, R, q), one row per candidate root, R the most
    roots of any of the arcs.  Invalid slots, padding included, are < 0.
    """
    kappa, length = kappa[:, None], length[:, None]
    alpha = 1.0 - kappa * kappa
    # the products are formed in place: an operand of shape (m, 1)
    # keeps numpy from reusing a temporary as a scalar would
    with np.errstate(divide="ignore", invalid="ignore"):
        if abs(alpha.flat[0]) < 1e-11:
            s = -B
            s /= D
        elif alpha.flat[0] > 0.0:
            mu = np.sqrt(alpha)
            s = -B * mu
            s /= D
            np.arctanh(s, out=s)
            s /= mu
        else:
            s = None
    if s is not None:
        return np.where(np.isfinite(s), s, -1.0)[..., None, :]
    w = np.sqrt(-alpha)
    base = -B * w
    base = np.arctan2(base, D, out=base)
    base /= w
    period = np.pi / w
    k0 = 0.0 - base
    k0 /= period
    np.ceil(k0, out=k0)
    # at most length/period + 1 roots can land inside an arc
    count = np.floor(length / period) + 2
    rows = np.arange(int(count.max()))[:, None]
    s = k0[..., None, :] + rows
    s *= period[..., None]
    s += base[..., None, :]
    if count.min() < len(rows):
        s[np.broadcast_to(rows >= count[..., None], s.shape)] = -1.0
    return s


def boundary_proximity(body: Body, pts: np.ndarray):
    """Distance from each point to the boundary, with nearest location.

    pts has shape (n, 3) in hyperboloid coordinates.  Returns
    (dist, arc_index, s_local) arrays.
    """
    sp = body.boundary
    return _proximity(sp.kappas, sp.lengths, sp.placed_frames, pts)


def _proximity(k, L, frames, pts):
    """`boundary_proximity` against the arcs of curvatures k and lengths
    L starting at frames, (n + 1, 3, 3) or (n, 3, 3).

    One stacked pass over all arcs per block of `_PROXIMITY_BLOCK`
    queries, equal bit for bit to a loop over the arcs; see the
    comment above `_PROXIMITY_BLOCK`.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    nq = pts.shape[0]
    Q = pts @ _ETA  # row i dotted with x gives <pts[i], x>
    # the arcs of each root regime of `_critical_params`
    alpha = 1.0 - k * k
    band = np.abs(alpha) < 1e-11
    regimes = [ix for ix in (np.flatnonzero(g) for g in (
        band, ~band & (alpha > 0.0), ~band & (alpha < 0.0))) if ix.size]
    c1L, c2L = _kernel(k, L)
    # the start frames' columns p, t, n, as (3, arcs, 3)
    cols = frames[:len(k)].transpose(2, 0, 1)
    best, s = np.empty(nq), np.empty(nq)
    arc = np.empty(nq, dtype=int)
    for lo in range(0, nq, _PROXIMITY_BLOCK):
        at = slice(lo, lo + _PROXIMITY_BLOCK)
        best[at], arc[at], s[at] = _nearest(k, L, regimes, c1L, c2L, cols,
                                            Q[at])
    np.maximum(best, 1.0, out=best)
    return np.arccosh(best, out=best), arc, s


def _nearest(k, L, regimes, c1L, c2L, cols, Q):
    """`_proximity` of one block of queries, the rows q of Q = pts @ eta,
    with g = -<q, x> at the nearest point x in place of the distance."""
    n, nq = len(k), Q.shape[0]
    # <q, p>, <q, t>, <q, n> of every arc's start frame: one
    # matrix-vector product per frame column, stacked, so each rounds as
    # Q @ f.p does; a product with whole frame matrices rounds otherwise
    QP, QT, QN = np.matmul(Q, cols[..., None])[..., 0]
    A, B = -QP, -QT
    D = A + k[:, None] * -QN
    roots = [_critical_params(k[ix], L[ix], B[ix], D[ix]) for ix in regimes]
    R = max(s.shape[1] for s in roots)
    if len(roots) == 1:
        S = roots[0]
    else:
        S = np.full((n, R, nq), -1.0)
        for ix, s in zip(regimes, roots):
            S[ix, :s.shape[1]] = s
    # only the roots on their arcs take the kernel; on indexes them in
    # S, aq their (arc, query) in A, B and D, at their place in the
    # candidates (arc, roots..., s = 0, s = length)
    on = np.flatnonzero((S >= -1e-12) & (S <= L[:, None, None] + 1e-12))
    row = on // nq  # arc * R + root
    arc = row // R
    aq = on - (row - arc) * nq
    at = on + 2 * nq * arc
    s = np.clip(S.take(on), 0.0, L[arc])
    c1, c2 = _kernel(k[arc], s)
    # the candidates' values, +inf where an arc has no such root
    G = np.full((n, R + 2, nq), np.inf)
    G.put(at, A.take(aq) + c1 * B.take(aq) + c2 * D.take(aq))
    G[:, R] = A
    G[:, R + 1] = A + c1L[:, None] * B + c2L[:, None] * D
    G = G.reshape(n * (R + 2), nq)
    first = np.argmin(G, axis=0)
    at = first * nq + np.arange(nq)
    best = G.take(at)
    nan = np.isnan(best)
    if nan.any():
        # argmin takes a NaN first; a NaN value never wins, so read it
        # as +inf in those columns
        sub = G[:, nan]
        np.copyto(sub, np.inf, where=np.isnan(sub))
        first[nan] = np.argmin(sub, axis=0)
        at[nan] = first[nan] * nq + np.flatnonzero(nan)
        best[nan] = sub.min(axis=0)
    arc, row = np.divmod(first, R + 2)
    # the winner's parameter: a root's, clipped to its arc, or an end
    s = np.clip(S.take(at - 2 * nq * arc, mode="clip"), 0.0, L[arc])
    s[row == R] = 0.0
    s[row > R] = L[arc[row > R]]
    # no candidate at all: arc 0 at s = 0, as a loop that keeps only
    # strictly smaller values leaves it
    s[best == np.inf] = 0.0
    return best, arc, s


def dist_to_boundary(body: Body, q: Point) -> float:
    d, _, _ = boundary_proximity(body, q.v[None, :])
    return float(d[0])


def signed_boundary_distance(body: Body, pts: np.ndarray) -> np.ndarray:
    """Distance to the boundary, positive inside, negative outside.

    The sign is that of <q, N(x)>, with x the nearest boundary point of
    q and N the inward unit normal there.  On a simple C^1 chain, q - x
    is normal to the chain at x and the open geodesic segment from x to
    q meets no boundary, so that sign tells the side for convex and
    non-convex bodies alike.  On a chain that crosses itself the side
    has no meaning: a non-convex body with a non-simple boundary raises
    NonSimpleBoundaryError.  Convex bodies skip that check.
    """
    if not body.convex and not body.boundary.is_simple():
        raise NonSimpleBoundaryError("boundary self-intersects; "
                                     "inside and outside are undefined")
    sp = body.boundary
    return _signed_distance(sp.kappas, sp.lengths, sp.placed_frames, pts)


def _signed_distance(k, L, frames, pts):
    """`signed_boundary_distance` on the arcs of curvatures k and
    lengths L from frames, as `_proximity` takes them."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d, arc, s = _proximity(k, L, frames, pts)
    # <q, N> with the inward normal N at each nearest point, all in one
    # pass: N's coordinates in its arc's start frame (`_frame_columns`),
    # whose <q, p>, <q, t>, <q, n> are read in one product
    k = k[arc]
    N = _frame_columns(k, *_kernel(k, s))[2]
    p, t, n = np.einsum("ij,ijk->ki", pts @ _ETA, frames[arc])
    side = N[:, 0] * p + N[:, 1] * t + N[:, 2] * n
    return np.where(side >= 0.0, d, -d)


def contains_point(body: Body, q: Point, tol: float = CONTAIN_TOL) -> bool:
    """Point-in-body test, boundary-inclusive within tol.

    True when the signed boundary distance of q is at least -tol, so
    within tol of the boundary counts as inside and beyond it the
    nearest-point normal sign decides; see `signed_boundary_distance`
    for why that holds and why the boundary must be simple.
    """
    return bool(signed_boundary_distance(body, q.v[None])[0] >= -tol)


def contains_body(outer: Body, inner: Body, n: int = 256,
                  tol: float = CONTAIN_TOL) -> bool:
    """Sampled containment: every inner boundary sample lies in outer.

    At least n samples of the inner boundary must each have signed
    distance at least -tol from the outer boundary, by the sign rule of
    `signed_boundary_distance`; the outer boundary must be simple.
    """
    margins = signed_boundary_distance(outer, inner.boundary.sample_points(n))
    return bool(np.min(margins) >= -tol)


# ---------------------------------------------------------------------------
# inradius

# A candidate center fits when its boundary distance is at least its
# radius less this much (relative above radius 1).  On criterion 05's
# 1000 bodies, 200 more at lambda = 1.5 and 3, and their offsets by
# 0.2, the winning center's distance falls at most 1.5e-12 below its
# closed-form radius, and the closest configuration of larger radius
# that does not fit falls 1.5e-8 below.
INRADIUS_TOL = 1e-9

# On a convex chain the tangent geodesic {x : <x, n_j> = 0} at each
# joint supports the body, so a ball B(c, r) inside it has
# <c, n_j> >= sinh r at every joint.  A candidate missing that at some
# joint by more than this fraction of cosh r cannot pass the exact fit
# test, which accepts depths down to r - INRADIUS_TOL max(1, r) and so
# moves sinh r by at most INRADIUS_TOL max(1, r) cosh r, far below
# 1e-6 cosh r for every radius under 1000.  The roundoff of <c, n_j>,
# a sum of three products each at most |c_0| max |n_j| in size (c is
# on the upper sheet), is added to the slack where it is applied, as
# 16 ulps of that bound, so chains far from their start stay safe too.
_SUPPORT_SLACK = 1e-6

# A ball inside the body has circumference 2 pi sinh r at most the
# perimeter P: nearest-point projection onto the ball, a convex set of
# H^2, is 1-Lipschitz and maps the boundary, which winds once around
# the ball, onto its circle.  So no candidate deeper than
# asinh(P / 2 pi) can win, and `_deepest_center` drops those before
# projecting them to the hyperboloid: a nearly degenerate pair system
# can return one of radius 18 with |c| of 2e7 to 3e7, whose <c, c>
# rounds to 0.  A ball attains the bound, and roundoff in P and in the
# closed-form radii puts its own center up to 3.4e-16 of the bound
# above it: without the slack, sausage(lam, 0) would lose its cap
# center at 269 of 2000 lam in [1.05, 8] and at lam =
# 2.1923076923076925, 2.7 and 2.8269230769230766.  So the bound is
# taken this fraction wider, seven orders above that roundoff.
_PERIMETER_SLACK = 1e-9

# (c, sinh r, cosh r) -> <c, c> + cosh^2 r - sinh^2 r, zero on every
# center at every radius
_TOUCH_FORM = np.array([-1.0, 1.0, 1.0, -1.0, 1.0])


def _touch_candidates(kap, mats):
    """Centers and radii of every ball touching the boundary arcs in a
    configuration a deepest point can take: (centers (m, 3), radii (m,)).
    kap holds the arcs' curvatures and mats[:-1] their start frames, as
    in `ArcSpline.origin_frames`.

    Arc i with start frame (p, t, n) and curvature k has the constant
    vector w = k p + n of `_support_vectors`.  A point at inward
    distance r from the arc's supporting curve satisfies
    <c, w> = psi(r) = sinh r - k cosh r.  The candidates are, in order:
    the center w / sqrt(k^2 - 1) of each circle arc (k > 1, radius
    arccoth k); for each pair i < j the points equidistant from both
    curves with <c, w_i x w_j> = 0 (Lorentz cross); for each triple the
    points equidistant from all three.  A pair or triple is three
    linear equations in u = (c, sinh r, cosh r).  Their kernel is a
    plane, on which <c, c> = -1 and cosh^2 r - sinh^2 r = 1 leave at
    most two lines, the roots of the quadratic form `_TOUCH_FORM`.
    Systems of rank below three, roots with r <= 0 and roots off the
    upper sheet are dropped.
    """
    W = _support_vectors(kap, mats[:-1])

    circ = kap > 1.0
    centers = W[circ] / np.sqrt(kap[circ] ** 2 - 1.0)[:, None]
    radii = np.array([curve_height(k) for k in kap[circ]])

    n = len(kap)
    if n < 2:  # no pair or triple
        return centers, radii
    # every pair i < j and triple i < j < k, in lexicographic order
    pairs = _arc_pairs(n)
    i, j, ijk = pairs.i, pairs.j, pairs.triples
    # <c, w> - sinh r + k cosh r = 0, each row scaled to unit length
    rows = np.column_stack([W @ _ETA, -np.ones(n), kap])
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    # <c, w_i x w_j> with the Lorentz cross is det(c, w_i, w_j), so its
    # row is the Euclidean cross; of unit vectors, so that parallel w
    # (one circle, or equidistants of one geodesic) leave it ~1e-16
    U = W / np.linalg.norm(W, axis=1, keepdims=True)
    # the systems, three rows each: every pair, then every triple
    pairs = len(i)
    M = np.zeros((pairs + len(ijk), 3, 5))
    M[:pairs, 0], M[:pairs, 1] = rows[i], rows[j]
    # the Euclidean cross is the Lorentz one with component 0 negated
    # back, exactly
    M[:pairs, 2, :3] = lorentz_cross(U[i], U[j])
    M[:pairs, 2, 0] *= -1.0
    M[pairs:] = rows[ijk]
    # the last two columns of a complete QR of M^T span its kernel; the
    # diagonal of R gives the volume the three rows span
    Q, R = np.linalg.qr(np.swapaxes(M, 1, 2), mode="complete")
    vol = np.abs(R[:, 0, 0] * R[:, 1, 1] * R[:, 2, 2])
    K = Q[vol > 1e-12][:, :, 3:]
    # the form at u = cos(th) K0 + sin(th) K1 is h + d cos(2 th - phi)
    P = np.einsum("mia,i,mib->mab", K, _TOUCH_FORM, K)
    h = 0.5 * (P[:, 0, 0] + P[:, 1, 1])
    e = 0.5 * (P[:, 0, 0] - P[:, 1, 1])
    d = np.hypot(e, P[:, 0, 1])
    phi = np.arctan2(P[:, 0, 1], e)
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = np.arccos(-h / d)  # nan: no real root
    # both roots of every system, the first root's rows first
    th = 0.5 * np.stack([phi + spread, phi - spread])
    u = (np.cos(th)[..., None] * K[:, :, 0]
         + np.sin(th)[..., None] * K[:, :, 1])
    u *= np.where(u[..., 4] < 0.0, -1.0, 1.0)[..., None]  # cosh r > 0
    # r > 0, and cosh r > sinh r so that c is timelike
    u = u[np.isfinite(th) & (u[..., 3] > 0.0) & (u[..., 4] > u[..., 3])]
    sh, ch = u[:, 3], u[:, 4]
    r = np.arctanh(sh / ch)
    c = u[:, :3] / np.sqrt((ch - sh) * (ch + sh))[:, None]
    up = c[:, 0] > 0.0
    return np.concatenate([centers, c[up]]), np.concatenate([radii, r[up]])


def _supported(C, R, normals):
    """Whether each candidate ball B(C[i], R[i]) of a convex chain lies,
    to `_SUPPORT_SLACK`, inside the tangent geodesic at every joint,
    whose inward normals are the rows of normals."""
    h = C @ (_ETA @ normals.T)  # <c, n_j>
    eps = np.finfo(float).eps
    slack = (_SUPPORT_SLACK * np.cosh(R)
             + 16.0 * eps * np.abs(C[:, 0]) * np.abs(normals).max())
    return np.min(h, axis=1) >= np.sinh(R) - slack


def _deepest_center(body: Body):
    """Largest inscribed ball of a simple body: (radius, center).

    The exact fit test is one `_signed_distance` pass over the touching
    configurations of `_touch_candidates` whose radius the perimeter
    allows (`_PERIMETER_SLACK`).  On a convex body the candidates that
    the supporting geodesics at the joints rule out (`_supported`) skip
    that pass: none of them could fit, so the winner is the same, and a
    random 12-arc body keeps about a fifth of its 300 or so candidates.
    """
    spline = body.boundary
    if not spline.is_simple():
        raise NonSimpleBoundaryError("boundary is not simple")
    F = spline.origin_frames
    C, R = _touch_candidates(spline.kappas, F)
    top = math.asinh(spline.perimeter() / (2.0 * math.pi))
    keep = R <= top * (1.0 + _PERIMETER_SLACK)
    C, R = project_to_sheet(C[keep]), R[keep]
    live = np.arange(len(R))
    if body.convex:
        live = live[_supported(C, R, F[:-1, :, 2])]
    depth = _signed_distance(spline.kappas, spline.lengths, F, C[live])
    fits = np.zeros(len(R), dtype=bool)
    fits[live] = depth >= R[live] - INRADIUS_TOL * np.maximum(1.0, R[live])
    if not np.any(fits):
        raise GeometryError("no touching configuration fits inside the body")
    best = np.max(np.where(fits, R, -np.inf))
    # of radii the fit test cannot tell apart the first wins, so a
    # circle arc's closed-form center beats a pair or triple that finds
    # the same ball (on the long walk of a moved sausage(2, 4) a pair
    # reads its cap radius 2.2e-11 too deep)
    k = int(np.argmax(fits & (R >= best - INRADIUS_TOL * max(1.0, best))))
    return float(R[k]), Point.from_array(spline.start.m @ C[k],
                                         validate=False)


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


def inradius(body: Body) -> float:
    """Radius of the largest inscribed ball of a body.

    Exact for bodies with a simple boundary, convex or not, to
    roundoff; `inscribed_ball` says how, and where long chains fall
    short.
    """
    return inscribed_ball(body)[0]


def inscribed_ball(body: Body):
    """Largest inscribed ball of a body: (radius, center).

    Exact for every body with a simple boundary, to roundoff; a
    boundary that crosses itself raises NonSimpleBoundaryError, since
    it has no inside.  A sausage at the origin
    (`_sausage_at_origin`) gets its cap radius and the origin.  Any
    other body gets the deepest of the closed-form touching
    configurations of `_touch_candidates` that fits inside, checked with
    one signed boundary distance pass (`_deepest_center`); of radii
    equal to roundoff the first in that order wins.  On a convex body
    that pass skips the candidates that cross a tangent geodesic at a
    joint, which supports the body: such a ball cannot fit, so the
    answer is the one of the full search, bit for bit.  GeometryError
    if none fits.  The search reads the chain walked from the origin frame
    (`ArcSpline.origin_frames`), so the radius does not depend on
    placement.  On long chains the walk's roundoff can exceed the fit
    test's INRADIUS_TOL: the cap centers of sausage(2.1923076923076925,
    3.7) sit 2.4e-9 and 2.6e-9 shallower than their radius, so the
    general search reads 0.17297 for its cap radius 0.49243.

    Completeness: let c be a deepest point, at depth r.  Unless 0 lies
    in the convex hull of the unit directions from c to the boundary
    points at distance r, moving c against them deepens it.  The chain
    is C1, so c lies on the boundary normal at each such touching
    point, joints included, and so at distance r from the supporting
    curve of the arc through it.  A ball touches a constant-curvature
    curve from inside at one point only, unless the curve is the ball's
    own circle.  So either c is the center of a circle arc of radius r
    (case 1), or two touches are antipodal, where c is critical for r
    on the two curves' equidistant set and c, w_i, w_j are dependent,
    <c, w_i x w_j> = 0 (case 2), or three touches hold 0 in their hull
    (case 3).  A pair system loses rank only when w_i and w_j are
    parallel: the curves are concentric circles or horocycles or
    equidistants of one geodesic, like a sausage's sides.  Then the
    deepest points along them form a segment, and each end of it has a
    third touch, on another arc or on the next arc at a joint, whose
    triple system has full rank.  Nothing here uses convexity: a
    concave arc is one more supporting curve, and the eroded bodies of
    non-convex two-ball hulls get their exact inradius too.
    """
    if _sausage_at_origin(body):
        return float(body.meta["cap_radius"]), ORIGIN
    return _deepest_center(body)


# ---------------------------------------------------------------------------
# parallel bodies

def _offset_arc(kappa: float, length: float, rho: float):
    """Offset one arc outward by rho (inward when rho < 0).

    Returns (kappa', length', snapped).  The offset lies at signed
    height h + rho, h = `curve_height(kappa)`, so a convex cap and a
    concave arc share one rule, of radius s (h + rho) with s the sign
    of kappa, and both horocycles scale by exp(s rho).  A radius below
    the snap band raises DegenerateBodyError; one inside it is clamped
    to the band's top (snapped), so erosion by exactly the inradius
    yields the degenerate core instead of failing.
    """
    s = math.copysign(1.0, kappa)
    if abs(abs(kappa) - 1.0) <= HOROCYCLE_BAND:
        return s, length * math.exp(s * rho), False
    h = curve_height(kappa)
    h2 = h + rho
    if abs(kappa) < 1.0:
        return math.tanh(h2), length * math.cosh(h2) / math.cosh(h), False
    r, r2 = s * h, s * h2
    if r2 < _CAP_SNAP_LO:
        what = "cap" if s > 0.0 else "concave arc"
        raise DegenerateBodyError(
            f"{what} of radius {r:.6g} collapses under offset {rho:.6g}")
    snapped = r2 < _CAP_SNAP_HI
    r2 = max(r2, _CAP_SNAP_HI)
    return s / math.tanh(r2), length * math.sinh(r2) / math.sinh(r), snapped


def offsets(body: Body, rhos, check_simple: bool = True) -> list:
    """Parallel bodies at each signed distance of rhos, built together.

    Entry i is `offset(body, rhos[i], check_simple)` or the exception
    that call would raise, bit for bit: the arcs come from the same
    scalar `_offset_arc`, and every check stays per distance (the
    closure of each chain within 1e-8, then, unless a convex cap
    snapped or check_simple is false, its simplicity).  What is shared is the
    work on the chains: one `arc_transports` call and one `_walk` over
    the (m, n) stack of offset arcs, one `_closure_gaps` call on the
    end frames, and one `_simple_chains` call, whose chains with
    kappa >= 0 share one Klein rotation index.  Each body's spline is
    seeded with its slice of the walk through `ArcSpline._from_walk`.
    """
    spline = body.boundary
    f = spline.start
    meta = body.meta
    out = [body] * len(rhos)  # rho = 0 leaves the body as it is
    todo = []  # (entry, rho, arcs, snapped)
    K, L = [], []  # the offset kappas and lengths of each entry of todo
    slide = []  # (cosh rho, sinh rho) of each entry of todo
    for i, rho in enumerate(rhos):
        if rho == 0.0:
            continue
        try:
            new_arcs, snapped = [], False
            for a in spline.arcs:
                k2, l2, snap = _offset_arc(a.kappa, a.length, rho)
                new_arcs.append(Arc(k2, l2))
                snapped |= snap and k2 > 0.0
            slide.append((math.cosh(rho), math.sinh(rho)))
        except (ValueError, ArithmeticError) as e:
            out[i] = e
            continue
        todo.append((i, rho, tuple(new_arcs), snapped))
        K.append([a.kappa for a in new_arcs])
        L.append([a.length for a in new_arcs])
    if not todo:
        return out
    # slide the start frame along its normal, by every rho at once; the
    # tangent is parallel along that perpendicular geodesic, the normal
    # stays in the plane
    ch, sh = np.array(slide).T[:, :, None]
    starts = np.empty((len(todo), 3, 3))
    starts[:, :, 0] = f.p * ch - f.n * sh
    starts[:, :, 1] = f.t
    starts[:, :, 2] = f.n * ch - f.p * sh
    K, L = np.array(K), np.array(L)
    mats, _ = arc_transports(K, L)
    # a walk that overflows reads a NaN gap, which the closure check
    # refuses; a chain that does not close is not judged
    with np.errstate(over="ignore", invalid="ignore"):
        walk = _walk(mats)
        gaps = _closure_gaps(walk[-1])
    judged = [j for j, (*_, snapped) in enumerate(todo)
              if check_simple and not snapped and gaps[j] <= 1e-8]
    simple = dict(zip(judged, _simple_chains(
        K[judged], L[judged], walk[:, judged]))) if judged else {}
    for j, (i, rho, arcs, snapped) in enumerate(todo):
        try:
            boundary = ArcSpline._from_walk(
                arcs, K[j], L[j], mats[j], walk[:, j], start=Frame(starts[j]),
                closure_tol=1e-8, residual=float(gaps[j]),
                simple=simple.get(j))
        except GeometryError as e:
            out[i] = e
            continue
        if j in simple and not simple[j]:
            out[i] = NonSimpleBoundaryError(
                f"offset by {rho:.6g} pinches the boundary")
            continue
        # offsets compose: an offset of an offset records the total
        # distance, the first body's kind and any cap snapped on the way
        out[i] = Body(
            boundary=boundary,
            meta={**meta,
                  "offset_from": meta.get("offset_from",
                                          meta.get("kind", "body")),
                  "offset_rho": meta.get("offset_rho", 0.0) + rho,
                  "degenerate_caps": bool(meta.get("degenerate_caps"))
                  or snapped})
    return out


def offset(body: Body, rho: float, check_simple: bool = True) -> Body:
    """Parallel body at signed distance rho (outward positive).

    Each arc maps to the constant-curvature arc at distance |rho| on
    the appropriate side; the start frame slides along its normal.  The
    offset chain of a closed C1 chain closes again, which is verified
    (within 1e-8), and unless a cap snapped or check_simple is false it
    must be simple, or NonSimpleBoundaryError is raised.  This is
    `offsets(body, [rho], check_simple)[0]`, whose exception is raised.
    """
    got = offsets(body, [rho], check_simple)[0]
    if isinstance(got, Exception):
        raise got
    return got


# ---------------------------------------------------------------------------
# rolling

@dataclass(frozen=True)
class RollReport:
    """Outcome of the free-rolling test for the matched ball.

    reach is the body's inner reach, worst_margin 2 (reach - rho): zero
    when the ball of radius rho just rolls, positive when it has room.
    binding_arcs names what sets the reach: (i, i) for the focal
    distance of circle arc i, (i, j) for the shortest inner double
    normal, with its foot on arc i the ball's point of tangency.
    witness_center is the center of that tangent ball.  witness_point
    is the point of the ball farthest beyond the boundary's tangent
    geodesic at the binding second point; it lies outside a convex body
    whenever the margin is negative.
    """

    ok: bool
    lam: float
    rho: float
    worst_margin: float
    reach: float
    binding_arcs: tuple
    witness_point: Point
    witness_center: Point

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "lambda": self.lam,
            "rho": self.rho,
            "worst_margin": self.worst_margin,
            "reach": self.reach,
            "binding_arcs": list(self.binding_arcs),
            "witness_point": list(self.witness_point.v),
            "witness_center": list(self.witness_center.v),
        }


def _double_normals(k, L, F, W):
    """Every inner double normal of a closed chain, in closed form.

    k, L are the arcs' curvatures and lengths, F the (n + 1) frames of
    `ArcSpline.origin_frames`, W the arcs' `_support_vectors`.  Returns
    (length, first, second, x, y): a double normal leaves arc `first`
    at x along its inner normal and meets arc `second` at y, whose
    inner normal points back along it.

    A normal geodesic of the curve <x, w> = -kappa lies in a plane
    through w.  Write the geodesic through o with unit tangent e as
    g(tau) = (u nu + nubar / u) / 2, nu = o + e, nubar = o - e,
    u = exp(tau).  Where w lies in its plane, <w, w> = 1 - kappa^2
    makes <g, w> = -kappa a quadratic in u of discriminant 1, so the
    curve meets it at u+ = (1 - kappa) / <nu, w>, where the inner
    normal is +g', and at u- = (-1 - kappa) / <nu, w>, where it is
    -g'; a root counts when u > 0.  Two arcs face each other along
    g when the u+ foot of one comes before the u- foot of the other,
    and the double normal has length log(u- / u+).

    Arcs i and j on non-parallel w share one normal geodesic, in
    span(w_i, w_j), the plane orthogonal to their Lorentz cross m; it
    meets the hyperboloid when <m, m> > 0, and o is its point nearest
    the origin.  For parallel w (within `_PARALLEL_TOL`: equidistants
    of one geodesic, concentric circles or horocycles) every normal of
    one curve is normal to the other at one constant distance, the sum
    of the curves' signed distances from their common geodesic or
    center.  The planes are then those through the four arc ends, with
    o the end and e its inner normal: where the two arcs' stretches of
    normals overlap, one of the ends bounds the overlap.  A foot counts
    when `_on_arcs` finds its parameter on the arc.

    Adjacent arcs are left out.  They are tangent at their joint, so
    their only common normal is the joint's, where o is the joint, e
    its normal, and both curves meet it at u+ = 1, the joint itself;
    the Vieta partner of that root, u- = (kappa + 1) / (kappa - 1),
    makes the only double normal of the pair 2 arccoth kappa long,
    never shorter than twice the focal distance arccoth(max kappa).
    So no length cut-off is needed.
    """
    pairs = _arc_pairs(len(k))
    i, j = pairs.far_i, pairs.far_j
    if not i.size:  # n <= 3: every pair of arcs shares a joint
        none = np.empty(0, dtype=np.intp)
        return np.empty(0), none, none, np.empty((0, 3)), np.empty((0, 3))
    m = lorentz_cross(W[i], W[j])
    w_size = np.linalg.norm(W, axis=1)
    parallel = (np.linalg.norm(m, axis=1)
                <= _PARALLEL_TOL * w_size[i] * w_size[j])

    # one plane per non-parallel pair, through the origin's foot o
    mm = minkowski(m, m)
    cut = ~parallel & (mm > 0.0)
    mh = m[cut] / np.sqrt(mm[cut])[:, None]
    o = mh * mh[:, :1]
    o[:, 0] += 1.0
    o /= np.sqrt(1.0 + mh[:, 0] ** 2)[:, None]
    e = lorentz_cross(mh, o)
    a, b = i[cut], j[cut]
    n_cut = a.size
    if np.count_nonzero(parallel):
        # four planes per parallel pair, through each arc end
        pa, pb = i[parallel], j[parallel]
        ends = np.concatenate([pa, pa + 1, pb, pb + 1])
        a = np.concatenate([a, pa, pa, pa, pa])
        b = np.concatenate([b, pb, pb, pb, pb])
        o = np.concatenate([o, F[ends, :, 0]])
        e = np.concatenate([e, F[ends, :, 2]])

    # both ways round: first at its u+ foot, second at its u- foot,
    # each plane's <nu, w> of both arcs read once for both
    first, second = np.concatenate([a, b]), np.concatenate([b, a])
    nu, nubar = o + e, o - e
    ga, gb = minkowski(nu, W[a]), minkowski(nu, W[b])
    with np.errstate(divide="ignore", invalid="ignore"):
        u1 = (1.0 - k[first]) / np.concatenate([ga, gb])
        u2 = (-1.0 - k[second]) / np.concatenate([gb, ga])
        length = np.log(u2 / u1)
    # a parallel pair's constant distance in closed form, unless a
    # horocycle takes part: the curves' signed heights (`curve_height`)
    # over their common geodesic or center add up
    if a.size > n_cut:
        h = np.array([curve_height(v) for v in k])
        closed = np.arange(a.size) >= n_cut
        closed = (np.concatenate([closed, closed])
                  & np.isfinite(h[first] + h[second]))
        length[closed] = (h[first] + h[second])[closed]
    ok = (u1 > 0.0) & (u2 > 0.0) & (length > 0.0)
    first, second, length = first[ok], second[ok], length[ok]
    nu = np.concatenate([nu, nu])[ok]
    nubar = np.concatenate([nubar, nubar])[ok]
    u1, u2 = u1[ok, None], u2[ok, None]
    x = 0.5 * (u1 * nu + nubar / u1)
    y = 0.5 * (u2 * nu + nubar / u2)
    # both feet in one call
    both = np.concatenate([first, second])
    on = _on_arcs(k[both], L[both], F[both], np.concatenate([x, y]))
    on = on[:len(first)] & on[len(first):]
    return length[on], first[on], second[on], x[on], y[on]


def rolls_freely(body: Body, lam: float) -> RollReport:
    """Test whether the curvature-lam ball rolls freely inside body.

    The ball has radius rho = arccoth(lam).  It rolls freely, tangent
    from inside at every boundary point and inside the body, exactly
    when the body's inner reach is at least rho, and the inner reach
    of a C1 chain of arcs is the smaller of the focal distance
    arccoth(max kappa) and half its shortest inner double normal
    (Federer, "Curvature measures", 1959; Aamari et al., "Estimating
    the reach of a manifold", 2019).  Both are closed forms: the focal
    distance of the most curved circle arc, and the double normals of
    `_double_normals`, one batch over all pairs of arcs.  The margin is
    2 (reach - rho), and a pass means margin >= -`ROLL_TOL`.  Where
    rho / 2 <= reach <= rho it equals the least of dist(c, boundary) -
    rho over the tangent balls' centers c; below rho / 2 the centers
    leave the body and the two part, and above rho the margin tells how
    much room the ball has.  It runs on `ArcSpline.origin_frames`; only
    the witness leaves by the start frame, so the report does not
    depend on placement.
    """
    rho = lam_ball_radius(lam)
    spline = body.boundary
    F = spline.origin_frames
    k, L = spline.kappas, spline.lengths
    W = _support_vectors(k, F[:-1])
    top = int(np.argmax(k))
    reach = curve_height(k[top]) if k[top] > 1.0 else math.inf
    length, first, second, x, y = _double_normals(k, L, F, W)
    if length.size and length.min() / 2.0 < reach:
        b = int(np.argmin(length))
        reach = float(length[b]) / 2.0
        pair = (int(first[b]), int(second[b]))
        x, y = x[b], y[b]
        nx, ny = W[pair[0]] - k[pair[0]] * x, W[pair[1]] - k[pair[1]] * y
    else:
        # the most curved arc, of radius r = reach: if rho > r, the ball
        # tangent at x crosses the arc's tangent at y, an angle
        # `apart` further round its center, the deeper the larger that
        # angle, and by 2 (rho - r) at half a turn; x and y sit
        # symmetrically on the arc
        pair = (top, top)
        sh = math.sinh(reach)
        turn = L[top] / sh
        apart = min(turn, math.pi)
        s = np.array([turn - apart, turn + apart]) * (sh / 2.0)
        pts, _, nrm = _frame_columns(k[top], *_kernel(k[top], s)) @ F[top].T
        x, y, nx, ny = pts[0], pts[1], nrm[0], nrm[1]
    c = x * math.cosh(rho) + nx * math.sinh(rho)
    # the point of the ball farthest beyond the tangent geodesic
    # <z, ny> = 0 at y: from c along the perpendicular to it, rho away;
    # the tangent supports a convex body, so a ball crossing it pokes out
    t = minkowski(c, ny)
    v = (ny + t * c) / math.sqrt(1.0 + t * t)
    wm = 2.0 * (reach - rho)
    g = spline.start.m
    return RollReport(
        ok=wm >= -ROLL_TOL, lam=lam, rho=rho, worst_margin=wm, reach=reach,
        binding_arcs=pair,
        witness_point=Point.from_array(
            g @ (c * math.cosh(rho) - v * math.sinh(rho)), validate=False),
        witness_center=Point.from_array(g @ c, validate=False))
