"""Closed chains of constant-curvature arcs in the hyperbolic plane.

A spline is a start frame plus a sequence of (kappa, length) arcs, each
traversed with the Frenet system

    p' = T,   T' = p + kappa N,   N' = -kappa T,

whose solution for constant kappa is the matrix exponential of

    M(kappa) = [[0, 1, 0], [1, 0, -kappa], [0, kappa, 0]]

acting on the frame columns (p, T, N).  With alpha = 1 - kappa^2 the
exponential is I + c1(s) M + c2(s) M^2.

One kernel, `transport_coeffs`, evaluates (c0 = c1', c1, c2) for
arrays of kappa and s at once.  Each element falls in one of three
regimes: trig functions of s*sqrt(-alpha) for circles, hyperbolic
functions of s*sqrt(alpha) for hypercircles and geodesics, and a Taylor
series in x = alpha s^2 wherever |x| is small, which always covers the
horocycle band.  The regimes join smoothly.  With one kappa and many s
(sampling, distance queries) every element shares a regime, so each
transcendental runs once per element and only the few small-|x|
entries are patched with the series.

`arc_matrices` builds the stacked (n, 3, 3) transports of a whole chain
from one kernel call, and their kappa-derivatives from the same
coefficients.  Everything else here reads from those two: single-arc
transport, frames along a chain, sampled points and frames, closure.

Orientation convention: the body sits on the side of the normal, so a
counterclockwise boundary has kappa >= 0 and the normal points inward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geom import (
    Frame,
    ORIGIN_FRAME,
    Point,
    dist,
    lorentz_cross,
    minkowski,
    parallel_transport,
    project_to_sheet,
    to_disk,
)

CLOSURE_TOL = 1e-9


class GeometryError(ValueError):
    """A geometric operation received an input outside its domain."""


class NonSimpleBoundaryError(GeometryError):
    """The boundary curve intersects itself."""


def frenet_matrix(kappa) -> np.ndarray:
    """M(kappa); an array of curvatures gives stacked (..., 3, 3) matrices."""
    k = np.asarray(kappa, dtype=float)
    m = np.zeros(k.shape + (3, 3))
    m[..., 0, 1] = 1.0
    m[..., 1, 0] = 1.0
    m[..., 1, 2] = -k
    m[..., 2, 1] = k
    return m


# dM/dkappa
_M1 = np.array([
    [0.0, 0.0, 0.0],
    [0.0, 0.0, -1.0],
    [0.0, 1.0, 0.0],
])
_I3 = np.eye(3)

# |alpha s^2| below which the coefficients use their Taylor series; the
# alpha-derivatives cancel harder in closed form and switch earlier
_SERIES_X = 1e-8
_SERIES_DX = 1e-6


def _kernel(kappa, s):
    """(alpha, x, c0, c1, c2) elementwise over broadcast kappa and s.

    Built for one entry per arc, where regimes mix: both function
    families are evaluated and the right one picked per element.
    """
    kappa = np.asarray(kappa, dtype=float)
    s = np.asarray(s, dtype=float)
    alpha = 1.0 - kappa * kappa
    x = alpha * s * s
    small = np.abs(x) < _SERIES_X
    n_small = np.count_nonzero(small)
    if n_small == small.size:
        return (alpha, x) + _series_coeffs(x, s)
    # the discarded family may overflow, and w = 0 only where x = 0
    hyp = alpha > 0.0
    w = np.sqrt(np.abs(alpha))
    z = w * s
    with np.errstate(all="ignore"):
        c0 = np.where(hyp, np.cosh(z), np.cos(z))
        c1 = np.where(hyp, np.sinh(z), np.sin(z)) / w
        h = np.where(hyp, np.sinh(z / 2.0), np.sin(z / 2.0))
        c2 = 2.0 * (h * h) / np.abs(alpha)
    if n_small:
        if s.shape != x.shape:
            s = np.broadcast_to(s, x.shape)
        c0[small], c1[small], c2[small] = _series_coeffs(x[small], s[small])
    return alpha, x, c0, c1, c2


def _coeffs_one(kappa, s, with_c0=True):
    """(c0, c1, c2) for one curvature and many arclengths.

    With with_c0 false only (c1, c2) are computed: points and normals
    need no c0, and distance queries, the largest callers, skip a full
    array of cosh or cos.  Every element shares one regime, so each
    transcendental runs once per element.  x = alpha s^2 has the sign
    of alpha, so |x| needs no pass of its own, and s = 0 is exact in
    closed form, so only nonzero small-|x| entries take the series.
    s can be large (distance queries), so x is dropped early and each
    coefficient is one expression, whose temporaries numpy reuses.
    """
    alpha = 1.0 - kappa * kappa
    x = alpha * s * s
    if alpha == 0.0:
        return _series_coeffs(x, s, with_c0)
    small = (x < _SERIES_X if alpha > 0.0 else x > -_SERIES_X) & (x != 0.0)
    n_small = np.count_nonzero(small)
    if n_small == small.size:
        return _series_coeffs(x, s, with_c0)
    if n_small:
        # one pass to locate the few entries
        at = np.unravel_index(np.flatnonzero(small), small.shape)
        patch = _series_coeffs(x[at], s[at], with_c0)
    del x, small
    w = math.sqrt(abs(alpha))
    odd, even = (np.sinh, np.cosh) if alpha > 0.0 else (np.sin, np.cos)
    c2 = 2.0 * np.square(odd(w * s / 2.0)) / abs(alpha)
    z = w * s
    out = (even(z), odd(z) / w, c2) if with_c0 else (odd(z) / w, c2)
    if n_small:
        for c, p in zip(out, patch):
            c[at] = p
    return out


def _series_coeffs(x, s, with_c0=True):
    c1 = s * (1.0 + x / 6.0 + x * x / 120.0)
    c2 = s * s * (0.5 + x / 24.0 + x * x / 720.0)
    if not with_c0:
        return c1, c2
    return 1.0 + x / 2.0 + x * x / 24.0, c1, c2


def _c12(kappa, s):
    """(c1, c2) of `transport_coeffs` for one curvature, without c0."""
    return _coeffs_one(kappa, np.asarray(s, dtype=float), with_c0=False)


def transport_coeffs(kappa, s):
    """Coefficients (c0, c1, c2) with exp(s M(kappa)) = I + c1 M + c2 M^2.

    c0 = c1' is returned as well.  kappa and s broadcast against each
    other: one curvature with many arclengths, or one curvature per
    arclength.
    """
    if np.isscalar(kappa):
        return _coeffs_one(kappa, np.asarray(s, dtype=float))
    return _kernel(kappa, s)[2:]


def arc_matrices(kappas, lengths, dkappa: bool = False):
    """Stacked transports exp(l_i M(k_i)), shape (n, 3, 3).

    With dkappa=True returns (A, dA) where dA holds the closed-form
    kappa-derivatives, built from the same coefficients: with
    alpha = 1 - kappa^2, d/dkappa = -2 kappa d/dalpha, and
    dc1/dalpha = (s c0 - c1) / (2 alpha), dc2/dalpha = (s c1 / 2 - c2) / alpha
    away from alpha s^2 = 0, their Taylor series near it.
    """
    k = np.asarray(kappas, dtype=float)
    s = np.asarray(lengths, dtype=float)
    alpha, x, c0, c1, c2 = _kernel(k, s)
    m = frenet_matrix(k)
    m2 = m @ m
    a = _I3 + c1[:, None, None] * m + c2[:, None, None] * m2
    if not dkappa:
        return a
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (s * c0 - c1) / (2.0 * alpha)
        d2 = (s * c1 / 2.0 - c2) / alpha
    small = np.abs(x) < _SERIES_DX
    if np.count_nonzero(small):
        ss, xs = s[small], x[small]
        d1[small] = ss ** 3 * (1.0 / 6.0 + xs / 60.0 + xs * xs / 1680.0)
        d2[small] = ss ** 4 * (1.0 / 24.0 + xs / 360.0 + xs * xs / 13440.0)
    dc1 = -2.0 * k * d1
    dc2 = -2.0 * k * d2
    da = (dc1[:, None, None] * m + dc2[:, None, None] * m2
          + c1[:, None, None] * _M1
          + c2[:, None, None] * (_M1 @ m + m @ _M1))
    return a, da


def arc_matrix(kappa: float, length: float) -> np.ndarray:
    """exp(length * M(kappa)): the frame transport along one arc."""
    return arc_matrices([kappa], [length])[0]


def transport(f: Frame, kappa: float, length: float) -> Frame:
    """Transport a frame along a constant-curvature arc of given length.

    No per-step renormalization: the raw Lorentz product drifts less
    than projecting back to the constraint set does, because measuring
    the Minkowski defect far from the origin cancels large coordinates
    and the radial correction then scales the error back up by |p|.
    """
    if length < 0.0:
        raise ValueError("arc length must be >= 0")
    return Frame(f.m @ arc_matrix(kappa, length))


def arc_points(f: Frame, kappa: float, s):
    """Curve points at arclengths s along the arc starting at frame f."""
    c1, c2 = _c12(kappa, s)
    coeff = np.stack([1.0 + c2, c1, kappa * c2], axis=-1)
    return coeff @ f.m.T


def _normal_coeffs(kappa: float, c1, c2):
    # normal column of I + c1 M + c2 M^2, in start-frame coordinates
    return np.stack([-kappa * c2, -kappa * c1, 1.0 - kappa * kappa * c2],
                    axis=-1)


def arc_frames_batch(f: Frame, kappa: float, s):
    """Points, tangents and normals at arclengths s (vectorized)."""
    c1, c2 = _c12(kappa, s)
    k = kappa
    one = np.ones_like(c1)
    p_co = np.stack([1.0 + c2, c1, k * c2], axis=-1)
    t_co = np.stack([c1, one + c2 * (1.0 - k * k), k * c1], axis=-1)
    mt = f.m.T
    return p_co @ mt, t_co @ mt, _normal_coeffs(k, c1, c2) @ mt


def _arc_normals(f: Frame, kappa: float, s):
    """The normals of `arc_frames_batch` alone."""
    c1, c2 = _c12(kappa, s)
    return _normal_coeffs(kappa, c1, c2) @ f.m.T


@dataclass(frozen=True)
class Arc:
    """One constant-curvature piece: signed kappa, positive length."""

    kappa: float
    length: float

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and math.isfinite(self.length)):
            raise ValueError("arc parameters must be finite")
        if self.length <= 0.0:
            raise ValueError("arc length must be positive")


def _walk(start: Frame, arcs) -> tuple:
    """Frames at each arc start along the chain, then the end frame."""
    mats = arc_matrices([a.kappa for a in arcs], [a.length for a in arcs])
    out = [start]
    m = start.m
    for a in mats:
        m = m @ a
        out.append(Frame(m))
    return tuple(out)


def _closure_gap(start: Frame, end: Frame) -> float:
    pgap = end.p - start.p
    d_pos = math.sqrt(max(minkowski(pgap, pgap), 0.0))  # 2 sinh(dist/2)
    t_moved = parallel_transport(end.t, end.point, start.point)
    tgap = t_moved - start.t
    d_ang = math.sqrt(max(minkowski(tgap, tgap), 0.0))
    return max(d_pos, d_ang)


def chain_closure_residual(start: Frame, arcs) -> float:
    """Max of end-to-start position distance and tangent mismatch.

    Zero (to roundoff) for a closed tangent-continuous chain; a chain
    that misses closure reports the geometric size of the gap.  The
    tangent term is the chord norm of the transported difference, which
    matches the angle for small gaps without the acos precision cliff.
    """
    return _closure_gap(start, _walk(start, arcs)[-1])


@dataclass(frozen=True)
class ThicknessCertificate:
    """Outcome of the curvature box check 1/lam <= kappa <= lam."""

    ok: bool
    lam: float
    min_kappa: float
    max_kappa: float
    violations: tuple = ()
    tol: float = 1e-12


@dataclass(frozen=True)
class ArcSpline:
    """A closed, tangent-continuous chain of constant-curvature arcs."""

    start: Frame = ORIGIN_FRAME
    arcs: tuple = ()
    closure_tol: float = field(default=CLOSURE_TOL, compare=False)

    def __post_init__(self):
        if len(self.arcs) == 0:
            raise ValueError("spline needs at least one arc")
        object.__setattr__(self, "arcs", tuple(self.arcs))
        if math.isfinite(self.closure_tol):
            res = self.closure_residual()
            if res > self.closure_tol:
                raise GeometryError(
                    f"chain does not close: residual {res:.3e} exceeds "
                    f"{self.closure_tol:.1e}")

    @staticmethod
    def open_chain(start: Frame, arcs) -> "ArcSpline":
        """Construct without the closure check, for diagnostics only."""
        return ArcSpline(start, tuple(arcs), closure_tol=math.inf)

    @cached_property
    def frames(self) -> tuple:
        """Frames at each arc start; the last entry is the chain end."""
        return _walk(self.start, self.arcs)

    def closure_residual(self) -> float:
        return _closure_gap(self.start, self.frames[-1])

    def perimeter(self) -> float:
        return float(sum(a.length for a in self.arcs))

    def total_turning(self) -> float:
        return float(sum(a.kappa * a.length for a in self.arcs))

    def area_gauss_bonnet(self) -> float:
        """Enclosed area from Gauss-Bonnet: sum kappa*length - 2 pi."""
        return self.total_turning() - 2.0 * math.pi

    def check_thickness(self, lam: float, tol: float = 1e-12) -> ThicknessCertificate:
        if lam <= 1.0:
            raise ValueError("thickness parameter must exceed 1")
        lo = 1.0 / lam
        kappas = [a.kappa for a in self.arcs]
        bad = []
        for i, k in enumerate(kappas):
            if k < lo - tol:
                bad.append((i, k, "lower"))
            elif k > lam + tol:
                bad.append((i, k, "upper"))
        return ThicknessCertificate(
            ok=not bad, lam=lam, min_kappa=min(kappas),
            max_kappa=max(kappas), violations=tuple(bad), tol=tol)

    def split(self, index: int, at: float) -> "ArcSpline":
        """Split arc `index` at interior arclength `at`; same curve."""
        a = self.arcs[index]
        if not 0.0 < at < a.length:
            raise ValueError("split point must be interior to the arc")
        new = (self.arcs[:index]
               + (Arc(a.kappa, at), Arc(a.kappa, a.length - at))
               + self.arcs[index + 1:])
        return ArcSpline(self.start, new, closure_tol=self.closure_tol)

    def sample_frames(self, n: int):
        """At least n boundary samples in curve order.

        Returns (points, tangents, normals, arc_index, s_local), all
        arrays; sample j sits on arc arc_index[j] at arclength
        s_local[j] from that arc's start.  Arc endpoints are covered by
        the next arc's first sample, so the set wraps cleanly.
        """
        if n < 1:
            raise ValueError("need at least one sample")
        total = self.perimeter()
        pts, tans, nors, idxs, locs = [], [], [], [], []
        for i, a in enumerate(self.arcs):
            ni = max(1, math.ceil(n * a.length / total))
            s = np.arange(ni) * (a.length / ni)
            p, t, nn = arc_frames_batch(self.frames[i], a.kappa, s)
            pts.append(p)
            tans.append(t)
            nors.append(nn)
            idxs.append(np.full(ni, i))
            locs.append(s)
        return (np.concatenate(pts), np.concatenate(tans),
                np.concatenate(nors), np.concatenate(idxs),
                np.concatenate(locs))

    def sample_points(self, n: int) -> np.ndarray:
        return self.sample_frames(n)[0]

    @cached_property
    def disk_arcs(self) -> tuple:
        return tuple(_disk_arc(self.frames[i], a) for i, a in enumerate(self.arcs))

    def is_simple(self) -> bool:
        if any(_winds_past_full_turn(a) for a in self.arcs):
            return False
        return _chain_is_simple(self.disk_arcs)

    def to_json_dict(self) -> dict:
        return {
            "start": {
                "p": list(self.start.p),
                "t": list(self.start.t),
                "n": list(self.start.n),
            },
            "arcs": [{"kappa": a.kappa, "length": a.length} for a in self.arcs],
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "ArcSpline":
        if "arcs" not in obj or not obj["arcs"]:
            raise ValueError("spline JSON needs a non-empty 'arcs' list")
        if "start" in obj and obj["start"] is not None:
            st = obj["start"]
            start = Frame.create(
                np.asarray(st["p"], dtype=float),
                np.asarray(st["t"], dtype=float))
        else:
            start = ORIGIN_FRAME
        arcs = tuple(Arc(float(a["kappa"]), float(a["length"]))
                     for a in obj["arcs"])
        return ArcSpline(start, arcs)


def area_polygonal(s: ArcSpline, n_samples: int) -> float:
    """Independent area oracle: geodesic fan over boundary samples.

    Samples the boundary at >= n_samples points, anchors a fan at the
    normalized Euclidean mean of the samples, and sums signed
    angle-defect areas of the geodesic triangles.  Signed triangles make
    the fan valid for non-convex simple boundaries as well.  Converges
    at second order in the sample spacing.
    """
    if n_samples < 3:
        raise ValueError("polygonal area needs at least a 3-sample fan")
    if not s.is_simple():
        raise NonSimpleBoundaryError("boundary self-intersects")
    pts = s.sample_points(n_samples)
    anchor = project_to_sheet(pts.mean(axis=0))
    nxt = np.roll(pts, -1, axis=0)
    return float(np.sum(_signed_triangle_areas(anchor, pts, nxt)))


def _log_dir(at, to):
    """Unnormalized tangential direction of `to` seen from point(s) `at`."""
    ip = minkowski(at, to)
    return to + ip[..., None] * at if np.ndim(ip) else to + ip * at


def _signed_triangle_areas(anchor, b, c):
    """Signed angle-defect areas of triangles (anchor, b_i, c_i)."""
    a = np.broadcast_to(anchor, b.shape)

    def angle(v, w, base):
        nv = np.sqrt(np.maximum(minkowski(v, v), 0.0))
        nw = np.sqrt(np.maximum(minkowski(w, w), 0.0))
        co = minkowski(v, w)
        si = minkowski(w, lorentz_cross(base, v))
        return np.arctan2(si, co), nv * nw

    ab = _log_dir(a, b)
    ac = _log_dir(a, c)
    ba = _log_dir(b, a)
    bc = _log_dir(b, c)
    ca = _log_dir(c, a)
    cb = _log_dir(c, b)
    alpha, scale_a = angle(ab, ac, a)
    beta, scale_b = angle(bc, ba, b)
    gamma, scale_c = angle(ca, cb, c)
    defect = math.pi - np.abs(alpha) - np.abs(beta) - np.abs(gamma)
    out = np.sign(alpha) * defect
    # degenerate slivers: zero-length sides carry no area
    degenerate = (scale_a < 1e-28) | (scale_b < 1e-28) | (scale_c < 1e-28)
    out[degenerate] = 0.0
    return out


# ── disk-view arc geometry ────────────────────────────────────────────────
# Every constant-curvature arc maps to a Euclidean circular arc or a
# straight chord in the Poincare disk, so planar predicates (rendering,
# ray casts, self-intersection) are exact there.

@dataclass(frozen=True)
class DiskArc:
    """Euclidean image of one arc in the disk view."""

    z0: complex
    z1: complex
    center: complex | None  # None for a straight chord
    radius: float = 0.0
    a0: float = 0.0          # angle of z0 seen from center
    sweep: float = 0.0       # signed; z1 sits at a0 + sweep

    @property
    def is_segment(self) -> bool:
        return self.center is None


def _disk_arc(f: Frame, a: Arc) -> DiskArc:
    # circumcircle through interior thirds: distinct even when the arc
    # is a full loop whose endpoint returns to the start
    z0 = to_disk(f.point)
    za, zb, z1 = (to_disk(Point.from_array(p, validate=False))
                  for p in arc_points(f, a.kappa,
                                      np.array([1.0, 2.0, 3.0]) / 3.0
                                      * a.length))
    return arc_through_points(z0, za, zb, z1)


def arc_through_points(z0: complex, za: complex, zb: complex,
                       z1: complex) -> DiskArc:
    """Euclidean arc from z0 to z1 through the interior points za, zb.

    Conformal views send constant-curvature arcs to Euclidean circles
    or segments, so the circumcircle through exact samples is the exact
    image; za and zb must sit at the interior thirds so a full loop
    (z1 back at z0) still determines the circle and orientation.
    """
    d = 2.0 * (z0.real * (za.imag - zb.imag)
               + za.real * (zb.imag - z0.imag)
               + zb.real * (z0.imag - za.imag))
    spread = max(abs(z0 - za), abs(za - zb), abs(z0 - zb))
    if abs(d) <= 1e-14 * spread * spread or spread == 0.0:
        return DiskArc(z0=z0, z1=z1, center=None)
    s0, sa, sb = abs(z0) ** 2, abs(za) ** 2, abs(zb) ** 2
    ux = (s0 * (za.imag - zb.imag) + sa * (zb.imag - z0.imag)
          + sb * (z0.imag - za.imag)) / d
    uy = (s0 * (zb.real - za.real) + sa * (z0.real - zb.real)
          + sb * (za.real - z0.real)) / d
    c = complex(ux, uy)
    r = abs(z0 - c)
    if r > 1e8:
        return DiskArc(z0=z0, z1=z1, center=None)
    a0 = math.atan2((z0 - c).imag, (z0 - c).real)
    a1 = math.atan2((z1 - c).imag, (z1 - c).real)
    if abs(z1 - z0) < 1e-12 * max(1.0, r):
        # full loop; orientation from the one-third point
        aq = math.atan2((za - c).imag, (za - c).real)
        sweep = 2.0 * math.pi if (aq - a0) % (2.0 * math.pi) <= math.pi \
            else -2.0 * math.pi
    else:
        fwd = (a1 - a0) % (2.0 * math.pi)
        am = math.atan2((za - c).imag, (za - c).real)
        mid = (am - a0) % (2.0 * math.pi)
        sweep = fwd if mid <= fwd else fwd - 2.0 * math.pi
    return DiskArc(z0=z0, z1=z1, center=c, radius=r, a0=a0, sweep=sweep)


def _on_span(arc: DiskArc, angle: float, pad: float = 1e-12) -> bool:
    u = ((angle - arc.a0) * math.copysign(1.0, arc.sweep)) % (2.0 * math.pi)
    if u > math.pi * 2.0 - pad:
        u = 0.0
    return u <= abs(arc.sweep) + pad


def _arc_point_angle(arc: DiskArc, z: complex) -> float:
    return math.atan2((z - arc.center).imag, (z - arc.center).real)


def _circle_circle(c1, r1, c2, r2):
    d = abs(c2 - c1)
    if d < 1e-15:
        return []
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a
    if h2 < -1e-20:
        return []
    h = math.sqrt(max(h2, 0.0))
    u = (c2 - c1) / d
    base = c1 + a * u
    v = complex(-u.imag, u.real)
    if h < 1e-15:
        return [base]
    return [base + h * v, base - h * v]


def _segment_params(p, q, z, tol=1e-12):
    """Parameter of z along segment p->q if it lies on it, else None."""
    d = q - p
    L = abs(d)
    if L < 1e-15:
        return None
    t = ((z - p).real * d.real + (z - p).imag * d.imag) / (L * L)
    if -tol <= t <= 1.0 + tol:
        perp = abs((z - p) - t * d)
        if perp <= tol * max(1.0, L):
            return t
    return None


def _circle_segment(c, r, p, q):
    d = q - p
    L2 = abs(d) ** 2
    if L2 < 1e-30:
        return []
    f = p - c
    b = 2.0 * (f.real * d.real + f.imag * d.imag)
    cc = abs(f) ** 2 - r * r
    disc = b * b - 4.0 * L2 * cc
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    out = []
    for t in ((-b - sq) / (2.0 * L2), (-b + sq) / (2.0 * L2)):
        if -1e-12 <= t <= 1.0 + 1e-12:
            out.append(p + t * d)
    return out


def _segment_segment(p1, q1, p2, q2):
    d1 = q1 - p1
    d2 = q2 - p2
    denom = d1.real * d2.imag - d1.imag * d2.real
    if abs(denom) < 1e-18:
        return []
    dp = p2 - p1
    t = (dp.real * d2.imag - dp.imag * d2.real) / denom
    u = (dp.real * d1.imag - dp.imag * d1.real) / denom
    if -1e-12 <= t <= 1 + 1e-12 and -1e-12 <= u <= 1 + 1e-12:
        return [p1 + t * d1]
    return []


def _pair_intersections(a: DiskArc, b: DiskArc):
    """Intersection points of two disk arcs (span-checked)."""
    if a.is_segment and b.is_segment:
        return _segment_segment(a.z0, a.z1, b.z0, b.z1)
    if a.is_segment or b.is_segment:
        seg, arc = (a, b) if a.is_segment else (b, a)
        pts = _circle_segment(arc.center, arc.radius, seg.z0, seg.z1)
        return [z for z in pts if _on_span(arc, _arc_point_angle(arc, z))]
    if (abs(a.center - b.center) < 1e-12
            and abs(a.radius - b.radius) < 1e-12):
        # same supporting circle: overlap beyond a point means non-simple
        for frac in (0.25, 0.5, 0.75):
            ang = a.a0 + a.sweep * frac
            if _on_span(b, ang, pad=1e-9):
                return [a.center + a.radius * complex(math.cos(ang),
                                                      math.sin(ang))]
        return []
    pts = _circle_circle(a.center, a.radius, b.center, b.radius)
    out = []
    for z in pts:
        if _on_span(a, _arc_point_angle(a, z)) and \
                _on_span(b, _arc_point_angle(b, z)):
            out.append(z)
    return out


# relative slack on one full turn, so a ball's single closing arc (one
# turn up to rounding) stays simple
_TURN_TOL = 1e-9


def _winds_past_full_turn(a: Arc) -> bool:
    """Exact test: a circular arc running more than once round its circle.

    Its disk image folds the sweep mod 2 pi, so the pairwise crossing
    test below cannot see the overlap with itself.  A circle of
    curvature |kappa| > 1 has radius arccoth |kappa|, and the arc turns
    length / sinh(radius) radians about its center.
    """
    k = abs(a.kappa)
    if k <= 1.0:
        return False
    turning = a.length / math.sinh(math.atanh(1.0 / k))
    return turning > 2.0 * math.pi * (1.0 + _TURN_TOL)


def _chain_is_simple(disk_arcs, join_tol: float = 1e-9) -> bool:
    n = len(disk_arcs)
    if n == 1:
        return True
    for i in range(n):
        for j in range(i + 1, n):
            a, b = disk_arcs[i], disk_arcs[j]
            adjacent = (j == i + 1) or (i == 0 and j == n - 1)
            pts = _pair_intersections(a, b)
            if not adjacent and pts:
                return False
            if adjacent:
                shared = a.z1 if j == i + 1 else a.z0
                for z in pts:
                    if abs(z - shared) > join_tol:
                        return False
    return True
