"""Closed chains of constant-curvature arcs in the hyperbolic plane.

A spline is a start frame plus a sequence of (kappa, length) arcs, each
traversed with the Frenet system

    p' = T,   T' = p + kappa N,   N' = -kappa T,

whose solution for constant kappa is the matrix exponential of

    M(kappa) = [[0, 1, 0], [1, 0, -kappa], [0, kappa, 0]]

acting on the frame columns (p, T, N).  With alpha = 1 - kappa^2 the
exponential is I + c1(s) M + c2(s) M^2.

One kernel, `_kernel`, evaluates (c1, c2) elementwise with kappa
broadcast against s: one curvature with many arclengths (sampling), or
one curvature per element (a chain's arcs, or distance queries against
a whole chain).  Each element falls in one of three regimes: trig
functions of s*sqrt(-alpha) for circles, hyperbolic functions of
s*sqrt(alpha) for hypercircles and geodesics, and a Taylor series in
x = alpha s^2 wherever |x| is small, which always covers the horocycle
band.  The regimes join smoothly.  Curvatures of one family run that
family alone, and a mix runs both and picks per element, so every
element equals its curvature's one-element call bit for bit.

`arc_transports` builds the stacked (n, 3, 3) transports of a whole
chain from one kernel call and keeps the coefficients, from which
`_arc_generators` builds the Lie-algebra generators of their two
derivatives without a second call.  Every element of so(2, 1) is X(v):
x -> lorentz_cross(v, x) (`geom.lorentz_cross`).  So an arc's
derivative in length is X(v) exp(s M) with v = (kappa, 0, 1), since
M = X(v), and in kappa it is X(u) exp(s M), with u the integral of the
arc's point over its length; a chain's closure Jacobian then needs the
prefix products alone (`optimize._jacobian`).  `arc_transports` takes
one chain or a stack of chains, (m, n) curvatures and lengths, whose
(m, n, 3, 3) transports and coefficients equal m calls on the single
chains byte for byte: every step is elementwise or one 3x3 product
per arc.  Everything else here reads from these: frames along a chain,
sampled points and frames, closure, simplicity.

One placement: a spline walks its arcs from the origin frame once
(`ArcSpline.origin_frames`) and applies its start frame in one spot,
`ArcSpline.frames`.  Every verdict (closure, simplicity, and rolling
and inradius in `bodies`) reads the walk from the origin, so none
depends on where the chain sits; point queries read the placed frames.
The walk is one helper, `_walk`, the prefix products of one chain's
transports or of a stack of chains' at once.  A caller that has
already walked the arcs (the random bodies, whose closing Newton ends
on that walk, and the parallel bodies of `bodies.offsets`, walked as
one stack) hands the walk over with `ArcSpline._from_walk` and the
chain is not walked twice.

Simplicity is decided on the hyperboloid as well: a chain whose arcs
all have kappa >= 0 by its Klein-model rotation index, any other by
solving every pair of arcs for their common points in closed form
(`_chain_crosses`).  `_simple_chains` judges a stack of chains, with
one rotation index call for all the convex ones.  No verdict here uses
the Poincare disk or the half-plane; those views live in `render`.

Orientation convention: the body sits on the side of the normal, so a
counterclockwise boundary has kappa >= 0 and the normal points inward.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .geom import (
    Frame,
    ORIGIN_FRAME,
    arccoth,
    lorentz_cross,
    minkowski,
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


_I3 = np.eye(3)

# |alpha s^2| below which the coefficients use their Taylor series
_SERIES_X = 1e-8

# |alpha s^2| below which c3 of `_arc_generators` uses its series:
# the closed form (c1 - s) / alpha cancels to a relative error of
# about 6 eps / |x|, and at |x| = 0.1 the first term past these seven,
# x^7 / 17!, is below 2e-21 of the sum
_C3_SERIES_X = 0.1
_C3_POWERS = np.arange(7.0)
_C3_TERMS = 1.0 / np.array([math.factorial(2 * j + 3) for j in range(7)])


def _kernel(kappa, s):
    """(c1, c2) with exp(s M(kappa)) = I + c1 M + c2 M^2, elementwise
    over kappa broadcast against s.

    With alpha = 1 - kappa^2 and z = sqrt|alpha| s: c1 = sinh(z) /
    sqrt(alpha) and c2 = 2 sinh(z / 2)^2 / alpha where alpha > 0, the
    same with sin and |alpha| where alpha < 0, and the series in x =
    alpha s^2 where 0 < |x| < `_SERIES_X` or alpha = 0; s = 0 is exact
    in closed form.  alpha = 0 runs with the circles, and the series
    overwrites its 0 / 0.

    One curvature (a 0-d kappa, as in sampling) reads its family and
    the series mask from the sign of alpha: x = alpha s^2 has that
    sign, so |x| < `_SERIES_X`, x != 0 is one bounded comparison per
    side.  It computes its own family alone, so a circle or
    hypercircle call raises a floating-point warning only where its
    coefficients themselves overflow.  No other warning leaves the
    call: a mix of curvatures computes both families and discards one,
    which may overflow, and alpha = 0 divides 0 by 0.
    """
    kappa = np.asarray(kappa, dtype=float)
    s = np.asarray(s, dtype=float)
    alpha = 1.0 - kappa * kappa
    x = alpha * s * s
    if kappa.ndim:
        series = np.abs(x) < _SERIES_X
        if np.count_nonzero(series):
            series &= (x != 0.0) | (alpha == 0.0)
        hyp = alpha > 0.0
        n_hyp = np.count_nonzero(hyp)
        if n_hyp == hyp.size:
            odd = np.sinh
        elif n_hyp == 0:
            odd = np.sin
        else:
            def odd(v):
                return np.where(hyp, np.sinh(v), np.sin(v))
        quiet = True
        size = np.abs(alpha)
        w = np.sqrt(size)
    else:
        a = float(alpha)
        if a > 0.0:
            series = (x < _SERIES_X) & (x > 0.0)
            odd, quiet = np.sinh, False
        elif a < 0.0:
            series = (x > -_SERIES_X) & (x < 0.0)
            odd, quiet = np.sin, False
        else:  # alpha = 0, or a NaN curvature
            series = np.abs(x) < _SERIES_X
            odd, quiet = np.sin, True
        size = abs(a)
        w = math.sqrt(size)
    patch = None
    if np.count_nonzero(series):
        if s.shape != x.shape:
            s = np.broadcast_to(s, x.shape)
        xs, ss = x[series], s[series]
        patch = (ss * (1.0 + xs / 6.0 + xs * xs / 120.0),
                 ss * ss * (0.5 + xs / 24.0 + xs * xs / 720.0))
    # s may be long (dense sampling): each array is dropped once read,
    # so numpy reuses its memory
    del x
    z = w * s
    with np.errstate(all="ignore") if quiet else contextlib.nullcontext():
        c2 = odd(z / 2.0)
        c1 = odd(z)
        del z
        c1 /= w
        c2 *= c2
        c2 *= 2.0
        c2 /= size
    if patch is not None:
        # a 0-d call computes numpy scalars, which take no assignment
        c1, c2 = np.asarray(c1), np.asarray(c2)
        c1[series], c2[series] = patch
    return c1, c2


class ArcCoeffs(NamedTuple):
    """Per-arc kernel coefficients of a chain, as `_arc_generators`
    reads them."""

    k: np.ndarray
    s: np.ndarray
    c1: np.ndarray
    c2: np.ndarray


def arc_transports(kappas, lengths):
    """Stacked transports and the `ArcCoeffs` they came from.

    The coefficients are what `_arc_generators` needs, so a caller that
    may or may not want the derivatives later pays one kernel call.
    kappas and lengths hold one chain, shape (n,), or a stack of
    chains, shape (m, n); the transports are (..., n, 3, 3).
    """
    k = np.asarray(kappas, dtype=float)
    s = np.asarray(lengths, dtype=float)
    c1, c2 = _kernel(k, s)
    m = frenet_matrix(k)
    m2 = m @ m
    a = _I3 + c1[..., None, None] * m + c2[..., None, None] * m2
    return a, ArcCoeffs(k, s, c1, c2)


def _c3(k, s, c1):
    """c3 = the integral of c2 over [0, s], elementwise.

    It is (c1 - s) / alpha in closed form and s^3 times the sum of
    x^j / (2j + 3)! as a series, taken below |x| = `_C3_SERIES_X`;
    alpha and x are those of `_kernel`, by the same expressions.
    """
    alpha = 1.0 - k * k
    x = alpha * s * s
    small = np.abs(x) < _C3_SERIES_X
    # alpha + 1 where the series takes over keeps alpha = 0 finite
    c3 = (c1 - s) / (alpha + small)
    if small.any():
        xs, ss = x[small], s[small]
        c3[small] = ss ** 3 * (xs[:, None] ** _C3_POWERS @ _C3_TERMS)
    return c3


def _arc_generators(coeffs: ArcCoeffs) -> np.ndarray:
    """The generators (u, v) of each arc's derivatives, (n, 3, 2).

    In the arc's start frame, d exp(s M) / ds = X(v) exp(s M) with
    v = (kappa, 0, 1), and d exp(s M) / dkappa = X(u) exp(s M) with
    u = (s + c3, c2, kappa c3): dM/dkappa = X((1, 0, 0)), conjugating
    it by exp(t M) gives X of the arc's point (1 + c2, c1, kappa c2) at
    t, and u is that point integrated over [0, s].  u is column 0 and
    v column 1.  One chain's coefficients only.
    """
    k, s, c1, c2 = coeffs
    c3 = _c3(k, s, c1)
    uv = np.empty((k.size, 3, 2))
    uv[:, 0, 0] = s + c3
    uv[:, 1, 0] = c2
    uv[:, 2, 0] = k * c3
    uv[:, 0, 1] = k
    uv[:, 1, 1] = 0.0
    uv[:, 2, 1] = 1.0
    return uv


def _walk(mats) -> np.ndarray:
    """Prefix products I, A_0, A_0 A_1, ... of transports: the chains
    walked from the origin frame, the arc axis first.

    One chain's transports (n, 3, 3) give its frames (n + 1, 3, 3); a
    stack of m chains' (m, n, 3, 3) gives (n + 1, m, 3, 3), chain i at
    [:, i].  No per-step renormalization: the raw Lorentz product
    drifts less than projecting back to the constraint set does.  The
    products are written arc by arc into one preallocated array, each
    step one 3x3 product (stacked over the chains), so every chain of a
    stack equals its walk alone byte for byte.
    """
    walk = np.empty((mats.shape[-3] + 1,) + mats.shape[:-3] + (3, 3))
    walk[0] = _I3
    for before, A, after in zip(walk, mats.swapaxes(0, -3), walk[1:]):
        np.matmul(before, A, out=after)
    return walk


def arc_points(f: Frame, kappa: float, s):
    """Curve points at arclengths s along the arc starting at frame f."""
    c1, c2 = _kernel(kappa, s)
    coeff = np.stack([1.0 + c2, c1, kappa * c2], axis=-1)
    return coeff @ f.m.T


def _normal_coeffs(kappa: float, c1, c2):
    # normal column of I + c1 M + c2 M^2, in start-frame coordinates
    return np.stack([-kappa * c2, -kappa * c1, 1.0 - kappa * kappa * c2],
                    axis=-1)


def arc_frames_batch(f: Frame, kappa: float, s):
    """Points, tangents and normals at arclengths s (vectorized)."""
    c1, c2 = _kernel(kappa, s)
    k = kappa
    one = np.ones_like(c1)
    p_co = np.stack([1.0 + c2, c1, k * c2], axis=-1)
    t_co = np.stack([c1, one + c2 * (1.0 - k * k), k * c1], axis=-1)
    mt = f.m.T
    return p_co @ mt, t_co @ mt, _normal_coeffs(k, c1, c2) @ mt


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


def _closure_gaps(ends) -> np.ndarray:
    """Closure gaps of chains walked from the origin frame, from their
    end frames (..., 3, 3): the larger of the end point's distance
    2 sinh(dist / 2) from the origin and the gap between the end
    tangent, carried back to the origin, and the origin's tangent.
    Elementwise over the stack, so each gap equals its chain's alone.
    """
    o, o_t = ORIGIN_FRAME.p, ORIGIN_FRAME.t
    pt = np.swapaxes(ends[..., :, :2], -1, -2)  # rows p, t
    p, t = pt[..., 0, :], pt[..., 1, :]
    po_to = minkowski(pt, o)
    # t parallel transported along the geodesic from p to o:
    # v + <v, o> / (1 - <p, o>) (p + o) carries a tangent v at p to o
    scale = po_to[..., 1] / (1.0 - po_to[..., 0])
    gap = np.empty(pt.shape)
    gap[..., 0, :] = p - o
    gap[..., 1, :] = t + scale[..., None] * (p + o) - o_t
    d = np.sqrt(np.maximum(minkowski(gap, gap), 0.0))
    return np.maximum(d[..., 0], d[..., 1])


def _sample_chain(arcs, frames, n: int):
    """`ArcSpline.sample_frames` of arcs starting at the given frames."""
    if n < 1:
        raise ValueError("need at least one sample")
    total = sum(a.length for a in arcs)
    pts, tans, nors, idxs, locs = [], [], [], [], []
    for i, a in enumerate(arcs):
        ni = max(1, math.ceil(n * a.length / total))
        s = np.arange(ni) * (a.length / ni)
        p, t, nn = arc_frames_batch(frames[i], a.kappa, s)
        pts.append(p)
        tans.append(t)
        nors.append(nn)
        idxs.append(np.full(ni, i))
        locs.append(s)
    return (np.concatenate(pts), np.concatenate(tans),
            np.concatenate(nors), np.concatenate(idxs),
            np.concatenate(locs))


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
        self._check_closure()

    def _check_closure(self):
        if math.isfinite(self.closure_tol):
            res = self.closure_residual()
            if res > self.closure_tol:
                raise GeometryError(
                    f"chain does not close: residual {res:.3e} exceeds "
                    f"{self.closure_tol:.1e}")

    @staticmethod
    def _from_walk(arcs, transports, origin_frames,
                   start: Frame = ORIGIN_FRAME,
                   closure_tol: float = CLOSURE_TOL,
                   residual: float | None = None,
                   simple: bool | None = None) -> "ArcSpline":
        """The spline of arcs from start, given the caller's walk of
        them from the origin frame: their (n, 3, 3) transports and the
        (n + 1, 3, 3) prefix products from I, as `_transports` and
        `origin_frames` would compute them (a chain's slice of a
        stacked walk will do).  A caller that has also read the walk's
        closure gap (`_closure_gaps`) or simplicity verdict
        (`_simple_chains`) passes them as residual and simple.  The
        closure check and every verdict then read that walk instead of
        a second one."""
        s = ArcSpline(start, tuple(arcs), closure_tol=math.inf)
        s.__dict__.update(_transports=transports, origin_frames=origin_frames)
        if residual is not None:
            s.__dict__["_residual"] = residual
        if simple is not None:
            s.__dict__["_simple"] = simple
        object.__setattr__(s, "closure_tol", closure_tol)
        s._check_closure()
        return s

    @cached_property
    def _transports(self) -> np.ndarray:
        """The stacked arc transports, shape (n, 3, 3)."""
        return arc_transports([a.kappa for a in self.arcs],
                              [a.length for a in self.arcs])[0]

    @cached_property
    def origin_frames(self) -> np.ndarray:
        """Frame matrices at each arc start, then the chain end, of the
        chain walked from the origin frame: `_walk`, the prefix
        products from I."""
        return _walk(self._transports)

    @cached_property
    def frames(self) -> tuple:
        """`origin_frames` moved by the start frame, the one spot where
        it is applied: frames at each arc start, then the chain end."""
        return tuple(map(Frame, self.start.m @ self.origin_frames))

    def closure_residual(self) -> float:
        """The closure gap of the arcs alone, wherever the chain sits.

        The chain closes where the product of its arc transports is the
        identity, since an isometry carries start and end frame alike.
        So the gap is measured between the origin frame and the end of
        `origin_frames`, not between the placed start and end frames:
        their coordinates grow like cosh(distance) and would bring
        roundoff of that size into a check against one fixed tolerance.
        """
        return self._residual

    @cached_property
    def _residual(self) -> float:
        return float(_closure_gaps(self.origin_frames[-1]))

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
        return _sample_chain(self.arcs, self.frames, n)

    def sample_points(self, n: int) -> np.ndarray:
        return self.sample_frames(n)[0]

    @cached_property
    def _simple(self) -> bool:
        return _simple_chains([self.arcs], self.origin_frames[:, None])[0]

    def is_simple(self) -> bool:
        """Whether the closed chain does not cross itself (cached).

        No arc may run more than once round its circle.  A chain that
        never turns right is then exactly simple when its Klein-model
        tangent turns once, in O(n).  A chain with a concave arc is
        simple when no two arcs meet off their shared joints, which
        `_chain_crosses` solves in closed form for all pairs at once.
        """
        return self._simple

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


# ── simplicity of chains that never turn right ───────────────────────────
# The Klein model sends geodesics to straight chords and keeps the sign
# of curvature, so a chain whose arcs all have kappa >= 0 is a locally
# convex Euclidean curve there.  Such a closed curve is simple exactly
# when its tangent turns once (rotation index 1), which takes O(n).

# Each arc's tangent turning in the Klein view is read as an angle
# difference wrapped into [-eps, 2 pi - eps).  With kappa >= 0 it lies
# in [0, 2 pi) once circular arcs are split below, but a geodesic arc
# reads about -4e-16 where it does not turn, which a plain mod 2 pi
# would make a full turn; eps absorbs that.  An arc or split piece turns
# within eps of a full turn only when it reaches near the ideal boundary,
# far beyond any chain that starts at the origin and closes.
_KLEIN_TURN_EPS = 1e-9


def _klein_angle(f) -> np.ndarray:
    """Direction of the Klein-model velocity at frames f (..., 3, 3)."""
    p, t = f[..., :, 0], f[..., :, 1]
    # velocity of the Klein point (p1, p2) / p0, up to the factor 1/p0^2
    v = t[..., 1:] * p[..., :1] - p[..., 1:] * t[..., :1]
    return np.arctan2(v[..., 1], v[..., 0])


def _klein_turn(d) -> np.ndarray:
    """Angle differences wrapped into [-eps, 2 pi - eps)."""
    return (d + _KLEIN_TURN_EPS) % (2.0 * math.pi) - _KLEIN_TURN_EPS


def _klein_rotation_index(k, L, walk) -> np.ndarray:
    """Full turns of the Klein-model tangent along closed chains.

    k and L are the (m, n) curvatures and lengths of a stack of m
    chains, walk their (n + 1, m, 3, 3) frames from `_walk`, the chains
    walked from the origin frame: the index does not depend on
    placement, and far-placed coordinates lose the angles to roundoff.
    A single arc can turn by more than pi, so the turning of a circular
    arc that runs more than half round its centre is read in two
    halves, split at its midpoint.  Returns the (m,) indices.
    """
    angle = _klein_angle(walk)
    turn = _klein_turn(angle[1:] - angle[:-1])
    # turning about the centre: length / sinh(arccoth kappa), arcs first
    around = (L * np.sqrt(np.maximum(k * k - 1.0, 0.0))).T
    split = around > math.pi
    if split.any():
        mid = _klein_angle(walk[:-1][split] @ arc_transports(
            k.T[split], L.T[split] / 2.0)[0])
        turn[split] = (_klein_turn(mid - angle[:-1][split])
                       + _klein_turn(angle[1:][split] - mid))
    return np.rint(turn.sum(axis=0) / (2.0 * math.pi)).astype(int)


# relative slack on one full turn, so a ball's single closing arc (one
# turn up to rounding) stays simple
_TURN_TOL = 1e-9


def _winds_past_full_turn(a: Arc) -> bool:
    """Exact test: a circular arc running more than once round its circle.

    The pair solver below reads a circle arc's parameter within one
    turn, so it cannot see an arc overlap itself.  A circle of
    curvature |kappa| > 1 has radius arccoth |kappa|, and the arc turns
    length / sinh(radius) radians about its center.
    """
    k = abs(a.kappa)
    if k <= 1.0:
        return False
    turning = a.length / math.sinh(arccoth(k))
    return turning > 2.0 * math.pi * (1.0 + _TURN_TOL)


# ── crossings of chains with a concave arc ────────────────────────────────
# Every arc lies on the conic <x, x> = -1, <x, w> = -kappa of its
# constant vector w (`_support_vectors`), so two arcs on distinct curves
# meet in at most two points, in closed form.

# The one tolerance of the pair solver, relative: a point counts as on
# an arc when its parameter lies within this fraction of the arc's
# length of the arc, and two arcs lie on parallel planes, or on one
# curve, when their w, or their (w, kappa) up to sign, agree to this
# fraction of their size.  Points that coincide exactly (the ends of a
# chain traversed twice) read parameters about 1e-15 apart, while on
# every simple eroded two-ball hull, q body and sausage in the tests the
# nearest crossing of two curves lies at least 3e-5 of an arc length
# outside the arcs.
_PAIR_TOL = 1e-9


def _support_vectors(kappas, frames) -> np.ndarray:
    """w = kappa p + n of each arc, from its start frame (p, t, n).

    w is constant along the arc, because n' = -kappa t, and the arc's
    whole curve is the conic <x, x> = -1, <x, w> = -kappa.
    """
    return kappas[:, None] * frames[:, :, 0] + frames[:, :, 2]


def _on_arcs(kappas, lengths, frames, x) -> np.ndarray:
    """Whether each point x on an arc's curve lies on the arc itself.

    The parameter is read in the arc's own frame F: F^-1 x =
    (1 + c2, c1, kappa c2), the coefficients of `arc_points`, so
    c1 = <t, x> and c2 = -<p, x> - 1.  With w = sqrt|1 - kappa^2| the
    arclength is atan2(w c1, 1 - w^2 c2) / w on a circle, taken modulo
    one turn, asinh(w c1) / w on a hypercircle or geodesic, and c1 on
    a horocycle.
    """
    c1 = minkowski(frames[:, :, 1], x)
    c2 = -minkowski(frames[:, :, 0], x) - 1.0
    alpha = 1.0 - kappas * kappas
    w = np.sqrt(np.abs(alpha))
    tol = _PAIR_TOL * lengths
    with np.errstate(divide="ignore", invalid="ignore"):
        turn = np.arctan2(w * c1, 1.0 + alpha * c2) / w
        turn = np.where(turn < -tol, turn + 2.0 * math.pi / w, turn)
        s = np.where(alpha < 0.0, turn,
                     np.where(w > 0.0, np.arcsinh(w * c1) / w, c1))
    return (s >= -tol) & (s <= lengths + tol)


class _ArcPairs(NamedTuple):
    """The pairs of arcs of a closed chain of n arcs, as `_arc_pairs`
    tabulates them.  Read-only arrays, shared by every caller."""

    i: np.ndarray       # every pair i < j, in lexicographic order
    j: np.ndarray
    after: np.ndarray   # j == i + 1: the end of arc i is the start of j
    before: np.ndarray  # (0, n - 1): the end of arc j is the start of i
    far_i: np.ndarray   # the pairs sharing no joint, in the same order
    far_j: np.ndarray


@lru_cache(maxsize=64)
def _arc_pairs(n: int) -> _ArcPairs:
    """The pair table of a closed chain of n arcs, built once per n.

    The pair solvers (`_chain_crosses`, `bodies._double_normals`) run
    once per body on a few arcs, where building the table is a fixed
    cost comparable to the solve itself.
    """
    i, j = np.triu_indices(n, 1)
    after = j == i + 1
    before = (i == 0) & (j == n - 1)
    far = ~after & ~before
    table = _ArcPairs(i, j, after, before, i[far], j[far])
    for a in table:
        a.flags.writeable = False
    return table


def _simple_chains(chains, walk) -> list:
    """Simplicity verdicts of a stack of closed chains, one bool each.

    chains holds m tuples of n arcs, walk their (n + 1, m, 3, 3) frames
    from `_walk`.  No arc may run more than once round its circle.  The
    chains whose arcs all have kappa >= 0 then share one
    `_klein_rotation_index` call; each chain with a concave arc is
    solved by `_chain_crosses` on its slice of the walk.
    """
    simple = [False] * len(chains)
    convex = []
    for i, arcs in enumerate(chains):
        if any(_winds_past_full_turn(a) for a in arcs):
            continue
        if all(a.kappa >= 0.0 for a in arcs):
            convex.append(i)
        else:
            simple[i] = not _chain_crosses(arcs, walk[:, i])
    if convex:
        k = np.array([[a.kappa for a in chains[i]] for i in convex])
        L = np.array([[a.length for a in chains[i]] for i in convex])
        frames = walk if len(convex) == len(chains) else walk[:, convex]
        for i, index in zip(convex, _klein_rotation_index(k, L, frames)):
            simple[i] = bool(index == 1)
    return simple


def _chain_crosses(arcs, origin_frames) -> bool:
    """Whether two arcs of a closed chain meet off their shared joints.

    All pairs are solved in one batch on `ArcSpline.origin_frames`.
    Arcs i and j on distinct curves meet at x = a w_i + b w_j + t m,
    where m is the Lorentz cross of w_i and w_j, G (a, b) =
    (-kappa_i, -kappa_j) with G the Gram matrix of w_i and w_j, and
    t^2 comes from <x, x> = -1; a root counts on the upper sheet and
    on both arcs.  Adjacent arcs on distinct curves are tangent at
    their joint, so their planes meet in the tangent line there, which
    touches the hyperboloid at the joint alone: they need no solve.
    Parallel w on distinct curves (concentric circles, equidistants of
    one geodesic) never meet.  Arcs of one curve, (w_j, kappa_j) =
    +-(w_i, kappa_i), meet when an end of one lies on the other, the
    shared joints left out, or when they lie on one circle and run
    more than a full turn together.
    """
    n = len(arcs)
    k = np.array([a.kappa for a in arcs])
    L = np.array([a.length for a in arcs])
    F = origin_frames[:-1]
    W = _support_vectors(k, F)
    i, j, after, before, _, _ = _arc_pairs(n)
    m = lorentz_cross(W[i], W[j])
    w_size = np.linalg.norm(W, axis=1)
    parallel = (np.linalg.norm(m, axis=1)
                <= _PAIR_TOL * w_size[i] * w_size[j])
    V = np.column_stack([W, k])
    v_size = np.linalg.norm(V, axis=1)
    gap = np.minimum(np.linalg.norm(V[i] - V[j], axis=1),
                     np.linalg.norm(V[i] + V[j], axis=1))
    same = parallel & (gap <= _PAIR_TOL * np.maximum(v_size[i], v_size[j]))

    # distinct curves, neither parallel nor adjacent: both roots of each
    # pair, each read on both arcs
    cut = ~parallel & ~after & ~before
    a, b, m = i[cut], j[cut], m[cut]
    wa, wb = W[a], W[b]
    gab = minkowski(wa, wb)
    det = -minkowski(m, m)  # the Gram determinant, without cancellation
    with np.errstate(divide="ignore", invalid="ignore"):
        x0 = (((gab * k[b] - minkowski(wb, wb) * k[a]) / det)[:, None] * wa
              + ((gab * k[a] - minkowski(wa, wa) * k[b]) / det)[:, None] * wb)
        t = np.sqrt((1.0 + minkowski(x0, x0)) / det)[:, None]
    x = np.concatenate([x0 + t * m, x0 - t * m])
    arc = np.concatenate([a, a, b, b])
    on = _on_arcs(k[arc], L[arc], F[arc], np.concatenate([x, x]))
    if np.any((x[:, 0] > 0.0) & on.reshape(2, -1).all(axis=0)):
        return True

    # arcs of one curve: a non-shared end of one on the other
    a, b = i[same], j[same]
    arc = np.concatenate([a, a, b, b])
    end = np.concatenate([b, b + 1, a, a + 1])
    shared = np.concatenate([after[same], before[same],
                             before[same], after[same]])
    if np.any(_on_arcs(k[arc], L[arc], F[arc], origin_frames[end, :, 0])
              & ~shared):
        return True
    with np.errstate(divide="ignore"):  # no turn off circles: inf
        one_turn = 2.0 * math.pi / np.sqrt(np.maximum(k[a] * k[a] - 1.0, 0.0))
    return bool(np.any(L[a] + L[b] > one_turn * (1.0 + _PAIR_TOL)))
