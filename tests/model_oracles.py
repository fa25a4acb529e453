"""Test oracles for the half-plane view and for isometries given by
frames: the inverse of `geom.to_uhp`, the half-plane distance, the
isometry carrying one frame to another, and parallel transport along
a geodesic.  The library needs none of them; the tests check the model
conversions and `random_isometry` with them.

Reference implementations that the library's faster versions must
match bit for bit: the Lorentz cross through `np.cross`, the inner
double normals as `bodies._double_normals` first solved them, with a
pair table built per call, the JSON writer as `serialize.dumps` first
wrote it, and the per-arc sampler, one kernel call and one frame
product per arc, that `spline._sample_chain`, `arc_points`, the
rolling witness and render's arc points replaced, and the parallel-curve
rules as first written, one branch per curve kind: the arc offset with
its separate cap-snap test, the outer and inner Steiner flows and the
two area bounds, each with its own checks.  `byte_identity_corpus`
is the set of bodies they are compared on.  The per-arc test of a
circle arc winding past a full turn, and the image of one arc in a
conformal view, serve the disk-view simplicity oracle of
`test_spline.py`.

Imported by the test modules next to it (`from model_oracles import
dist_uhp`); pytest puts this directory on the import path.
"""

import functools
import json
import math

import numpy as np

from hypiso.bodies import (
    _CAP_SNAP_HI,
    _CAP_SNAP_LO,
    _PARALLEL_TOL,
    Body,
    DegenerateBodyError,
    ball,
    offset,
    q_counterexample,
    sausage,
    two_ball_hull,
)
from hypiso.geom import (
    Frame,
    Point,
    _acosh1p,
    apply_isometry_frame,
    arccoth,
    from_disk,
    lorentz_inverse,
    minkowski,
)
from hypiso.optimize import random_thick_body
from hypiso.render import arc_through_points
from hypiso.serialize import fmt17
from hypiso.spline import _TURN_TOL, ArcSpline, _kernel, _on_arcs


def uhp_to_disk(w: complex) -> complex:
    """Inverse Cayley transform, upper half-plane -> disk, i -> 0."""
    return (w - 1j) / (w + 1j)


def from_uhp(w: complex) -> Point:
    """Half-plane coordinate to hyperboloid point, the inverse of
    `geom.to_uhp`."""
    w = complex(w)
    if w.imag <= 0.0:
        raise ValueError("half-plane coordinate must satisfy Im w > 0")
    return from_disk(uhp_to_disk(w))


def dist_uhp(w1: complex, w2: complex) -> float:
    """Distance oracle in the half-plane view."""
    return float(_acosh1p(
        1.0 + abs(w1 - w2) ** 2 / (2.0 * w1.imag * w2.imag)))


def isometry_from_frames(src: Frame, dst: Frame) -> np.ndarray:
    """The unique orientation-preserving isometry mapping src to dst."""
    return dst.m @ lorentz_inverse(src.m)


def apply_isometry_point(g: np.ndarray, p: Point) -> Point:
    return Point.from_array(g @ p.v, validate=False)


def parallel_transport(v, a: Point, b: Point):
    """Parallel transport of tangent v along the geodesic from a to b."""
    v = np.asarray(v, dtype=float)
    av = a.v
    bv = b.v
    denom = 1.0 - minkowski(av, bv)
    return v + (minkowski(v, bv) / denom) * (av + bv)


def lorentz_cross_ref(a, b):
    """eta @ (a x b) through `np.cross`."""
    c = np.cross(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    c[..., 0] = -c[..., 0]
    return c


def double_normals_ref(k, L, F, W):
    """`bodies._double_normals` as first written: the pair table built
    on every call, the parallel pairs' planes and both traversals
    repeated with np.tile, one `_on_arcs` call per foot.  Its five
    outputs are the reference the library's must equal bit for bit."""
    n = len(k)
    i, j = np.triu_indices(n, 1)
    keep = (j > i + 1) & ~((i == 0) & (j == n - 1))
    i, j = i[keep], j[keep]
    m = lorentz_cross_ref(W[i], W[j])
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
    e = lorentz_cross_ref(mh, o)
    # four planes per parallel pair, through each arc end
    a, b = i[parallel], j[parallel]
    ends = np.concatenate([a, a + 1, b, b + 1])
    a, b = np.concatenate([i[cut], np.tile(a, 4)]), \
        np.concatenate([j[cut], np.tile(b, 4)])
    o = np.concatenate([o, F[ends, :, 0]])
    e = np.concatenate([e, F[ends, :, 2]])

    # both ways round: first at its u+ foot, second at its u- foot
    first, second = np.concatenate([a, b]), np.concatenate([b, a])
    nu, nubar = np.tile(o + e, (2, 1)), np.tile(o - e, (2, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        u1 = (1.0 - k[first]) / minkowski(nu, W[first])
        u2 = (-1.0 - k[second]) / minkowski(nu, W[second])
        length = np.log(u2 / u1)
    # a parallel pair's constant distance in closed form, unless a
    # horocycle takes part: the signed distances atanh kappa from the
    # common geodesic, or arccoth kappa from the common center, add up
    if a.size > cut.sum():
        h = np.array([math.atanh(v) if abs(v) < 1.0 else
                      arccoth(v) if abs(v) > 1.0 else math.nan for v in k])
        closed = np.tile(np.arange(a.size) >= cut.sum(), 2)
        closed &= np.isfinite(h[first] + h[second])
        length[closed] = (h[first] + h[second])[closed]
    ok = (u1 > 0.0) & (u2 > 0.0) & (length > 0.0)
    first, second, length = first[ok], second[ok], length[ok]
    nu, nubar, u1, u2 = nu[ok], nubar[ok], u1[ok, None], u2[ok, None]
    x = 0.5 * (u1 * nu + nubar / u1)
    y = 0.5 * (u2 * nu + nubar / u2)
    on = (_on_arcs(k[first], L[first], F[first], x)
          & _on_arcs(k[second], L[second], F[second], y))
    return length[on], first[on], second[on], x[on], y[on]


def arc_frames_ref(f: Frame, kappa: float, s):
    """Points, tangents and normals at arclengths s of the arc of
    curvature kappa from frame f: one kernel call, the three columns
    of I + c1 M + c2 M^2 stacked, each carried by f in one product."""
    c1, c2 = _kernel(kappa, s)
    k = kappa
    one = np.ones_like(c1)
    p_co = np.stack([1.0 + c2, c1, k * c2], axis=-1)
    t_co = np.stack([c1, one + c2 * (1.0 - k * k), k * c1], axis=-1)
    n_co = np.stack([-kappa * c2, -kappa * c1, 1.0 - kappa * kappa * c2],
                    axis=-1)
    mt = f.m.T
    return p_co @ mt, t_co @ mt, n_co @ mt


def sample_frames_ref(spline: ArcSpline, n: int):
    """`ArcSpline.sample_frames` arc by arc, through `arc_frames_ref`."""
    arcs = spline.arcs
    total = sum(a.length for a in arcs)
    pts, tans, nors, idxs, locs = [], [], [], [], []
    for i, a in enumerate(arcs):
        ni = max(1, math.ceil(n * a.length / total))
        s = np.arange(ni) * (a.length / ni)
        p, t, nn = arc_frames_ref(spline.frames[i], a.kappa, s)
        pts.append(p)
        tans.append(t)
        nors.append(nn)
        idxs.append(np.full(ni, i))
        locs.append(s)
    return (np.concatenate(pts), np.concatenate(tans),
            np.concatenate(nors), np.concatenate(idxs),
            np.concatenate(locs))


def focal_witness_ref(body: Body, lam: float):
    """The witness (center, point) of `bodies.rolls_freely` where the
    focal distance of its most curved arc binds, its tangent ball's
    two points read through `arc_frames_ref`."""
    rho = arccoth(lam)
    spline = body.boundary
    F = spline.origin_frames
    k = np.array([a.kappa for a in spline.arcs])
    top = int(np.argmax(k))
    reach = arccoth(k[top])
    sh = math.sinh(reach)
    turn = spline.arcs[top].length / sh
    apart = min(turn, math.pi)
    pts, _, nrm = arc_frames_ref(
        Frame(F[top]), k[top],
        np.array([turn - apart, turn + apart]) * (sh / 2.0))
    x, nx, ny = pts[0], nrm[0], nrm[1]
    c = x * math.cosh(rho) + nx * math.sinh(rho)
    t = minkowski(c, ny)
    v = (ny + t * c) / math.sqrt(1.0 + t * t)
    g = spline.start.m
    return g @ c, g @ (c * math.cosh(rho) - v * math.sinh(rho))


def winds_past_full_turn_ref(a) -> bool:
    """Whether a circular arc runs more than once round its circle: a
    circle of curvature |kappa| > 1 has radius arccoth |kappa|, and the
    arc turns length / sinh(radius) radians about its center."""
    k = abs(a.kappa)
    if k <= 1.0:
        return False
    turning = a.length / math.sinh(arccoth(k))
    return turning > 2.0 * math.pi * (1.0 + _TURN_TOL)


def view_arc_ref(f: Frame, a, to_view):
    """The image of an arc from frame f under to_view (`to_disk` or
    `to_uhp`), from its ends and interior thirds, through
    `arc_frames_ref`: distinct even when the arc is a full loop whose
    end returns to its start."""
    ts = np.array([0.0, 1.0, 2.0, 3.0]) / 3.0 * a.length
    z0, za, zb, z1 = (to_view(Point.from_array(p, validate=False))
                      for p in arc_frames_ref(f, a.kappa, ts)[0])
    return arc_through_points(z0, za, zb, z1)


def dumps_ref(obj, indent: int = 0) -> str:
    """`serialize.dumps` as first written, one json.dumps call per key,
    string, bool and None: the reference its text must equal."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {dumps_ref(v, indent + 2).lstrip()}'
            for k, v in obj.items())
        return f"{pad}{{\n{items}\n{pad}}}" if obj else f"{pad}{{}}"
    if isinstance(obj, (list, tuple)):
        items = ",\n".join(dumps_ref(v, indent + 2) for v in obj)
        return f"{pad}[\n{items}\n{pad}]" if len(obj) else f"{pad}[]"
    if isinstance(obj, bool) or obj is None:
        return pad + json.dumps(obj)
    if isinstance(obj, float):
        return pad + fmt17(obj)
    if isinstance(obj, int):
        return pad + str(obj)
    if isinstance(obj, str):
        return pad + json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def offset_arc_ref(kappa: float, length: float, rho: float):
    """`bodies._offset_arc` as first written, one branch per curve kind:
    (kappa', length'), or DegenerateBodyError when a circle collapses."""
    if abs(kappa - 1.0) <= 1e-12:
        return 1.0, length * math.exp(rho)
    if abs(kappa + 1.0) <= 1e-12:
        return -1.0, length * math.exp(-rho)
    if abs(kappa) < 1.0:
        h = math.atanh(kappa)
        h2 = h + rho
        return math.tanh(h2), length * math.cosh(h2) / math.cosh(h)
    if kappa > 1.0:
        r = arccoth(kappa)
        r2 = r + rho
        if r2 < _CAP_SNAP_LO:
            raise DegenerateBodyError(
                f"cap of radius {r:.6g} collapses under offset {rho:.6g}")
        if r2 < _CAP_SNAP_HI:
            r2 = _CAP_SNAP_HI
        return 1.0 / math.tanh(r2), length * math.sinh(r2) / math.sinh(r)
    # kappa < -1: concave circular arc, center on the outward side
    r = arccoth(-kappa)
    r2 = r - rho
    if r2 < _CAP_SNAP_LO:
        raise DegenerateBodyError(
            f"concave arc of radius {r:.6g} collapses under offset {rho:.6g}")
    if r2 < _CAP_SNAP_HI:
        r2 = _CAP_SNAP_HI
    return -1.0 / math.tanh(r2), length * math.sinh(r2) / math.sinh(r)


def cap_snapped_ref(kappa: float, rho: float) -> bool:
    """The test `bodies.offsets` first made after each arc offset: did a
    convex cap land in the snap band?"""
    return kappa > 1.0 and arccoth(kappa) + rho < _CAP_SNAP_HI


def outer_flow_ref(area: float, perimeter: float, rho: float):
    """`steiner.outer_flow` as first written: (area, perimeter)."""
    a2, p = area + 2.0 * math.pi, perimeter
    ch, sh = math.cosh(rho), math.sinh(rho)
    return a2 * ch + p * sh - 2.0 * math.pi, a2 * sh + p * ch


def inner_flow_ref(area: float, perimeter: float, rho: float):
    """`steiner.inner_flow` as first written, the inverse boost."""
    a2, p = area + 2.0 * math.pi, perimeter
    ch, sh = math.cosh(rho), math.sinh(rho)
    return a2 * ch - p * sh - 2.0 * math.pi, p * ch - a2 * sh


def _check_bound_ref(perimeter: float, lam: float) -> None:
    if not math.isfinite(lam):
        raise ValueError("curvature bound lambda must be finite")
    if lam <= 1.0:
        raise ValueError("curvature bound must exceed 1")
    if perimeter < 0.0:
        raise ValueError("perimeter must be >= 0")


def area_lower_bound_ref(perimeter: float, lam: float, sign_convention: str):
    """`steiner.area_lower_bound` as first written."""
    _check_bound_ref(perimeter, lam)
    term = 2.0 * math.pi * (1.0 - math.sqrt(max(1.0 - 1.0 / (lam * lam),
                                                 0.0)))
    if sign_convention == "steiner_consistent":
        return perimeter / lam - term
    if sign_convention == "as_printed":
        return perimeter / lam + term
    raise ValueError(f"unknown sign convention {sign_convention!r}")


def bound_scaled_ref(perimeter: float, lam: float, c: float,
                     sign_convention: str):
    """`steiner.bound_scaled` as first written."""
    _check_bound_ref(perimeter, lam)
    if c < 0.0:
        raise ValueError("curvature scale must be >= 0")
    if c >= lam:
        raise ValueError("scale must satisfy c < lam")
    if c < 1e-4:
        x = (c / lam) ** 2
        term = (math.pi / lam ** 2) * (1.0 + x / 4.0 + x * x / 8.0)
    else:
        term = (2.0 * math.pi / (c * c)) * (1.0 - math.sqrt(1.0 - (c / lam) ** 2))
    if sign_convention == "steiner_consistent":
        return perimeter / lam - term
    if sign_convention == "as_printed":
        return perimeter / lam + term
    raise ValueError(f"unknown sign convention {sign_convention!r}")


def _moved(body: Body, dist: float) -> Body:
    """A copy of body moved dist units out along the x1 axis."""
    ch, sh = math.cosh(dist), math.sinh(dist)
    g = np.array([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])
    spline = body.boundary
    return Body(boundary=ArcSpline(apply_isometry_frame(g, spline.start),
                                   spline.arcs),
                thick_for=body.thick_for, meta=dict(body.meta))


@functools.cache
def byte_identity_corpus() -> tuple:
    """(name, body) pairs: random thick bodies for lambda 1.5, 2 and 3
    and seeds 1-60, sausages of every core length d in {0, 0.3, 1, 2},
    two-ball hulls, q bodies, eroded hulls with concave arcs, chains of
    one to three arcs, and copies of a few of them moved 8 units out."""
    out = [(f"random({lam}, {seed})", random_thick_body(lam, 12, seed))
           for lam in (1.5, 2.0, 3.0) for seed in range(1, 61)]
    out += [(f"sausage(2, {d})", sausage(2.0, d)) for d in (0, 0.3, 1, 2)]
    out += [(f"hull2({r}, {d})", two_ball_hull(r, d))
            for r, d in ((0.9, 0.7), (1.0, 1e-7), (0.5, 1.2))]
    out += [(f"qbody(2, {eps})", q_counterexample(2.0, eps))
            for eps in (0.1, 0.2, 0.4)]
    out += [(f"eroded hull2(0.9, 0.7) by {rho}",
             offset(two_ball_hull(0.9, 0.7), -rho)) for rho in (0.1, 0.3)]
    one = ball(1.0)
    arc = one.boundary.arcs[0]
    two = one.boundary.split(0, arc.length / 3.0)
    three = two.split(1, two.arcs[1].length / 2.0)
    out += [("ball(1)", one), ("ball(1) in two arcs", Body(boundary=two)),
            ("ball(1) in three arcs", Body(boundary=three))]
    out += [(f"{name} moved 8 out", _moved(body, 8.0))
            for name, body in out if name in (
                "sausage(2, 1)", "hull2(0.9, 0.7)", "qbody(2, 0.1)",
                "random(2.0, 1)", "ball(1) in three arcs")]
    return tuple(out)
