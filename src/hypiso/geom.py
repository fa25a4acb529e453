"""Primitives for the hyperbolic plane in the hyperboloid model.

Points live on the upper sheet of the unit hyperboloid in Minkowski
3-space with signature (-, +, +); the curvature of the plane is -1.
All computation happens in Lorentz coordinates, where distances and
frames are rational in hyperbolic functions and stay well conditioned
far from the conformal boundary.  The Poincare disk and the upper
half-plane exist only as views for I/O and rendering.

Closed curves of constant geodesic curvature kappa fall into four
classes: geodesics (kappa = 0), hypercircles (0 < kappa < 1, the
equidistants of a geodesic), horocycles (kappa = 1), and circles
(kappa > 1).  The conversion lemmas between boundary angle, distance
and curvature for hypercircles are implemented here with their
self-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Classification band: |kappa - 1| at or below this counts as a horocycle.
HOROCYCLE_BAND = 1e-12

_ETA = np.diag([-1.0, 1.0, 1.0])
# component i + 1 and i + 2 of each component i, mod 3
_NEXT = np.array([1, 2, 0])
_AFTER = np.array([2, 0, 1])


def minkowski(a, b):
    """Lorentz inner product -a0*b0 + a1*b1 + a2*b2 (broadcasts).

    The three products are formed in one call and summed left to
    right; -(a0 b0) is (-a0) b0 exactly, so the value is that of the
    expression as written.
    """
    ab = np.asarray(a, dtype=float) * np.asarray(b, dtype=float)
    return -ab[..., 0] + ab[..., 1] + ab[..., 2]


def lorentz_cross(a, b):
    """Minkowski cross product: eta @ (a x b).

    For an oriented orthonormal frame (p, t, n) this gives n from (p, t),
    matching a +90 degree rotation of t in the tangent plane at p.

    Written out term by term, component i as a[i+1] b[i+2] -
    a[i+2] b[i+1] (indices mod 3), the difference np.cross forms, so
    the result equals np.cross(a, b) with component 0 negated bit for
    bit; np.cross itself spends most of a small call on axis handling.
    The Euclidean cross is this with component 0 negated back, exactly.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = a.take(_NEXT, axis=-1) * b.take(_AFTER, axis=-1)
    c -= a.take(_AFTER, axis=-1) * b.take(_NEXT, axis=-1)
    c[..., 0] *= -1.0
    return c


def _acosh1p(x):
    """arccosh with the argument clamped to >= 1 against roundoff."""
    return np.arccosh(np.maximum(x, 1.0))


@dataclass(frozen=True)
class Point:
    """A point on the upper hyperboloid sheet: <p, p> = -1, x0 >= 1."""

    x0: float
    x1: float
    x2: float

    @property
    def v(self) -> np.ndarray:
        return np.array([self.x0, self.x1, self.x2])

    @staticmethod
    def from_array(a, validate: bool = True) -> "Point":
        a = np.asarray(a, dtype=float)
        if validate:
            if a[0] < 1.0 - 1e-9:
                raise ValueError("point not on the upper sheet (x0 < 1)")
            norm = float(minkowski(a, a))
            if abs(norm + 1.0) > 1e-9:
                raise ValueError(f"point off the hyperboloid: <p,p> = {norm}")
        return Point(float(a[0]), float(a[1]), float(a[2]))


ORIGIN = Point(1.0, 0.0, 0.0)


def project_to_sheet(a) -> np.ndarray:
    """Rescale a timelike vector onto the unit hyperboloid upper sheet."""
    a = np.asarray(a, dtype=float)
    norm = minkowski(a, a)
    if np.any(norm >= 0):
        raise ValueError("vector is not timelike")
    return a / np.sqrt(-norm)[..., None] if a.ndim > 1 else a / math.sqrt(-norm)


@dataclass(frozen=True)
class Frame:
    """Oriented orthonormal frame (p, t, n) stored as matrix columns.

    p is the base point, t a unit tangent, n = t rotated by +90 degrees.
    As a Lorentz matrix, the frame is itself the isometry carrying the
    origin frame to (p, t, n).
    """

    m: np.ndarray

    @property
    def p(self) -> np.ndarray:
        return self.m[:, 0]

    @property
    def t(self) -> np.ndarray:
        return self.m[:, 1]

    @property
    def n(self) -> np.ndarray:
        return self.m[:, 2]

    @property
    def point(self) -> Point:
        return Point.from_array(self.p, validate=False)

    @staticmethod
    def create(p, t, validate: bool = True) -> "Frame":
        """The frame (p, t, p x t), checked to be Lorentz orthonormal.

        The Gram-matrix defect is judged relative to the size of the
        entries: it may not exceed 1e-9 * max(1, max |m_ij|)^2.  Each
        Gram entry is a sum of products of two entries, so it carries
        roundoff of order eps * |m|^2, and a frame d units from the
        origin has |m| about cosh d.  An absolute bound would reject an
        exact frame written to 17 digits once it sits a few units out.
        The entries of n are themselves such products, which adds
        another factor |m|: exact frames 7.67 units out (|m| ~ 1070)
        show defects up to 1.5e-6, against a bound of 1.1e-3 there.
        """
        p = np.asarray(p, dtype=float)
        t = np.asarray(t, dtype=float)
        n = lorentz_cross(p, t)
        f = Frame(np.column_stack([p, t, n]))
        if validate:
            err = frame_defect(f)
            scale = max(1.0, float(np.max(np.abs(f.m))))
            if not err <= 1e-9 * scale * scale:  # NaN fails too
                raise ValueError(f"frame not orthonormal, defect {err:.3e}")
        return f


ORIGIN_FRAME = Frame(np.eye(3))


def frame_defect(f: Frame) -> float:
    """Max deviation of the frame Gram matrix from diag(-1, 1, 1)."""
    g = f.m.T @ _ETA @ f.m
    return float(np.max(np.abs(g - _ETA)))


def dist(a: Point, b: Point) -> float:
    """Geodesic distance arccosh(-<a, b>), clamped against roundoff."""
    return float(_acosh1p(-minkowski(a.v, b.v)))


def exp_map(p: Point, v) -> Point:
    """Geodesic exponential: follow the tangent v at p for length |v|."""
    v = np.asarray(v, dtype=float)
    s = math.sqrt(max(minkowski(v, v), 0.0))
    if s == 0.0:
        return p
    u = v / s
    return Point.from_array(p.v * math.cosh(s) + u * math.sinh(s), validate=False)


# ── isometries ────────────────────────────────────────────────────────────

def lorentz_inverse(g: np.ndarray) -> np.ndarray:
    """Inverse of a Lorentz matrix: eta @ g.T @ eta."""
    return _ETA @ g.T @ _ETA


def apply_isometry_frame(g: np.ndarray, f: Frame) -> Frame:
    # raw product; renormalizing amplifies error at large coordinates
    return Frame(g @ f.m)


def random_isometry(rng: np.random.Generator) -> np.ndarray:
    """A random isometry: rotate at the origin, then translate."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    r = rng.uniform(0.0, 2.0)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    ch, sh = math.cosh(r), math.sinh(r)
    cp, sp = math.cos(phi), math.sin(phi)
    # boost of length r in direction phi
    axis = np.array([[1.0, 0.0, 0.0], [0.0, cp, -sp], [0.0, sp, cp]])
    boost = np.array([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])
    return axis @ boost @ lorentz_inverse(axis) @ rot


# ── curve classification ──────────────────────────────────────────────────

class CurveKind(Enum):
    GEODESIC = "geodesic"
    HYPERCIRCLE = "hypercircle"
    HOROCYCLE = "horocycle"
    CIRCLE = "circle"


@dataclass(frozen=True)
class CurveClass:
    """Curve type plus its natural parameter.

    For a circle the parameter is the radius r with kappa = coth(r); for
    a hypercircle it is the distance R to the base geodesic with
    kappa = tanh(R); geodesics and horocycles carry no parameter.
    """

    kind: CurveKind
    parameter: float | None = None


def classify_curvature(kappa: float) -> CurveClass:
    """Classify a constant geodesic curvature into its curve type."""
    if not math.isfinite(kappa):
        raise ValueError("curvature must be finite")
    if kappa < 0.0:
        raise ValueError("classification expects kappa >= 0")
    if kappa == 0.0:
        return CurveClass(CurveKind.GEODESIC)
    if abs(kappa - 1.0) <= HOROCYCLE_BAND:
        return CurveClass(CurveKind.HOROCYCLE)
    kind = CurveKind.HYPERCIRCLE if kappa < 1.0 else CurveKind.CIRCLE
    return CurveClass(kind, curve_height(kappa))


# ── hypercircle conversion lemmas ─────────────────────────────────────────

def hypercircle_curvature_from_angle(beta: float) -> float:
    """Curvature of the hypercircle meeting the ideal boundary at angle beta.

    Both arcs of the boundary circle of a disk-model wedge at angle
    beta in (0, pi/2) are hypercircles of geodesic curvature cos(beta).
    """
    if not 0.0 < beta < math.pi / 2:
        raise ValueError("angle must lie strictly inside (0, pi/2)")
    return math.cos(beta)


def hypercircle_distance_from_angle(beta: float) -> float:
    """Distance from a hypercircle at boundary angle beta to its geodesic.

    Evaluated as -log(tan(beta/2)), which stays accurate for small
    angles; the equivalent artanh(cos(beta)) form is kept as a runtime
    self-check where it is well conditioned (the artanh form loses
    digits once sin(beta) is tiny).
    """
    if not 0.0 < beta < math.pi / 2:
        raise ValueError("angle must lie strictly inside (0, pi/2)")
    r = -math.log(math.tan(beta / 2.0))
    if math.sin(beta) >= 0.02:
        other = math.atanh(math.cos(beta))
        if abs(other - r) > 1e-12 * max(1.0, abs(r)):
            raise AssertionError(
                f"hypercircle distance self-check failed: {r} vs {other}")
    return r


def arccoth(x: float) -> float:
    """arccoth x = atanh(1/x), for |x| > 1: the radius of the circle of
    curvature x.

    The one spot where a radius is read from a curvature, through
    `curve_height` and `lam_ball_radius`, so a radius found by one
    caller has the same bits as the same radius found by another;
    numpy's arctanh differs from math.atanh in the last bit on about
    a fifth of its arguments.
    """
    return math.atanh(1.0 / x)


def curve_height(kappa: float) -> float:
    """Signed height of the curve of curvature kappa: atanh kappa over
    its geodesic (|kappa| < 1), arccoth kappa from its centre
    (|kappa| > 1), NaN on a horocycle.  Its parallel curve at distance
    rho outward is the curve at height h + rho."""
    if abs(kappa) < 1.0:
        return math.atanh(kappa)
    if abs(kappa) > 1.0:
        return arccoth(kappa)
    return math.nan


def lam_ball_radius(lam: float) -> float:
    """Radius arccoth lam of the ball of boundary curvature lam; the one
    check of the thickness parameter, which every function taking it
    calls, so a non-finite lam or lam <= 1 gets one ValueError."""
    if not math.isfinite(lam):
        raise ValueError("thickness parameter must be finite")
    if lam <= 1.0:
        raise ValueError("thickness parameter must exceed 1")
    return arccoth(lam)


def sausage_side_curvature(lam: float) -> float:
    """Side curvature of the thick sausage with cap curvature lam.

    The hypercircle at distance arccoth(lam) from a geodesic has
    curvature tanh(arccoth(lam)) = 1/lam.
    """
    return math.tanh(lam_ball_radius(lam))


def curvature_scaled(c: float, big_r: float) -> float:
    """Cap curvature c * tanh(c * R) in the plane of curvature -c^2.

    c -> 0 recovers the Euclidean normalization c^2 * R -> 0 limit; the
    series branch keeps the small-c limit exact.
    """
    if c < 0.0:
        raise ValueError("curvature scale must be >= 0")
    if big_r < 0.0:
        raise ValueError("radius must be >= 0")
    x = c * big_r
    if x < 1e-8:
        # c*tanh(cR) = c^2 R (1 - x^2/3 + ...)
        return c * c * big_r * (1.0 - x * x / 3.0)
    return c * math.tanh(x)


def disk_curvature_at_origin(euclidean_kappa: float) -> float:
    """Geodesic curvature at the disk origin from Euclidean curvature.

    The disk metric is conformal with factor 2 at the center, so a curve
    through the origin has hyperbolic curvature half its Euclidean one.
    """
    return euclidean_kappa / 2.0


# ── model conversions ─────────────────────────────────────────────────────

def to_disk(p: Point) -> complex:
    """Hyperboloid point to Poincare disk coordinate z, |z| < 1."""
    return complex(p.x1, p.x2) / (1.0 + p.x0)


def from_disk(z: complex) -> Point:
    """Poincare disk coordinate to hyperboloid point."""
    z = complex(z)
    q = abs(z) ** 2
    if q >= 1.0:
        raise ValueError("disk coordinate must satisfy |z| < 1")
    d = 1.0 - q
    return Point((1.0 + q) / d, 2.0 * z.real / d, 2.0 * z.imag / d)


def disk_to_uhp(z: complex) -> complex:
    """Cayley transform disk -> upper half-plane, 0 -> i."""
    return 1j * (1.0 + z) / (1.0 - z)


def to_uhp(p: Point) -> complex:
    """Hyperboloid point to upper half-plane coordinate, origin -> i."""
    return disk_to_uhp(to_disk(p))


def dist_disk(z1: complex, z2: complex) -> float:
    """Distance oracle in the disk view: 2 artanh of the Mobius gauge."""
    num = abs(z1 - z2)
    den = abs(1.0 - z1.conjugate() * z2)
    return 2.0 * math.atanh(num / den)


def fermi_point(s: float, t: float) -> Point:
    """Fermi coordinates of the x1-axis geodesic: s along, t across."""
    return Point(
        math.cosh(s) * math.cosh(t),
        math.sinh(s) * math.cosh(t),
        math.sinh(t),
    )
