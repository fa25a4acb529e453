"""Test oracles for the half-plane view and for isometries given by
frames: the inverse of `geom.to_uhp`, the half-plane distance, the
isometry carrying one frame to another, and parallel transport along
a geodesic.  The library needs none of them; the tests check the model
conversions and `random_isometry` with them.

Imported by the test modules next to it (`from model_oracles import
dist_uhp`); pytest puts this directory on the import path.
"""

import numpy as np

from hypiso.geom import (
    Frame,
    Point,
    _acosh1p,
    from_disk,
    lorentz_inverse,
    minkowski,
)


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
