"""The polygonal area oracle of the tests: a geodesic fan over
boundary samples, independent of the Gauss-Bonnet area that the
library reads from a chain's curvatures and lengths.

Imported by the test modules next to it (`from polygonal_area import
area_polygonal`); pytest puts this directory on the import path.
"""

import math

import numpy as np

from hypiso.geom import lorentz_cross, minkowski, project_to_sheet
from hypiso.spline import ArcSpline, NonSimpleBoundaryError


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
