"""Constant-curvature curves and convex bodies in the hyperbolic plane.

Hyperboloid-model primitives, closed arc-splines with curvature in a
thickness box, inner and outer parallel bodies, scalar Steiner flows,
the reverse isoperimetric deficit, rolling tests, a constrained shape
optimizer, and exact SVG rendering of the Poincare disk and half-plane
views.
"""

from .geom import (
    ORIGIN,
    ORIGIN_FRAME,
    CurveClass,
    CurveKind,
    Frame,
    Point,
    classify_curvature,
    curvature_scaled,
    disk_curvature_at_origin,
    dist,
    dist_disk,
    exp_map,
    fermi_point,
    from_disk,
    hypercircle_curvature_from_angle,
    hypercircle_distance_from_angle,
    minkowski,
    random_isometry,
    sausage_side_curvature,
    to_disk,
    to_uhp,
)
from .spline import (
    Arc,
    ArcSpline,
    GeometryError,
    NonSimpleBoundaryError,
    ThicknessCertificate,
    arc_points,
)
from .steiner import (
    SIGN_AS_PRINTED,
    SIGN_STEINER_CONSISTENT,
    BodyMeasure,
    DeficitReport,
    area_lower_bound,
    ball_measures,
    bound_scaled,
    deficit,
    deficit_both,
    flow_invariant,
    inner_flow,
    is_past_inradius,
    outer_flow,
    sausage_measures,
)
from .bodies import (
    Body,
    DegenerateBodyError,
    RollReport,
    ball,
    boundary_proximity,
    contains_body,
    contains_point,
    dist_to_boundary,
    inradius,
    inscribed_ball,
    offset,
    offsets,
    q_counterexample,
    rolls_freely,
    sausage,
    signed_boundary_distance,
    two_ball_hull,
)
from .optimize import (
    Candidate,
    ShapeProblem,
    lam_ball_circumference,
    perimeter_to_d,
    random_thick_body,
    solve,
)
from .render import RenderSpec, render_svg

__version__ = "0.1.0"

__all__ = [
    "ORIGIN", "ORIGIN_FRAME", "CurveClass", "CurveKind", "Frame", "Point",
    "classify_curvature", "curvature_scaled", "disk_curvature_at_origin",
    "dist", "dist_disk", "exp_map", "fermi_point", "from_disk",
    "hypercircle_curvature_from_angle",
    "hypercircle_distance_from_angle", "minkowski", "random_isometry",
    "sausage_side_curvature", "to_disk", "to_uhp",
    "Arc", "ArcSpline", "GeometryError", "NonSimpleBoundaryError",
    "ThicknessCertificate", "arc_points",
    "SIGN_AS_PRINTED", "SIGN_STEINER_CONSISTENT", "BodyMeasure",
    "DeficitReport", "area_lower_bound", "ball_measures", "bound_scaled",
    "deficit", "deficit_both", "flow_invariant", "inner_flow",
    "is_past_inradius", "outer_flow", "sausage_measures",
    "Body", "DegenerateBodyError", "RollReport", "ball",
    "boundary_proximity", "contains_body", "contains_point",
    "dist_to_boundary", "inradius", "inscribed_ball", "offset",
    "offsets", "q_counterexample", "rolls_freely", "sausage",
    "signed_boundary_distance", "two_ball_hull",
    "Candidate", "ShapeProblem", "lam_ball_circumference",
    "perimeter_to_d", "random_thick_body", "solve",
    "RenderSpec", "render_svg",
]
