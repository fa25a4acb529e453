"""Scalar parallel-body flows and the reverse isoperimetric deficit.

For a convex body K in the hyperbolic plane with area A and perimeter
P, the outer parallel body at distance rho has

    A(rho) = P sinh(rho) + 2 pi (cosh(rho) - 1) + A cosh(rho)
    P(rho) = P cosh(rho) + (A + 2 pi) sinh(rho)

so the vector (A + 2 pi, P) evolves under a hyperbolic rotation: the
boost matrix [[cosh, sinh], [sinh, cosh]].  Erosion is the inverse
boost.  The quantity (A + 2 pi)^2 - P^2 is therefore invariant along
the flow.  Everything here is scalar so the same flow applies to
measures of geometric bodies and to tabulated (area, perimeter) rows.

The reverse isoperimetric bound for bodies with curvature pinched in
[1/lam, lam] compares the area against the sausage of equal perimeter:

    A >= P/lam - 2 pi (1 - sqrt(1 - 1/lam^2))        (minus sign)

The minus sign is what erosion by arccoth(lam) in the flow above
yields; the same bound also circulates with a plus on the root term,
which the flow contradicts.  Both conventions are computed; the
flow-consistent one is the default and every report carries both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geom import arccoth

SIGN_STEINER_CONSISTENT = "steiner_consistent"
SIGN_AS_PRINTED = "as_printed"

PAST_INRADIUS_TOL = 1e-6


@dataclass(frozen=True)
class BodyMeasure:
    """Area and perimeter of a body; no relation between them assumed."""

    area: float
    perimeter: float

    def __post_init__(self):
        if not (math.isfinite(self.area) and math.isfinite(self.perimeter)):
            raise ValueError("measures must be finite")


def outer_flow(m: BodyMeasure, rho: float) -> BodyMeasure:
    """Measures of the outer parallel body at distance rho >= 0."""
    if rho < 0.0:
        raise ValueError("outer flow expects rho >= 0; use inner_flow")
    a2, p = m.area + 2.0 * math.pi, m.perimeter
    ch, sh = math.cosh(rho), math.sinh(rho)
    return BodyMeasure(a2 * ch + p * sh - 2.0 * math.pi, a2 * sh + p * ch)


def inner_flow(m: BodyMeasure, rho: float) -> BodyMeasure:
    """Scalar erosion by rho >= 0: the inverse boost.

    Valid while rho stays below the inradius; past it the formula keeps
    flowing and the area goes negative, which is_past_inradius flags.
    """
    if rho < 0.0:
        raise ValueError("inner flow expects rho >= 0; use outer_flow")
    a2, p = m.area + 2.0 * math.pi, m.perimeter
    ch, sh = math.cosh(rho), math.sinh(rho)
    return BodyMeasure(a2 * ch - p * sh - 2.0 * math.pi, p * ch - a2 * sh)


def is_past_inradius(m: BodyMeasure) -> bool:
    """True when a flowed measure is no longer geometrically meaningful."""
    return m.area < -PAST_INRADIUS_TOL or m.perimeter < -PAST_INRADIUS_TOL


def flow_invariant(m: BodyMeasure) -> float:
    """(area + 2 pi)^2 - perimeter^2, constant along both flows."""
    a2 = m.area + 2.0 * math.pi
    return a2 * a2 - m.perimeter * m.perimeter


def sausage_measures(lam: float, d: float) -> BodyMeasure:
    """Closed-form measures of the thick sausage with cap curvature lam.

    Caps are half-circles of radius R = arccoth(lam); the two sides are
    hypercircle arcs over a core segment of length 2 d.
    """
    if lam <= 1.0:
        raise ValueError("cap curvature must exceed 1")
    if d < 0.0:
        raise ValueError("core half-length must be >= 0")
    r = arccoth(lam)
    sh, ch = math.sinh(r), math.cosh(r)
    return BodyMeasure(
        2.0 * math.pi * (ch - 1.0) + 4.0 * d * sh,
        2.0 * math.pi * sh + 4.0 * d * ch)


def ball_measures(r: float) -> BodyMeasure:
    if r <= 0.0:
        raise ValueError("ball radius must be positive")
    return BodyMeasure(2.0 * math.pi * (math.cosh(r) - 1.0),
                       2.0 * math.pi * math.sinh(r))


def _root_term(lam: float) -> float:
    return math.sqrt(max(1.0 - 1.0 / (lam * lam), 0.0))


def area_lower_bound(perimeter: float, lam: float,
                     sign_convention: str = SIGN_STEINER_CONSISTENT) -> float:
    """Reverse isoperimetric area bound for the given perimeter.

    steiner_consistent:  P/lam - 2 pi (1 - sqrt(1 - 1/lam^2))
    as_printed:          P/lam + 2 pi (1 - sqrt(1 - 1/lam^2))
    """
    if not math.isfinite(lam):
        raise ValueError("curvature bound lambda must be finite")
    if lam <= 1.0:
        raise ValueError("curvature bound must exceed 1")
    if perimeter < 0.0:
        raise ValueError("perimeter must be >= 0")
    term = 2.0 * math.pi * (1.0 - _root_term(lam))
    if sign_convention == SIGN_STEINER_CONSISTENT:
        return perimeter / lam - term
    if sign_convention == SIGN_AS_PRINTED:
        return perimeter / lam + term
    raise ValueError(f"unknown sign convention {sign_convention!r}")


@dataclass(frozen=True)
class DeficitReport:
    """Area margin over the reverse isoperimetric bound."""

    lam: float
    area: float
    perimeter: float
    bound_value: float
    deficit: float
    sign_convention: str

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "area": self.area,
            "perimeter": self.perimeter,
            "bound_value": self.bound_value,
            "deficit": self.deficit,
            "sign_convention": self.sign_convention,
        }


def deficit(m: BodyMeasure, lam: float,
            sign_convention: str = SIGN_STEINER_CONSISTENT) -> DeficitReport:
    """Area minus the reverse isoperimetric bound (>= 0 on thick bodies)."""
    b = area_lower_bound(m.perimeter, lam, sign_convention)
    return DeficitReport(
        lam=lam, area=m.area, perimeter=m.perimeter, bound_value=b,
        deficit=m.area - b, sign_convention=sign_convention)


def deficit_both(m: BodyMeasure, lam: float) -> dict:
    """Both sign conventions in one JSON-ready report."""
    rep_s = deficit(m, lam, SIGN_STEINER_CONSISTENT)
    rep_p = deficit(m, lam, SIGN_AS_PRINTED)
    return {
        "lambda": lam,
        "area": m.area,
        "perimeter": m.perimeter,
        SIGN_STEINER_CONSISTENT: {
            "bound_value": rep_s.bound_value,
            "deficit": rep_s.deficit,
        },
        SIGN_AS_PRINTED: {
            "bound_value": rep_p.bound_value,
            "deficit": rep_p.deficit,
        },
    }


def bound_scaled(perimeter: float, lam: float, c: float,
                 sign_convention: str = SIGN_STEINER_CONSISTENT) -> float:
    """Area bound in the plane of curvature -c^2 (c -> 0 is Euclidean).

    The correction term (2 pi / c^2)(1 - sqrt(1 - c^2/lam^2)) is
    evaluated by series once c < 1e-4, where the direct form starts to
    cancel; the series limit at c = 0 is pi / lam^2, recovering the
    Euclidean bound P/lam - pi/lam^2.
    """
    if not math.isfinite(lam):
        raise ValueError("curvature bound lambda must be finite")
    if lam <= 1.0:
        raise ValueError("curvature bound must exceed 1")
    if perimeter < 0.0:
        raise ValueError("perimeter must be >= 0")
    if c < 0.0:
        raise ValueError("curvature scale must be >= 0")
    if c >= lam:
        raise ValueError("scale must satisfy c < lam")
    if c < 1e-4:
        x = (c / lam) ** 2
        term = (math.pi / lam ** 2) * (1.0 + x / 4.0 + x * x / 8.0)
    else:
        term = (2.0 * math.pi / (c * c)) * (1.0 - math.sqrt(1.0 - (c / lam) ** 2))
    if sign_convention == SIGN_STEINER_CONSISTENT:
        return perimeter / lam - term
    if sign_convention == SIGN_AS_PRINTED:
        return perimeter / lam + term
    raise ValueError(f"unknown sign convention {sign_convention!r}")
