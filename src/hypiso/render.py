"""Exact SVG figures of bodies in the Poincare disk and half-plane views.

Both views are conformal, so every constant-curvature arc maps to a
Euclidean circular arc or segment and can be emitted as a native SVG
arc command with no flattening.  This module owns that view geometry
(`DiskArc`, `arc_through_points`); every verdict of the library runs
on the hyperboloid and knows nothing of the views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import Body, _sausage_at_origin, inscribed_ball, rolls_freely
from .geom import (
    CurveKind,
    Point,
    classify_curvature,
    disk_to_uhp,
    fermi_point,
    to_disk,
    to_uhp,
)
from .spline import _frame_columns, _kernel

_MODELS = ("disk", "uhp")

# stroke widths in pixels and colors of every figure
STROKE_WIDTH = 2.0
OVERLAY_WIDTH = 1.1
BOUNDARY_COLOR = "#1b1b1b"
FRAME_COLOR = "#c9c9c9"
EXTENSION_COLOR = "#9a9a9a"
OVERLAY_COLOR = "#2166ac"
WITNESS_COLOR = "#c22727"


@dataclass(frozen=True)
class RenderSpec:
    """Figure options: view model, canvas size, overlays."""

    model: str = "disk"
    width_px: int = 640
    height_px: int = 640
    draw_extensions: bool = True
    core_geodesic: bool = False
    inscribed_balls: bool = False
    rolling_witness: bool = False

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {_MODELS}")
        if self.width_px <= 0 or self.height_px <= 0:
            raise ValueError("pixel dimensions must be positive")


def _fmt(x: float) -> str:
    # fixed decimals keep the output byte-stable across runs
    return f"{x:.6f}"


def ball_view_circle(center_z: complex, r: float) -> tuple[complex, float]:
    """Euclidean (center, radius) of a hyperbolic ball in the disk view.

    The image circle is symmetric about the diameter through the
    hyperbolic center, so the two diametral points along that ray pin
    it down exactly.
    """
    rho = abs(center_z)
    if rho < 1e-15:
        return 0.0 + 0.0j, math.tanh(r / 2.0)
    d0 = 2.0 * math.atanh(rho)
    u = center_z / rho
    p_far = math.tanh((d0 + r) / 2.0) * u
    p_near = math.tanh((d0 - r) / 2.0) * u
    return (p_far + p_near) / 2.0, abs(p_far - p_near) / 2.0


# ---------------------------------------------------------------------------
# view-space geometry

@dataclass(frozen=True)
class DiskArc:
    """Euclidean image of one arc in a conformal view."""

    z0: complex
    z1: complex
    center: complex | None  # None for a straight chord
    radius: float = 0.0
    a0: float = 0.0          # angle of z0 seen from center
    sweep: float = 0.0       # signed; z1 sits at a0 + sweep

    @property
    def is_segment(self) -> bool:
        return self.center is None


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


def _view_arcs(body: Body, model: str) -> list[DiskArc]:
    """The images of a body's boundary arcs in the disk or uhp view,
    each from its ends and interior thirds: distinct even when the arc
    is a full loop whose end returns to its start."""
    to_view = to_disk if model == "disk" else to_uhp
    sp = body.boundary
    k = sp.kappas[:, None]
    ts = np.arange(4.0) / 3.0 * sp.lengths[:, None]
    pts = (_frame_columns(k, *_kernel(k, ts))[0]
           @ sp.placed_frames[:-1].swapaxes(1, 2))
    return [arc_through_points(*(to_view(Point.from_array(p, validate=False))
                                 for p in row)) for row in pts]


def _circle_as_view_arc(center_z: complex, radius: float,
                        model: str) -> DiskArc:
    """Disk-view Euclidean circle mapped into the requested view."""
    if model == "disk":
        z0 = center_z + radius
        return DiskArc(z0=z0, z1=z0, center=center_z, radius=radius,
                       a0=0.0, sweep=2.0 * math.pi)
    pts = [center_z + radius * complex(math.cos(t), math.sin(t))
           for t in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)]
    ws = [disk_to_uhp(z) for z in pts]
    return arc_through_points(ws[0], ws[1], ws[2], ws[0])


def _arc_bbox_samples(va: DiskArc) -> list[complex]:
    if va.is_segment:
        return [va.z0, va.z1]
    ts = np.linspace(0.0, 1.0, 13)
    return [va.center + va.radius
            * complex(math.cos(va.a0 + va.sweep * t),
                      math.sin(va.a0 + va.sweep * t)) for t in ts]


class _View:
    """Math coordinates to pixel coordinates (y flipped)."""

    def __init__(self, scale: float, cx: float, cy: float,
                 x0: float, y0: float):
        self.scale = scale
        self.cx, self.cy = cx, cy
        self.x0, self.y0 = x0, y0

    def xy(self, z: complex) -> tuple[float, float]:
        return (self.cx + self.scale * (z.real - self.x0),
                self.cy - self.scale * (z.imag - self.y0))

    def r(self, radius: float) -> float:
        return self.scale * radius


def _disk_view(spec: RenderSpec) -> _View:
    # unit disk fills the largest centered square
    side = min(spec.width_px, spec.height_px)
    return _View(side / 2.0, spec.width_px / 2.0, spec.height_px / 2.0,
                 0.0, 0.0)


def _uhp_view(spec: RenderSpec, samples: list[complex]) -> _View:
    xs = [z.real for z in samples]
    ys = [z.imag for z in samples] + [0.0]  # keep the floor in frame
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    w = max(xmax - xmin, 1e-9)
    h = max(ymax - ymin, 1e-9)
    pad = 0.06 * max(w, h)
    w, h = w + 2 * pad, h + 2 * pad
    scale = min(spec.width_px / w, spec.height_px / h)
    cx = (spec.width_px - scale * w) / 2.0 + scale * pad
    cy = (spec.height_px - scale * h) / 2.0 + scale * pad
    return _View(scale, cx, spec.height_px - cy, xmin, ymin)


# ---------------------------------------------------------------------------
# SVG emission

def _style(color: str, width: float, dash: str | None = None) -> str:
    s = f'fill="none" stroke="{color}" stroke-width="{_fmt(width)}"'
    if dash:
        s += f' stroke-dasharray="{dash}"'
    return s


def _emit_arc(va: DiskArc, view: _View, style: str,
              cls: str | None = None) -> str:
    tag_cls = f' class="{cls}"' if cls else ""
    if va.is_segment:
        x0, y0 = view.xy(va.z0)
        x1, y1 = view.xy(va.z1)
        return (f'<path{tag_cls} d="M {_fmt(x0)} {_fmt(y0)} '
                f'L {_fmt(x1)} {_fmt(y1)}" {style}/>')
    if abs(va.sweep) >= 2.0 * math.pi - 1e-9:
        cx, cy = view.xy(va.center)
        return (f'<circle{tag_cls} cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                f'r="{_fmt(view.r(va.radius))}" {style}/>')
    x0, y0 = view.xy(va.z0)
    x1, y1 = view.xy(va.z1)
    rr = _fmt(view.r(va.radius))
    laf = 1 if abs(va.sweep) > math.pi else 0
    sf = 0 if va.sweep > 0 else 1  # y flip reverses orientation
    return (f'<path{tag_cls} d="M {_fmt(x0)} {_fmt(y0)} '
            f'A {rr} {rr} 0 {laf} {sf} {_fmt(x1)} {_fmt(y1)}" {style}/>')


def _emit_circle(center: complex, radius: float, view: _View,
                 style: str) -> str:
    cx, cy = view.xy(center)
    return (f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
            f'r="{_fmt(view.r(radius))}" {style}/>')


def _emit_dot(z: complex, view: _View, color: str) -> str:
    cx, cy = view.xy(z)
    return (f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3.5" '
            f'fill="{color}" stroke="none"/>')


def _extension_elements(body: Body, arcs: list[DiskArc],
                        view: _View) -> list[str]:
    out = []
    style = _style(EXTENSION_COLOR, OVERLAY_WIDTH, "6,5")
    for a, va in zip(body.boundary.arcs, arcs):
        # a concave hypercircle arc extends along the same equidistant
        if classify_curvature(abs(a.kappa)).kind is not CurveKind.HYPERCIRCLE:
            continue
        if va.is_segment:
            ext = va.z1 - va.z0
            out.append(_emit_arc(
                DiskArc(z0=va.z0 - 2.0 * ext, z1=va.z1 + 2.0 * ext,
                        center=None), view, style))
        else:
            out.append(_emit_circle(va.center, va.radius, view, style))
    return out


def _core_geodesic_elements(view: _View, spec: RenderSpec) -> list[str]:
    # constructor bodies are built over the x-axis geodesic
    style = _style(OVERLAY_COLOR, OVERLAY_WIDTH, "10,6")
    if spec.model == "disk":
        va = DiskArc(z0=-1.0 + 0.0j, z1=1.0 + 0.0j, center=None)
        return [_emit_arc(va, view, style)]
    # the x-axis maps to a vertical ray; clip it to a finite span
    lo = to_uhp(fermi_point(-3.0, 0.0))
    hi = to_uhp(fermi_point(3.0, 0.0))
    return [_emit_arc(DiskArc(z0=lo, z1=hi, center=None), view, style)]


def _inscribed_elements(body: Body, view: _View,
                        spec: RenderSpec) -> list[str]:
    style = _style(OVERLAY_COLOR, OVERLAY_WIDTH, "4,4")
    balls = []
    if _sausage_at_origin(body):
        meta = body.meta
        # the whole core segment attains the inradius; show the extremes
        r = meta["cap_radius"]
        for s in (-meta["d"], 0.0, meta["d"]):
            if s == 0.0 and meta["d"] == 0.0:
                continue
            balls.append((to_disk(fermi_point(s, 0.0)), r))
        if not balls:
            balls.append((0.0 + 0.0j, r))
    else:
        r, center = inscribed_ball(body)
        balls.append((to_disk(center), r))
    out = []
    for cz, r in balls:
        ec, er = ball_view_circle(cz, r)
        out.append(_emit_arc(_circle_as_view_arc(ec, er, spec.model),
                             view, style))
    return out


def _witness_elements(body: Body, view: _View,
                      spec: RenderSpec) -> list[str]:
    lam = body.thick_for or (body.meta or {}).get("lambda")
    if lam is None:
        return []
    rep = rolls_freely(body, float(lam))
    ec, er = ball_view_circle(to_disk(rep.witness_center), rep.rho)
    style = _style(WITNESS_COLOR, OVERLAY_WIDTH)
    out = [_emit_arc(_circle_as_view_arc(ec, er, spec.model), view, style)]
    wz = (to_disk(rep.witness_point) if spec.model == "disk"
          else to_uhp(rep.witness_point))
    out.append(_emit_dot(wz, view, WITNESS_COLOR))
    return out


def render_svg(body: Body, spec: RenderSpec | None = None) -> str:
    """Render a body to an SVG string per the RenderSpec options."""
    spec = spec or RenderSpec()
    arcs = _view_arcs(body, spec.model)

    if spec.model == "disk":
        view = _disk_view(spec)
    else:
        samples = [z for va in arcs for z in _arc_bbox_samples(va)]
        view = _uhp_view(spec, samples)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{spec.width_px}" height="{spec.height_px}" '
        f'viewBox="0 0 {spec.width_px} {spec.height_px}">',
        f'<rect width="{spec.width_px}" height="{spec.height_px}" '
        f'fill="white"/>',
    ]
    frame_style = _style(FRAME_COLOR, 1.0)
    if spec.model == "disk":
        parts.append(_emit_circle(0.0 + 0.0j, 1.0, view, frame_style))
    else:
        x0, y0 = view.xy(complex(view.x0, 0.0))
        parts.append(f'<line x1="0" y1="{_fmt(y0)}" '
                     f'x2="{spec.width_px}" y2="{_fmt(y0)}" '
                     f'{frame_style}/>')
    if spec.draw_extensions:
        parts.extend(_extension_elements(body, arcs, view))
    if spec.core_geodesic:
        parts.extend(_core_geodesic_elements(view, spec))
    if spec.inscribed_balls:
        parts.extend(_inscribed_elements(body, view, spec))
    body_style = _style(BOUNDARY_COLOR, STROKE_WIDTH)
    for va in arcs:
        parts.append(_emit_arc(va, view, body_style, cls="arc"))
    if spec.rolling_witness:
        parts.extend(_witness_elements(body, view, spec))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
