"""Exact SVG figures of bodies in the Poincare disk and half-plane views.

Both views are conformal, so every constant-curvature arc maps to a
Euclidean circular arc or segment and can be emitted as a native SVG
arc command with no flattening.
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
from .spline import Arc, DiskArc, arc_points, arc_through_points

_MODELS = ("disk", "uhp")


@dataclass(frozen=True)
class RenderSpec:
    """Figure options: view model, canvas size, strokes, overlays."""

    model: str = "disk"
    width_px: int = 640
    height_px: int = 640
    stroke_width: float = 2.0
    overlay_width: float = 1.1
    boundary_color: str = "#1b1b1b"
    frame_color: str = "#c9c9c9"
    extension_color: str = "#9a9a9a"
    overlay_color: str = "#2166ac"
    witness_color: str = "#c22727"
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


def unit_circle_meeting_angle(center: complex, radius: float) -> float:
    """Angle in [0, pi/2] at which a circle meets the unit circle.

    For the circle carrying a hypercircle arc of curvature kappa the
    cosine of this angle equals |kappa|; geodesic circles meet at a
    right angle.
    """
    d2 = abs(center) ** 2
    cosb = abs(d2 - 1.0 - radius * radius) / (2.0 * radius)
    return math.acos(min(cosb, 1.0))


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

def _uhp_view_arc(f, a: Arc) -> DiskArc:
    ts = np.array([0.0, 1.0, 2.0, 3.0]) / 3.0 * a.length
    z0, za, zb, z1 = (to_uhp(Point.from_array(p, validate=False))
                      for p in arc_points(f, a.kappa, ts))
    return arc_through_points(z0, za, zb, z1)


def _view_arcs(body: Body, model: str) -> list[DiskArc]:
    if model == "disk":
        return list(body.boundary.disk_arcs)
    sp = body.boundary
    return [_uhp_view_arc(f, a) for f, a in zip(sp.frames, sp.arcs)]


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


def _extension_elements(body: Body, arcs: list[DiskArc], view: _View,
                        spec: RenderSpec) -> list[str]:
    out = []
    style = _style(spec.extension_color, spec.overlay_width, "6,5")
    for a, va in zip(body.boundary.arcs, arcs):
        if classify_curvature(a.kappa).kind is not CurveKind.HYPERCIRCLE:
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
    style = _style(spec.overlay_color, spec.overlay_width, "10,6")
    if spec.model == "disk":
        va = DiskArc(z0=-1.0 + 0.0j, z1=1.0 + 0.0j, center=None)
        return [_emit_arc(va, view, style)]
    # the x-axis maps to a vertical ray; clip it to a finite span
    lo = to_uhp(fermi_point(-3.0, 0.0))
    hi = to_uhp(fermi_point(3.0, 0.0))
    return [_emit_arc(DiskArc(z0=lo, z1=hi, center=None), view, style)]


def _inscribed_elements(body: Body, view: _View,
                        spec: RenderSpec) -> list[str]:
    style = _style(spec.overlay_color, spec.overlay_width, "4,4")
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
    style = _style(spec.witness_color, spec.overlay_width)
    out = [_emit_arc(_circle_as_view_arc(ec, er, spec.model), view, style)]
    wz = (to_disk(rep.witness_point) if spec.model == "disk"
          else to_uhp(rep.witness_point))
    out.append(_emit_dot(wz, view, spec.witness_color))
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
    frame_style = _style(spec.frame_color, 1.0)
    if spec.model == "disk":
        parts.append(_emit_circle(0.0 + 0.0j, 1.0, view, frame_style))
    else:
        x0, y0 = view.xy(complex(view.x0, 0.0))
        parts.append(f'<line x1="0" y1="{_fmt(y0)}" '
                     f'x2="{spec.width_px}" y2="{_fmt(y0)}" '
                     f'{frame_style}/>')
    if spec.draw_extensions:
        parts.extend(_extension_elements(body, arcs, view, spec))
    if spec.core_geodesic:
        parts.extend(_core_geodesic_elements(view, spec))
    if spec.inscribed_balls:
        parts.extend(_inscribed_elements(body, view, spec))
    body_style = _style(spec.boundary_color, spec.stroke_width)
    for va in arcs:
        parts.append(_emit_arc(va, view, body_style, cls="arc"))
    if spec.rolling_witness:
        parts.extend(_witness_elements(body, view, spec))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(body: Body, spec: RenderSpec | None, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(render_svg(body, spec))
