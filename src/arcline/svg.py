"""SVG emission for arc/segment curves.

Arcs are written as native elliptical-arc path commands, never as
polyline approximations.  Model coordinates are y-up; the document is
y-down, so every y is negated on output and the arc sweep flag flips
accordingly.  Number formatting is fixed at 9 significant digits so
identical input produces byte-identical documents.
"""

from __future__ import annotations

import math

from .curves import Arc, PiecewiseCurve, Segment

_PALETTE = ("#000000", "#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b")


def _fmt(value: float) -> str:
    if value == 0.0:
        return "0"
    return format(value, ".9g")


def _primitive_bounds(p) -> tuple[float, float, float, float]:
    xs = [p.start_point.x, p.end_point.x]
    ys = [p.start_point.y, p.end_point.y]
    if isinstance(p, Arc):
        # axis-aligned extremes reached inside the swept angle range; a
        # range narrower than 2*pi holds at most four quarter turns, and
        # the cap also ends the walk where adding pi/2 no longer moves a
        # huge angle
        a0 = p.start_angle
        a1 = p.start_angle + p.sweep
        lo, hi = min(a0, a1), max(a0, a1)
        k = math.ceil(lo / (0.5 * math.pi))
        angle = k * 0.5 * math.pi
        for _ in range(4):
            if angle > hi:
                break
            xs.append(p.center.x + p.radius * math.cos(angle))
            ys.append(p.center.y + p.radius * math.sin(angle))
            angle += 0.5 * math.pi
    return min(xs), min(ys), max(xs), max(ys)


def _path_data(curve: PiecewiseCurve) -> str:
    start = curve.start_point
    parts = [f"M {_fmt(start.x)} {_fmt(-start.y)}"]
    for p in curve.primitives:
        end = p.end_point
        if isinstance(p, Segment):
            parts.append(f"L {_fmt(end.x)} {_fmt(-end.y)}")
        else:
            large = 1 if abs(p.sweep) > math.pi else 0
            sweep_flag = 1 if p.sweep < 0 else 0
            parts.append(
                f"A {_fmt(p.radius)} {_fmt(p.radius)} 0 {large} {sweep_flag} "
                f"{_fmt(end.x)} {_fmt(-end.y)}")
    return " ".join(parts)


def to_svg(curves: list[PiecewiseCurve]) -> str:
    """Standalone SVG document drawing the curves, one path per curve.

    The viewBox fits all geometry with a 5% margin; an empty input
    yields an empty document with viewBox "0 0 1 1".
    """
    if not curves:
        return ('<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1">'
                "</svg>\n")
    xmin = ymin = math.inf
    xmax = ymax = -math.inf
    for curve in curves:
        for p in curve.primitives:
            x0, y0, x1, y1 = _primitive_bounds(p)
            xmin, ymin = min(xmin, x0), min(ymin, y0)
            xmax, ymax = max(xmax, x1), max(ymax, y1)
    span = max(xmax - xmin, ymax - ymin)
    margin = 0.05 * span
    # flip to document coordinates: y -> -y
    vb = (xmin - margin, -ymax - margin,
          (xmax - xmin) + 2.0 * margin, (ymax - ymin) + 2.0 * margin)
    stroke_width = _fmt(0.004 * span)
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(vb[0])} {_fmt(vb[1])} {_fmt(vb[2])} {_fmt(vb[3])}">'
    ]
    for i, curve in enumerate(curves):
        lines.append(
            f'  <path d="{_path_data(curve)}" fill="none" '
            f'stroke="{_PALETTE[i % len(_PALETTE)]}" stroke-width="{stroke_width}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
