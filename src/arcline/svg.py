"""SVG emission for arc/segment curves.

Arcs are written as native elliptical-arc path commands, never as
polyline approximations.  Model coordinates are y-up; the document is
y-down, so every y is negated on output and the arc sweep flag flips
accordingly.  Number formatting is fixed at 9 significant digits so
identical input produces byte-identical documents.
"""

from __future__ import annotations

import math

from .curves import Arc, PiecewiseCurve

_PALETTE = ("#000000", "#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b")

# Numbers are written as f"{x + 0.0:.9g}", and a negated y as
# f"{0.0 - y:.9g}": adding or subtracting from +0.0 turns -0.0 into 0.0
# and leaves every other float as it is, so zero is written "0", never "-0".


def to_svg(curves: list[PiecewiseCurve]) -> str:
    """Standalone SVG document drawing the curves, one path per curve.

    The viewBox fits all geometry with a 5% margin; an empty input
    yields an empty document with viewBox "0 0 1 1".
    """
    if not curves:
        return ('<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1">'
                "</svg>\n")
    # one pass per curve writes the path data and collects the x and y of
    # every primitive's end points and of the quarter-turn points inside
    # its arcs, whose extremes frame the drawing
    paths = []
    xs: list[float] = []
    ys: list[float] = []
    for curve in curves:
        start = curve.start_point
        parts = [f"M {start.x + 0.0:.9g} {0.0 - start.y:.9g}"]
        for p in curve.primitives:
            a, b = p.start_point, p.end_point
            xs += (a.x, b.x)
            ys += (a.y, b.y)
            if not isinstance(p, Arc):
                parts.append(f"L {b.x + 0.0:.9g} {0.0 - b.y:.9g}")
                continue
            sweep, r = p.sweep, p.radius
            radius = f"{r:.9g}"
            large = 1 if abs(sweep) > math.pi else 0
            sweep_flag = 1 if sweep < 0 else 0
            parts.append(f"A {radius} {radius} 0 {large} {sweep_flag} "
                         f"{b.x + 0.0:.9g} {0.0 - b.y:.9g}")
            # axis-aligned extremes reached inside the swept angle range; a
            # range narrower than 2*pi holds at most four quarter turns, and
            # the cap also ends the walk where adding pi/2 no longer moves a
            # huge angle
            a0 = p.start_angle
            a1 = a0 + sweep
            lo, hi = min(a0, a1), max(a0, a1)
            k = math.ceil(lo / (0.5 * math.pi))
            angle = k * 0.5 * math.pi
            cx, cy = p.center.x, p.center.y
            for _ in range(4):
                if angle > hi:
                    break
                xs.append(cx + r * math.cos(angle))
                ys.append(cy + r * math.sin(angle))
                angle += 0.5 * math.pi
        paths.append(" ".join(parts))
    xmin, ymin, xmax, ymax = min(xs), min(ys), max(xs), max(ys)
    span = max(xmax - xmin, ymax - ymin)
    margin = 0.05 * span
    # flip to document coordinates: y -> -y
    vb = (xmin - margin, -ymax - margin,
          (xmax - xmin) + 2.0 * margin, (ymax - ymin) + 2.0 * margin)
    stroke_width = f"{0.004 * span + 0.0:.9g}"
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{vb[0] + 0.0:.9g} {vb[1] + 0.0:.9g} {vb[2] + 0.0:.9g} {vb[3] + 0.0:.9g}">'
    ]
    for i, data in enumerate(paths):
        lines.append(
            f'  <path d="{data}" fill="none" '
            f'stroke="{_PALETTE[i % len(_PALETTE)]}" stroke-width="{stroke_width}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
