"""Parabola baseline: the quadratic Bezier through A, O, B.

The historical choice of connecting curve for the same boundary data.
Its minimum radius of curvature is available in closed form, which
makes the improvement factor of the optimal curve a one-line report.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidInput
from .geometry import ROUND_REL, Frozen, Point2, dist
from .instance import ProblemInstance
from .synthesis import arc_radius


class QuadraticBezier(Frozen):
    """Control points p0, p1, p2; tangent at p0 along p1-p0, at p2 along p2-p1."""

    __slots__ = ("p0", "p1", "p2")
    _fields = ("p0", "p1", "p2")

    def __init__(self, p0: Point2, p1: Point2, p2: Point2) -> None:
        if min(dist(p0, p1), dist(p1, p2), dist(p0, p2)) == 0.0:
            raise InvalidInput("control points must be pairwise distinct")
        _set = object.__setattr__
        _set(self, "p0", p0)
        _set(self, "p1", p1)
        _set(self, "p2", p2)

    @classmethod
    def from_instance(cls, inst: ProblemInstance) -> "QuadraticBezier":
        return cls(inst.A, inst.O, inst.B)


def bezier_min_radius(bez: QuadraticBezier) -> tuple[float, float]:
    """Minimum radius of curvature and the parameter where it occurs.

    cross(B', B'') is constant for a quadratic, so the radius
    |B'(t)|^3 / |cross| is minimized where the speed is, a clamped
    quadratic minimization.  Collinear control points give curvature
    zero everywhere: the radius is reported as infinite.
    """
    p0, p1, p2 = bez.p0, bez.p1, bez.p2
    # the edges e1 = p1 - p0 and e2 = p2 - p1, and d = e2 - e1, in floats
    e1x, e1y = p1.x - p0.x, p1.y - p0.y
    e2x, e2y = p2.x - p1.x, p2.y - p1.y
    cr = 4.0 * (e1x * e2y - e1y * e2x)
    if abs(cr) <= ROUND_REL * 4.0 * math.hypot(e1x, e1y) * math.hypot(e2x, e2y):
        return math.inf, 0.5
    dx, dy = e2x - e1x, e2y - e1y
    denom = dx * dx + dy * dy
    t_star = 0.0 if denom == 0.0 else min(max(-(e1x * dx + e1y * dy) / denom, 0.0), 1.0)
    # the speed |B'(t)| = |e1 * 2 (1 - t) + e2 * 2 t| at t_star
    a, b = 2.0 * (1.0 - t_star), 2.0 * t_star
    speed = math.hypot(e1x * a + e2x * b, e1y * a + e2y * b)
    return speed ** 3 / abs(cr), t_star


class ComparisonReport(NamedTuple):
    """Optimal arc radius versus the parabola's minimum radius."""

    bezier_min_radius: float
    optimal_min_radius: float
    improvement_ratio: float | None

    def as_dict(self) -> dict:
        return {
            "bezierMinRadius": self.bezier_min_radius,
            "optimalMinRadius": self.optimal_min_radius,
            "improvementRatio": self.improvement_ratio,
        }


def compare_report(inst: ProblemInstance) -> ComparisonReport:
    """Compare the optimal curve's minimum radius with the parabola's."""
    r_min, _ = bezier_min_radius(QuadraticBezier.from_instance(inst))
    ra = arc_radius(inst)
    ratio = ra / r_min if math.isfinite(r_min) else None
    return ComparisonReport(bezier_min_radius=r_min, optimal_min_radius=ra,
                            improvement_ratio=ratio)
