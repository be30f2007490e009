"""Construction of the optimal curve: one arc plus one segment.

For boundary data (O, A, B) the unique admissible curve made of a
single circular arc and a single line segment uses the circle tangent
to both boundary lines whose tangency point on the shorter leg is the
endpoint itself.  Its radius maximizes the minimum radius of curvature
over all admissible curves.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .curves import PathBuilder, PiecewiseCurve, curve_to_json, max_curvature
from .errors import DegenerateInput, InvalidInput
from .geometry import (
    ANG_TOL,
    POS_REL,
    Point2,
    Vec2,
    dist,
    oriented_angle,
    rot90,
)
from .instance import ProblemInstance


def arc_radius(inst: ProblemInstance) -> float:
    """Radius of the optimal arc: min(OA, OB) * tan((pi - Omega)/2).

    The reciprocal is the smallest achievable maximum curvature.
    """
    return min(inst.oa, inst.ob) * math.tan((math.pi - inst.omega) / 2.0)


def frame_mirrored(inst: ProblemInstance) -> bool:
    """True where the optimal curve starts with its segment (OA > OB),
    so that the canonical frame is reversed and mirrored.

    The canonical frame is the picture the certificates are stated in:
    the optimal arc leaves the origin along +x and turns counterclockwise
    through omega, and the segment follows to the far endpoint (xb, yb)
    that `dubins._closing` records.  Arc-first instances (OA <=
    OB) sit in the direct frame at A along alpha.  Segment-first
    instances are reversed and mirrored: the frame sits at B with axes
    -beta and rot90(beta), so it is indirect.  Curves are never built in
    the frame but grown in world coordinates from (A, alpha) by
    `PathBuilder`.
    """
    return inst.oa > inst.ob


class OptimalSolution(NamedTuple):
    """The optimal curve and its construction data."""

    curve: PiecewiseCurve
    radius: float
    arc_center: Point2
    arc_sweep: float
    segment_length: float
    arc_first: bool

    def as_dict(self) -> dict:
        return {
            "R_a": self.radius,
            "segmentLength": self.segment_length,
            "arcCenter": [self.arc_center.x, self.arc_center.y],
            "arcSweep": self.arc_sweep,
            "arcFirst": self.arc_first,
            "length": self.curve.length,
            "maxCurvature": max_curvature(self.curve),
            "curve": curve_to_json(self.curve),
        }


def synthesize(inst: ProblemInstance) -> OptimalSolution:
    """Build the optimal curve from A to B.

    The arc carries the whole turning angle and sits at the endpoint
    nearer to O; the segment (length |OA - OB|) fills the longer leg.
    The construction must land on B exactly; a closure residual above
    1e-9 * diameter means the radius and segment length are mutually
    inconsistent and is reported as an internal error.
    """
    ra = arc_radius(inst)
    seg_len = abs(inst.oa - inst.ob)
    pos_tol = inst.pos_tol
    arc_first = not frame_mirrored(inst)
    # a rounding-noise segment (OA == OB up to the last bits) is dropped
    seg = seg_len if seg_len > pos_tol else 0.0

    builder = PathBuilder(inst.A, inst.alpha.angle())
    if arc_first:
        builder.arc(ra, inst.omega).line(seg)
    else:
        builder.line(seg).arc(ra, inst.omega)
    curve = builder.build_to(inst.B, pos_tol)
    return OptimalSolution(curve, ra, curve.primitives[0 if arc_first else -1].center,
                           inst.omega, seg_len, arc_first)


def illposed_demo(A: Point2, alpha: Vec2, B: Point2, beta: Vec2,
                  radius: float) -> PiecewiseCurve:
    """Segment-arc-segment curve meeting endpoint and tangent data that
    violate the admissibility hypotheses.

    For anti-oriented tangents the counterclockwise sweep exceeds pi and
    the construction works for every sufficiently large radius, showing
    the minimum radius of curvature is unbounded on such data.
    """
    if radius <= 0.0:
        raise InvalidInput(f"radius must be positive, got {radius!r}")
    if abs(alpha.norm() - 1.0) > ANG_TOL or abs(beta.norm() - 1.0) > ANG_TOL:
        raise InvalidInput("alpha and beta must be unit vectors")
    den = alpha.cross(beta)
    if abs(den) <= ANG_TOL:
        raise DegenerateInput("tangent directions are (anti)parallel")

    raw = oriented_angle(alpha, beta)
    sweep = raw if raw > 0.0 else raw + 2.0 * math.pi
    # arc displacement depends only on the terminal headings
    w = -rot90(beta - alpha) * radius
    rhs = (B - A) - w
    t1 = rhs.cross(beta) / den
    t2 = alpha.cross(rhs) / den
    tol = POS_REL * max(dist(A, B), radius)
    if t1 < -tol or t2 < -tol:
        raise DegenerateInput(
            f"no segment-arc-segment curve for this radius (t1={t1!r}, t2={t2!r})")
    return (PathBuilder(A, alpha.angle()).line(t1 if t1 > tol else 0.0)
            .arc(radius, sweep).line(t2 if t2 > tol else 0.0).build_to(B, tol))


