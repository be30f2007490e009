"""Constant-distance offsets of arc/segment chains.

Segments offset to parallel segments, arcs to concentric arcs with the
radius grown or shrunk by the offset distance.  G1 chains offset to
connected chains.  When the distance reaches the radius on the curved
side the inner offset develops cusps; such results are flagged as
degenerate and returned un-trimmed (the antipodal arc representation
keeps every point of the locus).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .curves import Arc, PiecewiseCurve, Segment, turned_start_angle
from .errors import InvalidInput
from .geometry import POS_REL, rot90


class OffsetResult(NamedTuple):
    left: PiecewiseCurve
    right: PiecewiseCurve
    distance: float
    degenerate: bool


def _offset_arc(arc: Arc, delta: float):
    """Concentric arc at radius radius+delta, None when it collapses.

    Negative delta beyond the radius flips to the antipodal
    parameterization: same locus, tangent reversed (cusp case).
    """
    r = arc.radius + delta
    if abs(r) <= POS_REL * arc.radius:
        return None
    if r > 0.0:
        return Arc(arc.center, r, arc.start_angle, arc.sweep)
    return Arc(arc.center, -r, turned_start_angle(arc.start_angle, math.pi), arc.sweep)


def offset(curve: PiecewiseCurve, distance: float) -> OffsetResult:
    """Left and right offsets of the whole chain at the given distance.

    Left is the rot90(tangent) side.  A counterclockwise arc has its
    center on the left, so the left offset is its inner one; clockwise
    arcs mirror this.  Degeneracy (distance >= inner radius anywhere)
    is flagged per result and the affected side skips G1 validation.
    """
    if not (distance > 0.0):
        raise InvalidInput(f"offset distance must be positive, got {distance!r}")
    left_prims: list = []
    right_prims: list = []
    left_degenerate = False
    right_degenerate = False
    for p in curve.primitives:
        if isinstance(p, Segment):
            shift = rot90(p.direction) * distance
            left_prims.append(Segment(p.start + shift, p.end + shift))
            right_prims.append(Segment(p.start - shift, p.end - shift))
            continue
        ccw = p.sweep > 0
        inner_delta, outer_delta = -distance, +distance
        inner = _offset_arc(p, inner_delta)
        outer = _offset_arc(p, outer_delta)
        if p.radius - distance <= POS_REL * p.radius:
            if ccw:
                left_degenerate = True
            else:
                right_degenerate = True
        if ccw:
            if inner is not None:
                left_prims.append(inner)
            right_prims.append(outer)
        else:
            if inner is not None:
                right_prims.append(inner)
            left_prims.append(outer)
    left = PiecewiseCurve(left_prims, require_g1=not left_degenerate)
    right = PiecewiseCurve(right_prims, require_g1=not right_degenerate)
    return OffsetResult(left=left, right=right, distance=distance,
                        degenerate=left_degenerate or right_degenerate)
