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

from .curves import Arc, PiecewiseCurve, Segment, _primitive_extent, turned_start_angle
from .errors import InvalidInput
from .geometry import POS_REL

#: largest offset distance over the curve's extent (its largest end point
#: coordinate or piece length): shifted coordinates round in proportion to
#: the distance; past this a segment rebuilt from its shifted ends could
#: bend beyond ANG_TOL (measured in README, Tolerances)
MAX_OFFSET_REL = 1e3


class OffsetResult(NamedTuple):
    left: PiecewiseCurve
    right: PiecewiseCurve
    distance: float
    degenerate: bool


def offset(curve: PiecewiseCurve, distance: float) -> OffsetResult:
    """Left and right offsets of the whole chain at the given distance.

    Left is the rot90(tangent) side.  A counterclockwise arc has its
    center on the left, so the left offset is its inner one; clockwise
    arcs mirror this.  Degeneracy (distance >= inner radius anywhere)
    is flagged per result and the affected side skips G1 validation.
    A distance that is not positive and finite, or that exceeds
    MAX_OFFSET_REL times the curve's extent, raises InvalidInput.
    """
    if not 0.0 < distance < math.inf:
        raise InvalidInput(f"offset distance must be positive and finite, got {distance!r}")
    bound = MAX_OFFSET_REL * max(map(_primitive_extent, curve.primitives))
    if distance > bound:
        raise InvalidInput(f"offset distance {distance!r} exceeds {bound!r}, "
                           f"{MAX_OFFSET_REL:g} times the curve's extent")
    left_prims: list = []
    right_prims: list = []
    left_degenerate = right_degenerate = False
    for p in curve.primitives:
        if isinstance(p, Segment):
            # shifted along rot90(direction) * distance, keeping the base's
            # direction, which meets the concentric arcs' tangents
            d = p.direction
            sx, sy = -d.y * distance, d.x * distance
            left_prims.append(p.translated(sx, sy))
            right_prims.append(p.translated(-sx, -sy))
            continue
        ccw = p.sweep > 0
        inner_side, outer_side = (left_prims, right_prims) if ccw else (right_prims, left_prims)
        # the inner arc collapses within POS_REL of the center; past it, it
        # flips to the antipodal parameterization: same locus, tangent
        # reversed (cusp case)
        r, tol = p.radius - distance, POS_REL * p.radius
        if r > tol:
            inner_side.append(p.concentric(r))
        elif r < -tol:
            inner_side.append(
                Arc(p.center, -r, turned_start_angle(p.start_angle, math.pi), p.sweep))
        outer_side.append(p.concentric(p.radius + distance))
        if r <= tol:
            left_degenerate |= ccw
            right_degenerate |= not ccw
    left = PiecewiseCurve(left_prims, require_g1=not left_degenerate)
    right = PiecewiseCurve(right_prims, require_g1=not right_degenerate)
    return OffsetResult(left=left, right=right, distance=distance,
                        degenerate=left_degenerate or right_degenerate)
