"""Piecewise arc/segment curves with exact arc-length parameterization.

A curve is an ordered chain of primitives, each either a line segment
or a circular arc with signed sweep (positive sweep = counterclockwise
turning = positive curvature).  Chains are G1-continuous: joints match
in position and tangent direction.  Each primitive evaluates itself in
closed form, in one `evaluate_row` that gives its point, unit tangent
and curvature at a local arc length; a chain locates the primitive and
delegates to it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, NamedTuple, Union

from .errors import InternalError, InvalidInput, OutOfRange
from .geometry import (
    ANG_TOL,
    POS_REL,
    ROUND_REL,
    TWO_PI,
    Frozen,
    Point2,
    Vec2,
    dist,
    principal_angle,
    unit_turn,
)
from .instance import ProblemInstance, point_from_json


class Segment(Frozen):
    """Line segment from `start` to `end`.

    Its length and unit direction are computed once, at construction.
    The end data every primitive provides are its own fields: its end
    points are `start` and `end`, and both end tangents are `direction`.
    """

    __slots__ = ("start", "end", "length", "direction")
    _fields = ("start", "end")
    #: a segment does not turn
    sweep_angle = 0.0

    def __init__(self, start: Point2, end: Point2) -> None:
        # dist(start, end), and normalized(end - start) reusing it as the norm
        dx, dy = end.x - start.x, end.y - start.y
        length = math.hypot(dx, dy)
        if length == 0.0:
            raise InvalidInput("segment endpoints coincide")
        self._store(start, end, length, Vec2(dx / length, dy / length))

    def _store(self, start: Point2, end: Point2, length: float, direction: Vec2) -> None:
        """Set the fields, the length and the direction, through the slots'
        own setters."""
        _set_seg_start(self, start)
        _set_seg_end(self, end)
        _set_seg_length(self, length)
        _set_seg_direction(self, direction)

    def evaluate_row(self, s: float) -> tuple[float, float, float, float, float]:
        """(x, y, tx, ty, kappa) at arc length s from the start."""
        d = self.direction
        return self.start.x + d.x * s, self.start.y + d.y * s, d.x, d.y, 0.0

    def reversed(self) -> "Segment":
        return Segment(self.end, self.start)

    def translated(self, dx: float, dy: float) -> "Segment":
        """This segment moved by (dx, dy): its ends shifted, its length and
        direction kept.  Re-derived from the shifted, rounded ends, a short
        segment's direction could turn by more than ANG_TOL."""
        a, b = self.start, self.end
        seg = object.__new__(Segment)
        seg._store(Vec2(a.x + dx, a.y + dy), Vec2(b.x + dx, b.y + dy), self.length,
                   self.direction)
        return seg


# the slots' setters skip the attribute lookup of object.__setattr__
_set_seg_start, _set_seg_end, _set_seg_length, _set_seg_direction = (
    Segment.__dict__[name].__set__ for name in Segment.__slots__)
# the end data read the same slots: no copies to store
Segment.start_point, Segment.end_point = Segment.__dict__["start"], Segment.__dict__["end"]
Segment.start_tangent = Segment.end_tangent = Segment.__dict__["direction"]


#: bound on |start angle| of an arc: from 2**23 on, one unit in the last
#: place exceeds ANG_TOL, so the angles along the arc lose their tolerance
MAX_START_ANGLE = 2.0**23


def turned_start_angle(start_angle: float, turn: float) -> float:
    """start_angle + turn, the start angle of an arc derived from another.

    Where the sum would reach MAX_START_ANGLE, the same direction one
    whole turn nearer zero, so that an accepted arc (|turn| <= 2 pi)
    never derives a rejected one, and every other arc keeps its angle.
    """
    angle = start_angle + turn
    if abs(angle) < MAX_START_ANGLE:
        return angle
    return start_angle + (turn - math.copysign(TWO_PI, angle))


def _arc_length(radius: float, sweep: float) -> float:
    """radius * |sweep|, which must neither underflow to 0 nor overflow."""
    length = radius * abs(sweep)
    if not 0.0 < length < math.inf:
        raise InvalidInput(f"arc radius {radius!r}, sweep {sweep!r}: length {length!r} "
                           "is not positive and finite")
    return length


class Arc(Frozen):
    """Circular arc: center, radius, start angle and signed sweep.

    The point at arc length s is center + radius*e(start_angle + sweep*s/L)
    where L = radius*|sweep|; sweep > 0 turns counterclockwise.  The
    length and the end points and tangents are computed once, at
    construction, with `evaluate_row`'s expressions at s = 0 and s = L.
    """

    __slots__ = ("center", "radius", "start_angle", "sweep", "length",
                 "start_point", "end_point", "start_tangent", "end_tangent")
    _fields = ("center", "radius", "start_angle", "sweep")

    def __init__(self, center: Point2, radius: float, start_angle: float,
                 sweep: float) -> None:
        if not 0.0 < radius < math.inf:
            raise InvalidInput(f"arc radius must be positive, got {radius!r}")
        if not (0.0 < abs(sweep) < TWO_PI):
            raise InvalidInput(f"arc |sweep| must lie in (0, 2*pi), got {sweep!r}")
        if not abs(start_angle) < MAX_START_ANGLE:
            raise InvalidInput(
                f"arc start angle must be finite with |a| < 2**23, got {start_angle!r}")
        length = _arc_length(radius, sweep)
        sign = 1.0 if sweep > 0 else -1.0
        # evaluate_row's point and tangent at s = 0 and s = L, s / length
        # included, so that the stored ends are its values bit for bit
        psi = start_angle + sweep * (0.0 / length)
        cos0, sin0 = math.cos(psi), math.sin(psi)
        psi = start_angle + sweep * (length / length)
        cos1, sin1 = math.cos(psi), math.sin(psi)
        cx, cy = center.x, center.y
        self._store(center, radius, start_angle, sweep, length,
                    Vec2(cx + radius * cos0, cy + radius * sin0),
                    Vec2(-sign * sin0, sign * cos0),
                    Vec2(cx + radius * cos1, cy + radius * sin1),
                    Vec2(-sign * sin1, sign * cos1))

    def _store(self, center: Point2, radius: float, start_angle: float, sweep: float,
               length: float, start_point: Point2, start_tangent: Vec2,
               end_point: Point2, end_tangent: Vec2) -> None:
        """Set the fields, the length and the end data, through the slots'
        own setters."""
        _set_arc_center(self, center)
        _set_arc_radius(self, radius)
        _set_arc_start_angle(self, start_angle)
        _set_arc_sweep(self, sweep)
        _set_arc_length(self, length)
        _set_arc_start_point(self, start_point)
        _set_arc_end_point(self, end_point)
        _set_arc_start_tangent(self, start_tangent)
        _set_arc_end_tangent(self, end_tangent)

    def concentric(self, radius: float) -> "Arc":
        """This arc at another radius about its center: the constructor's arc,
        whose end angles, and so tangents, do not depend on a radius that gives
        a positive, finite length; they are reused from this one.  A tangent
        is (-sign sin psi, sign cos psi), so each end point, center + radius *
        (cos psi, sin psi), reads cos psi = sign * t.y and sin psi = -sign * t.x."""
        sweep, t, u = self.sweep, self.start_tangent, self.end_tangent
        sign = 1.0 if sweep > 0 else -1.0
        center = self.center
        cx, cy = center.x, center.y
        arc = object.__new__(Arc)
        arc._store(center, radius, self.start_angle, sweep, _arc_length(radius, sweep),
                   Vec2(cx + radius * (sign * t.y), cy + radius * (-sign * t.x)), t,
                   Vec2(cx + radius * (sign * u.y), cy + radius * (-sign * u.x)), u)
        return arc

    def evaluate_row(self, s: float) -> tuple[float, float, float, float, float]:
        """(x, y, tx, ty, kappa) at arc length s from the start."""
        psi = self.start_angle + self.sweep * (s / self.length)
        sign = 1.0 if self.sweep > 0 else -1.0
        cos, sin = math.cos(psi), math.sin(psi)
        return (self.center.x + self.radius * cos, self.center.y + self.radius * sin,
                -sign * sin, sign * cos, sign / self.radius)

    def reversed(self) -> "Arc":
        return Arc(self.center, self.radius,
                   turned_start_angle(self.start_angle, self.sweep), -self.sweep)


(_set_arc_center, _set_arc_radius, _set_arc_start_angle, _set_arc_sweep, _set_arc_length,
 _set_arc_start_point, _set_arc_end_point, _set_arc_start_tangent, _set_arc_end_tangent) = (
    Arc.__dict__[name].__set__ for name in Arc.__slots__)
#: an arc's turn is its sweep, read through the same slot
Arc.sweep_angle = Arc.__dict__["sweep"]


CurvePrimitive = Union[Segment, Arc]


def _primitive_extent(p: CurvePrimitive) -> float:
    a, b = p.start_point, p.end_point
    return max(abs(a.x), abs(a.y), abs(b.x), abs(b.y), p.length)


class PiecewiseCurve:
    """G1 chain of primitives, parameterized by arc length on [0, L].

    The arc-length and turning breakpoints and the largest |curvature|
    are recorded once, at construction.
    """

    __slots__ = ("primitives", "breaks", "length", "_turn_breaks", "_max_curvature")

    def __init__(self, primitives, *, require_g1: bool = True):
        prims = tuple(primitives)
        if not prims:
            raise InvalidInput("curve needs at least one primitive")
        if require_g1:
            pos_tol = None
            for prev, nxt in zip(prims, prims[1:]):
                # a gap within POS_REL of the previous piece's length, at most
                # the chain's extent, passes without the extent of every piece
                a, b = prev.end_point, nxt.start_point
                gap = math.hypot(a.x - b.x, a.y - b.y)
                if gap > POS_REL * prev.length:
                    pos_tol = pos_tol or POS_REL * max(map(_primitive_extent, prims))
                    if gap > pos_tol:
                        raise InvalidInput(f"position gap {gap!r} at joint exceeds {pos_tol!r}")
                # tangents are unit by construction, so oriented_angle's unit
                # checks are not repeated; within half of ANG_TOL of each
                # other their turn atan2(c, d) passes without computing it
                t, u = prev.end_tangent, nxt.start_tangent
                c, d = t.x * u.y - t.y * u.x, t.x * u.x + t.y * u.y
                if not (d > 0.0 and abs(c) <= 0.5 * ANG_TOL * d):
                    turn = unit_turn(t, u)
                    if abs(turn) > ANG_TOL:
                        raise InvalidInput(f"tangent gap {turn!r} rad at joint")
        # arc length, turning and the largest curvature, accumulated in floats
        length = turn = kmax = 0.0
        breaks, turns = [0.0], [0.0]
        for p in prims:
            length += p.length
            breaks.append(length)
            if isinstance(p, Arc):
                turn += p.sweep
                k = 1.0 / p.radius
                kmax = k if k > kmax else kmax  # max(kmax, k), without the call
            turns.append(turn)
        self.primitives = prims
        self.breaks = tuple(breaks)
        self.length = length
        self._turn_breaks = tuple(turns)
        self._max_curvature = kmax

    def _locate(self, s: float) -> tuple[int, float]:
        # out of range: beyond [0, L] by more than the rounding slack, or NaN
        length = self.length
        slack = ROUND_REL * length
        if not (s >= -slack and s <= length + slack):
            raise OutOfRange(f"arc length {s!r} outside [0, {length!r}]")
        # min(max(s, 0.0), L) and min(i, last), without the calls
        s = 0.0 if 0.0 > s else length if length < s else s
        breaks = self.breaks
        i, last = bisect_right(breaks, s) - 1, len(breaks) - 2
        i = last if last < i else i
        return i, s - breaks[i]

    def evaluate_row(self, s: float) -> tuple[float, float, float, float, float]:
        """Point, unit tangent and signed curvature at arc length s, as
        plain floats (x, y, tx, ty, kappa).

        s is clipped to [0, L], and at an interior joint the right-hand
        primitive wins, so curvature jumps are sampled from the later piece.
        """
        i, local = self._locate(s)
        return self.primitives[i].evaluate_row(local)

    def sample_at(self, svals: Iterable[float]) -> list[tuple]:
        """`evaluate_row` at each arc length: one (x, y, tx, ty, kappa) row each."""
        return [self.evaluate_row(s) for s in svals]

    def turning(self, s: float) -> float:
        """Accumulated signed turning (unwrapped heading change) on [0, s]."""
        i, local = self._locate(s)
        p = self.primitives[i]
        partial = p.sweep_angle * (local / p.length)
        return self._turn_breaks[i] + partial

    @property
    def start_point(self) -> Point2:
        return self.primitives[0].start_point

    @property
    def end_point(self) -> Point2:
        return self.primitives[-1].end_point

    @property
    def start_tangent(self) -> Vec2:
        return self.primitives[0].start_tangent

    @property
    def end_tangent(self) -> Vec2:
        return self.primitives[-1].end_tangent

    def reversed_copy(self) -> "PiecewiseCurve":
        return PiecewiseCurve([p.reversed() for p in reversed(self.primitives)])


class PathBuilder:
    """Grow a primitive chain by straight runs and turns from a pose.

    Every piece is placed from the running point and heading alone: an
    arc's center and start angle come from the heading, never from the
    angle of a difference of coordinates, and its end point is reached
    along its chord.  `build_to` closes the chain on a target point.
    """

    def __init__(self, start: Point2 = Vec2(0.0, 0.0), heading: float = 0.0):
        self._point = start
        self._heading = heading
        self._prims: list[CurvePrimitive] = []

    def line(self, length: float) -> "PathBuilder":
        if length < 0.0:
            raise InvalidInput(f"negative segment length {length!r}")
        if length > 0.0:
            p, h = self._point, self._heading
            end = Vec2(p.x + length * math.cos(h), p.y + length * math.sin(h))
            self._prims.append(Segment(p, end))
            self._point = end
        return self

    def arc(self, radius: float, sweep: float) -> "PathBuilder":
        if sweep == 0.0:
            return self
        # the center lies a quarter turn to the turning side of the heading
        p, h = self._point, self._heading
        side = 0.5 * math.pi if sweep > 0 else -0.5 * math.pi
        to_center = h + side
        center = Vec2(p.x + radius * math.cos(to_center), p.y + radius * math.sin(to_center))
        self._prims.append(Arc(center, radius, principal_angle(h - side), sweep))
        # the end point in chord form, so it carries the rounding of the
        # chord and not that of a far-away center
        chord = 2.0 * radius * math.sin(0.5 * abs(sweep))
        to_end = h + 0.5 * sweep
        self._point = Vec2(p.x + chord * math.cos(to_end), p.y + chord * math.sin(to_end))
        self._heading = h + sweep
        return self

    def build(self) -> PiecewiseCurve:
        return PiecewiseCurve(self._prims)

    def build_to(self, target: Point2, tol: float) -> PiecewiseCurve:
        """The chain as a curve ending on `target`.

        The chain must end within `tol` of `target`; a final segment is
        then moved to end on it exactly.  The caller computed the chain
        to close, so a miss, or a joint that fails the G1 check, is the
        construction's fault and raises InternalError.
        """
        prims = list(self._prims)
        # the curve's own end: a final arc's, not the chord-form point
        miss = dist(prims[-1].end_point if prims else self._point, target)
        if not miss <= tol:
            raise InternalError(f"chain ends {miss!r} from its target, tolerance {tol!r}")
        try:
            if prims and isinstance(prims[-1], Segment):
                prims[-1] = Segment(prims[-1].start, target)
            return PiecewiseCurve(prims)
        except InvalidInput as exc:
            raise InternalError(f"constructed chain is not G1: {exc}") from exc


def heading(curve: PiecewiseCurve, inst: ProblemInstance, s: float) -> float:
    """Continuous (unwrapped) heading relative to the instance tangent alpha.

    phi(0) is the principal angle from alpha to the start tangent (zero
    for admissible curves); later values accumulate the signed sweeps
    and are deliberately not re-wrapped.  alpha and the start tangent are
    unit where they were built, so their angle is taken unchecked.
    """
    phi0 = unit_turn(inst.alpha, curve.primitives[0].start_tangent)
    return phi0 + curve.turning(s)


def max_curvature(curve: PiecewiseCurve) -> float:
    """Largest |curvature| over the chain; segments contribute zero.
    The curve records it at construction."""
    return curve._max_curvature


class MembershipReport(NamedTuple):
    """Per-condition residuals for the admissibility check."""

    endpoint_a_residual: float
    endpoint_b_residual: float
    tangent_a_residual: float
    tangent_b_residual: float
    curvature_nonnegative: bool
    phi_monotone: bool
    phi_range_ok: bool
    in_e: bool

    def as_dict(self) -> dict:
        return {
            "endpointA_residual": self.endpoint_a_residual,
            "endpointB_residual": self.endpoint_b_residual,
            "tangentA_residual": self.tangent_a_residual,
            "tangentB_residual": self.tangent_b_residual,
            "curvatureNonnegative": self.curvature_nonnegative,
            "phiMonotone": self.phi_monotone,
            "phiRangeOK": self.phi_range_ok,
            "inE": self.in_e,
        }


def check_membership(curve: PiecewiseCurve, inst: ProblemInstance) -> MembershipReport:
    """Evaluate every admissibility condition against the instance.

    Position residuals are compared to 1e-9 * scene diameter, angular
    residuals to 1e-9 rad.  Headings are piecewise linear in arc length,
    so monotonicity and the range check are exact at the breakpoints.
    """
    pos_tol = inst.pos_tol
    prims = curve.primitives
    first, last = prims[0], prims[-1]
    # dist() of each end from its endpoint, in floats
    p, q = first.start_point, inst.A
    endpoint_a = math.hypot(p.x - q.x, p.y - q.y)
    p, q = last.end_point, inst.B
    endpoint_b = math.hypot(p.x - q.x, p.y - q.y)
    # phi(0) and the A-tangent residual are the same angle up to sign; the
    # instance's tangents and the curve's are unit where they were built
    phi0 = unit_turn(inst.alpha, first.start_tangent)
    tangent_a = abs(phi0)
    tangent_b = abs(unit_turn(last.end_tangent, inst.beta))
    curvature_ok = True
    for p in prims:
        if not p.sweep_angle >= 0.0:
            curvature_ok = False
            break
    phis = [phi0 + t for t in curve._turn_breaks]
    monotone = True
    a = phis[0]
    for b in phis[1:]:
        if not b - a >= -ANG_TOL:
            monotone = False
            break
        a = b
    range_ok = min(phis) >= -ANG_TOL and max(phis) <= inst.omega + ANG_TOL
    in_e = (endpoint_a <= pos_tol and endpoint_b <= pos_tol
            and tangent_a <= ANG_TOL and tangent_b <= ANG_TOL
            and curvature_ok and monotone and range_ok)
    return MembershipReport(endpoint_a, endpoint_b, tangent_a, tangent_b,
                            curvature_ok, monotone, range_ok, in_e)


# ---------------------------------------------------------------------------
# JSON schema:
# {"primitives":[{"type":"segment","start":[x,y],"end":[x,y]}
#               |{"type":"arc","center":[x,y],"radius":r,"startAngle":a,"sweep":w}]}

def _number(obj, key):
    val = obj.get(key)
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise InvalidInput(f"field {key!r} must be a number")
    return float(val)


def curve_from_json(obj: dict) -> PiecewiseCurve:
    if not isinstance(obj, dict) or not isinstance(obj.get("primitives"), list):
        raise InvalidInput('curve JSON must be an object with a "primitives" list')
    prims: list[CurvePrimitive] = []
    for entry in obj["primitives"]:
        if not isinstance(entry, dict):
            raise InvalidInput("each primitive must be an object")
        kind = entry.get("type")
        if kind == "segment":
            prims.append(Segment(point_from_json(entry, "start"), point_from_json(entry, "end")))
        elif kind == "arc":
            prims.append(Arc(point_from_json(entry, "center"), _number(entry, "radius"),
                             _number(entry, "startAngle"), _number(entry, "sweep")))
        else:
            raise InvalidInput(f"unknown primitive type {kind!r}")
    return PiecewiseCurve(prims)


def curve_to_json(curve: PiecewiseCurve) -> dict:
    prims = []
    for p in curve.primitives:
        if isinstance(p, Segment):
            prims.append({"type": "segment",
                          "start": [p.start.x, p.start.y],
                          "end": [p.end.x, p.end.y]})
        else:
            prims.append({"type": "arc",
                          "center": [p.center.x, p.center.y],
                          "radius": p.radius,
                          "startAngle": p.start_angle,
                          "sweep": p.sweep})
    return {"primitives": prims}
