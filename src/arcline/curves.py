"""Piecewise arc/segment curves with exact arc-length parameterization.

A curve is an ordered chain of primitives, each either a line segment
or a circular arc with signed sweep (positive sweep = counterclockwise
turning = positive curvature).  Chains are G1-continuous: joints match
in position and tangent direction.  Evaluation, heading and curvature
are closed-form per primitive.
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
    from_polar,
    oriented_angle,
    principal_angle,
)
from .instance import ProblemInstance, point_from_json


class Segment(Frozen):
    """Line segment from `start` to `end`.

    Its length and unit direction are computed once, at construction.
    """

    __slots__ = ("start", "end", "length", "direction")
    _fields = ("start", "end")
    #: a segment does not turn
    sweep_angle = 0.0

    def __init__(self, start: Point2, end: Point2) -> None:
        length = dist(start, end)
        if length == 0.0:
            raise InvalidInput("segment endpoints coincide")
        _set = object.__setattr__
        _set(self, "start", start)
        _set(self, "end", end)
        _set(self, "length", length)
        # normalized(end - start), reusing its norm: |end - start| = length
        _set(self, "direction", Vec2((end.x - start.x) / length, (end.y - start.y) / length))

    def point_at(self, s: float) -> Point2:
        return self.start + self.direction * s

    def tangent_at(self, s: float) -> Vec2:
        return self.direction

    # the end data every primitive provides, here the stored fields
    start_point = property(lambda self: self.start)
    end_point = property(lambda self: self.end)
    start_tangent = property(lambda self: self.direction)
    end_tangent = property(lambda self: self.direction)

    def reversed(self) -> "Segment":
        return Segment(self.end, self.start)


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


class Arc(Frozen):
    """Circular arc: center, radius, start angle and signed sweep.

    The point at arc length s is center + radius*e(start_angle + sweep*s/L)
    where L = radius*|sweep|; sweep > 0 turns counterclockwise.  The
    length and the end points and tangents are computed once, at
    construction, by the same expressions `point_at` and `tangent_at`
    evaluate at s = 0 and s = L.
    """

    __slots__ = ("center", "radius", "start_angle", "sweep", "length",
                 "start_point", "end_point", "start_tangent", "end_tangent")
    _fields = ("center", "radius", "start_angle", "sweep")

    def __init__(self, center: Point2, radius: float, start_angle: float,
                 sweep: float) -> None:
        if not (radius > 0.0 and math.isfinite(radius)):
            raise InvalidInput(f"arc radius must be positive, got {radius!r}")
        if not (0.0 < abs(sweep) < TWO_PI):
            raise InvalidInput(f"arc |sweep| must lie in (0, 2*pi), got {sweep!r}")
        if not abs(start_angle) < MAX_START_ANGLE:
            raise InvalidInput(
                f"arc start angle must be finite with |a| < 2**23, got {start_angle!r}")
        _set = object.__setattr__
        _set(self, "center", center)
        _set(self, "radius", radius)
        _set(self, "start_angle", start_angle)
        _set(self, "sweep", sweep)
        length = radius * abs(sweep)
        _set(self, "length", length)
        _set(self, "start_point", self.point_at(0.0))
        _set(self, "end_point", self.point_at(length))
        _set(self, "start_tangent", self.tangent_at(0.0))
        _set(self, "end_tangent", self.tangent_at(length))

    def angle_at(self, s: float) -> float:
        return self.start_angle + self.sweep * (s / self.length)

    def point_at(self, s: float) -> Point2:
        psi = self.angle_at(s)
        return Vec2(self.center.x + self.radius * math.cos(psi),
                    self.center.y + self.radius * math.sin(psi))

    def tangent_at(self, s: float) -> Vec2:
        psi = self.angle_at(s)
        sign = 1.0 if self.sweep > 0 else -1.0
        return Vec2(-sign * math.sin(psi), sign * math.cos(psi))

    sweep_angle = property(lambda self: self.sweep)

    def reversed(self) -> "Arc":
        return Arc(self.center, self.radius,
                   turned_start_angle(self.start_angle, self.sweep), -self.sweep)


CurvePrimitive = Union[Segment, Arc]


def _primitive_extent(p: CurvePrimitive) -> float:
    a, b = p.start_point, p.end_point
    return max(abs(a.x), abs(a.y), abs(b.x), abs(b.y), p.length)


class PiecewiseCurve:
    """G1 chain of primitives, parameterized by arc length on [0, L]."""

    __slots__ = ("primitives", "breaks", "length", "_turn_breaks")

    def __init__(self, primitives, *, require_g1: bool = True):
        prims = list(primitives)
        if not prims:
            raise InvalidInput("curve needs at least one primitive")
        if require_g1:
            pos_tol = POS_REL * max(_primitive_extent(p) for p in prims)
            for prev, nxt in zip(prims, prims[1:]):
                gap = dist(prev.end_point, nxt.start_point)
                if gap > pos_tol:
                    raise InvalidInput(f"position gap {gap!r} at joint exceeds {pos_tol!r}")
                turn = oriented_angle(prev.end_tangent, nxt.start_tangent)
                if abs(turn) > ANG_TOL:
                    raise InvalidInput(f"tangent gap {turn!r} rad at joint")
        breaks = [0.0]
        turns = [0.0]
        for p in prims:
            breaks.append(breaks[-1] + p.length)
            turns.append(turns[-1] + p.sweep_angle)
        self.primitives = tuple(prims)
        self.breaks = tuple(breaks)
        self.length = breaks[-1]
        self._turn_breaks = tuple(turns)

    def _outside(self, lo, hi) -> bool:
        """True if [lo, hi] leaves [0, L] by more than the rounding slack,
        or either end is NaN."""
        slack = ROUND_REL * self.length
        return not (lo >= -slack and hi <= self.length + slack)

    def _locate(self, s: float) -> tuple[int, float]:
        if self._outside(s, s):
            raise OutOfRange(f"arc length {s!r} outside [0, {self.length!r}]")
        s = min(max(s, 0.0), self.length)
        i = min(bisect_right(self.breaks, s) - 1, len(self.primitives) - 1)
        return i, s - self.breaks[i]

    def evaluate_row(self, s: float) -> tuple[float, float, float, float, float]:
        """Point, unit tangent and signed curvature at arc length s, as
        plain floats (x, y, tx, ty, kappa).

        s is clipped to [0, L], and at an interior joint the right-hand
        primitive wins, so curvature jumps are sampled from the later piece.
        """
        i, local = self._locate(s)
        p = self.primitives[i]
        if isinstance(p, Arc):
            psi = p.start_angle + p.sweep * (local / p.length)
            sign = 1.0 if p.sweep > 0 else -1.0
            cos, sin = math.cos(psi), math.sin(psi)
            return (p.center.x + p.radius * cos, p.center.y + p.radius * sin,
                    -sign * sin, sign * cos, sign / p.radius)
        d = p.direction
        return p.start.x + d.x * local, p.start.y + d.y * local, d.x, d.y, 0.0

    def evaluate(self, s: float) -> tuple[Point2, Vec2, float]:
        """Point, unit tangent and signed curvature at arc length s:
        `evaluate_row`'s values as `Vec2`s."""
        x, y, tx, ty, kappa = self.evaluate_row(s)
        return Vec2(x, y), Vec2(tx, ty), kappa

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

    @property
    def point(self) -> Point2:
        return self._point

    def line(self, length: float) -> "PathBuilder":
        if length < 0.0:
            raise InvalidInput(f"negative segment length {length!r}")
        if length > 0.0:
            end = self._point + from_polar(self._heading, length)
            self._prims.append(Segment(self._point, end))
            self._point = end
        return self

    def arc(self, radius: float, sweep: float) -> "PathBuilder":
        if sweep == 0.0:
            return self
        # the center lies a quarter turn to the turning side of the heading
        side = 0.5 * math.pi if sweep > 0 else -0.5 * math.pi
        center = self._point + from_polar(self._heading + side, radius)
        self._prims.append(Arc(center, radius, principal_angle(self._heading - side), sweep))
        # the end point in chord form, so it carries the rounding of the
        # chord and not that of a far-away center
        chord = 2.0 * radius * math.sin(0.5 * abs(sweep))
        self._point = self._point + from_polar(self._heading + 0.5 * sweep, chord)
        self._heading = self._heading + sweep
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
    and are deliberately not re-wrapped.
    """
    phi0 = oriented_angle(inst.alpha, curve.start_tangent)
    return phi0 + curve.turning(s)


def max_curvature(curve: PiecewiseCurve) -> float:
    """Largest |curvature| over the chain; segments contribute zero."""
    best = 0.0
    for p in curve.primitives:
        if isinstance(p, Arc):
            best = max(best, 1.0 / p.radius)
    return best


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
    endpoint_a = dist(curve.start_point, inst.A)
    endpoint_b = dist(curve.end_point, inst.B)
    tangent_a = abs(oriented_angle(curve.start_tangent, inst.alpha))
    tangent_b = abs(oriented_angle(curve.end_tangent, inst.beta))
    curvature_ok = all(p.sweep_angle >= 0.0 for p in curve.primitives)
    phi0 = oriented_angle(inst.alpha, curve.start_tangent)
    phis = [phi0 + t for t in curve._turn_breaks]
    monotone = all(b - a >= -ANG_TOL for a, b in zip(phis, phis[1:]))
    range_ok = min(phis) >= -ANG_TOL and max(phis) <= inst.omega + ANG_TOL
    in_e = (endpoint_a <= pos_tol and endpoint_b <= pos_tol
            and tangent_a <= ANG_TOL and tangent_b <= ANG_TOL
            and curvature_ok and monotone and range_ok)
    return MembershipReport(
        endpoint_a_residual=endpoint_a,
        endpoint_b_residual=endpoint_b,
        tangent_a_residual=tangent_a,
        tangent_b_residual=tangent_b,
        curvature_nonnegative=curvature_ok,
        phi_monotone=monotone,
        phi_range_ok=range_ok,
        in_e=in_e,
    )


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
