"""Exact planar primitives: vectors, principal angles, rotations.

All angles are radians.  Oriented angles are reduced to the principal
range (-pi, pi]; equality of angles is meant strictly in that range,
not modulo 2*pi.
"""

from __future__ import annotations

import math

from .errors import InvalidInput

TWO_PI = 2.0 * math.pi

# Tolerances.  Every position or length is judged relative to the size of
# its own scene, with no absolute floor, so the accepted domain does not
# depend on the unit of length.
#: relative tolerance of a position or length, scaled by its scene's size
POS_REL = 1e-9
#: tolerance of an angle, in radians, and of a unit vector's norm
ANG_TOL = 1e-9
#: relative slack for the rounding of a few floating-point operations
ROUND_REL = 1e-12
#: largest accepted kappa = pos_tol / (min(OA, OB) sin omega), the scene's
#: position tolerance over the distance from the nearer endpoint to the far
#: tangent line; beyond it the tolerance swallows the turn
KAPPA_MAX = 1e-4


def principal_angle(value: float) -> float:
    """Wrap any real angle into the principal range (-pi, pi]."""
    if not math.isfinite(value):
        raise InvalidInput(f"angle must be finite, got {value!r}")
    wrapped = math.remainder(value, TWO_PI)
    if wrapped <= -math.pi:
        # remainder() lands on -pi for odd multiples of pi
        wrapped = math.pi
    return wrapped


class Frozen:
    """Base of the immutable value types.

    A subclass lists its fields in `__slots__` and sets each once in its
    `__init__`, through its slot's own setter (the `__set__` of the
    class's member descriptor) or `object.__setattr__`; any later
    assignment raises AttributeError.  Instances compare, hash, print and
    pickle by the subclass's `_fields`, its constructor's arguments;
    fields derived from them are left out.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: restoring the
        # slots one by one would assign to them
        return type(self), self._key()


class Vec2(Frozen):
    """Immutable 2D vector / point with finite components."""

    __slots__ = ("x", "y")
    _fields = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InvalidInput(f"non-finite components ({x!r}, {y!r})")
        # the slots' own setters: the hottest constructor skips the
        # attribute lookup of object.__setattr__
        _set_x(self, x)
        _set_y(self, y)

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __mul__(self, s: float) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def angle(self) -> float:
        """Direction angle in (-pi, pi] (atan2 convention)."""
        return math.atan2(self.y, self.x)


_set_x = Vec2.x.__set__
_set_y = Vec2.y.__set__

#: points and vectors share one representation
Point2 = Vec2


def rot90(u: Vec2) -> Vec2:
    """Rotate by +pi/2: (x, y) -> (-y, x).  Norm-preserving."""
    return Vec2(-u.y, u.x)


def dist(a: Vec2, b: Vec2) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def _require_unit(v: Vec2, name: str = "vector") -> None:
    n = v.norm()
    if abs(n - 1.0) > ANG_TOL:
        raise InvalidInput(f"{name} must be unit length, |v| = {n!r}")


def oriented_angle(u: Vec2, v: Vec2) -> float:
    """Signed angle in (-pi, pi] that rotates unit vector u onto unit v.

    Opposite vectors give +pi, never -pi.
    """
    _require_unit(u, "u")
    _require_unit(v, "v")
    return unit_turn(u, v)


def unit_turn(u: Vec2, v: Vec2) -> float:
    """`oriented_angle` without its unit checks, for vectors that are unit
    by construction: principal_angle(atan2(u x v, u . v)).  atan2 of the
    finite products of unit vectors is finite and within [-pi, pi], where
    principal_angle changes only -pi, to pi."""
    turn = math.atan2(u.x * v.y - u.y * v.x, u.x * v.x + u.y * v.y)
    return math.pi if turn <= -math.pi else turn


def line_intersection(p1: Point2, d1: Vec2, p2: Point2, d2: Vec2) -> Point2:
    """Intersection of the lines p1 + t*d1 and p2 + s*d2.

    Raises IllPosedAngle-grade InvalidInput when the directions are
    (anti)parallel.
    """
    den = d1.cross(d2)
    if abs(den) <= ANG_TOL * max(d1.norm() * d2.norm(), 1e-300):
        raise InvalidInput("lines are parallel; no unique intersection")
    t = (p2 - p1).cross(d2) / den
    return p1 + d1 * t
