"""Validated boundary data for the curve-synthesis problem.

A problem instance is three pairwise distinct points O, A, B.  The unit
tangent at A points from A towards O, the unit tangent at B points from
O towards B, and the turning angle omega between them must stand clear
of the scene's position tolerance: kappa = pos_tol / (min(OA, OB) sin
omega) at most KAPPA_MAX.  Data whose turning angle is negative is
normalized by swapping A and B (traversing the sought curve backwards);
the instance remembers this in its ``reversed`` flag.
"""

from __future__ import annotations

import math

from .errors import DegenerateInput, IllPosedAngle, InvalidInput, NoAdmissibleCurve
from .geometry import (
    ANG_TOL,
    KAPPA_MAX,
    POS_REL,
    Frozen,
    Point2,
    Vec2,
    _require_unit,
    dist,
    line_intersection,
    oriented_angle,
)


class ProblemInstance(Frozen):
    """Normalized boundary data (O, A, B, alpha, beta, Omega).

    The leg lengths `oa` = |OA| and `ob` = |OB|, the scene `diameter`
    (the largest pairwise distance among O, A, B) and the scene's position
    tolerance `pos_tol` (POS_REL times the diameter) are computed once, at
    construction.  The constructor checks that alpha and beta are unit
    vectors within ANG_TOL; `make_instance` builds them unit, by dividing
    each leg by its length.  Code that reads an instance's tangents may
    therefore take their angles without checking them again.
    """

    __slots__ = ("A", "B", "O", "alpha", "beta", "omega", "symmetric", "reversed",
                 "oa", "ob", "diameter", "pos_tol")
    _fields = ("A", "B", "O", "alpha", "beta", "omega", "symmetric", "reversed")

    def __init__(self, A: Point2, B: Point2, O: Point2, alpha: Vec2, beta: Vec2,
                 omega: float, symmetric: bool, reversed: bool) -> None:
        _require_unit(alpha, "alpha")
        _require_unit(beta, "beta")
        self._store((A, B, O, alpha, beta, omega, symmetric, reversed),
                    dist(O, A), dist(O, B), dist(A, B))

    def _store(self, fields: tuple, oa: float, ob: float, ab: float) -> None:
        """Set the constructor's fields and the data derived from the leg
        lengths oa = |OA|, ob = |OB| and ab = |AB|, through the slots' own
        setters."""
        diameter = max(oa, ob, ab)
        for set_slot, value in zip(_SLOT_SETTERS, (*fields, oa, ob, diameter,
                                                   POS_REL * diameter)):
            set_slot(self, value)


_SLOT_SETTERS = tuple(ProblemInstance.__dict__[name].__set__
                      for name in ProblemInstance.__slots__)


def make_instance(O: Point2, A: Point2, B: Point2) -> ProblemInstance:
    """Build an instance from the apex O and the endpoints A, B.

    When the raw turning angle is negative the traversal is reversed
    (A and B swapped, both tangents negated) so that the stored angle
    is always in (0, pi); the ``reversed`` flag records the swap.
    """
    # each distance once; |AB| does not depend on the order of A and B
    oa, ob, ab = dist(O, A), dist(O, B), dist(A, B)
    diam = max(oa, ob, ab)
    if diam == 0.0:
        raise DegenerateInput("O, A, B all coincide")
    eps = POS_REL * diam
    if oa <= eps or ob <= eps or ab <= eps:
        raise DegenerateInput("O, A, B must be pairwise distinct")

    # normalized(O - A) and normalized(B - O): their norms are oa and ob
    alpha = Vec2((O.x - A.x) / oa, (O.y - A.y) / oa)
    beta = Vec2((B.x - O.x) / ob, (B.y - O.y) / ob)
    omega = oriented_angle(alpha, beta)
    # kappa <= KAPPA_MAX, tested without a division so that collinear data
    # (sin omega = 0) fails it too
    reach = min(oa, ob) * abs(alpha.x * beta.y - alpha.y * beta.x)
    if not eps <= KAPPA_MAX * reach:
        kappa = eps / reach if reach > 0.0 else math.inf
        raise IllPosedAngle(f"turning angle {omega!r} is lost in the scene's tolerance: kappa = "
                            f"pos_tol / (min(OA, OB) sin omega) = {kappa!r} exceeds "
                            f"KAPPA_MAX = {KAPPA_MAX!r}")

    rev = omega < 0.0
    if rev:
        A, B = B, A
        alpha, beta = -beta, -alpha
        omega = -omega
        oa, ob = ob, oa
    symmetric = abs(oa - ob) <= eps
    inst = object.__new__(ProblemInstance)
    inst._store((A, B, O, alpha, beta, omega, symmetric, rev), oa, ob, ab)
    return inst


def instance_from_tangents(A: Point2, B: Point2, alpha: Vec2, beta: Vec2) -> ProblemInstance:
    """Recover O as the intersection of the two tangent lines.

    With AO = u0*alpha and OB = v0*beta, both u0 and v0 must be strictly
    positive, otherwise no admissible curve exists for this data.
    """
    if abs(alpha.norm() - 1.0) > ANG_TOL or abs(beta.norm() - 1.0) > ANG_TOL:
        raise InvalidInput("alpha and beta must be unit vectors")
    if abs(alpha.cross(beta)) <= ANG_TOL:
        raise IllPosedAngle("tangent lines are parallel")
    O = line_intersection(A, alpha, B, beta)
    u0 = (O - A).dot(alpha)
    v0 = (B - O).dot(beta)
    scale = max(dist(A, B), dist(A, O), dist(B, O))
    if u0 <= POS_REL * scale or v0 <= POS_REL * scale:
        raise NoAdmissibleCurve(
            f"tangent orientation admits no curve (u0={u0!r}, v0={v0!r})"
        )
    return make_instance(O, A, B)


# ---------------------------------------------------------------------------
# JSON schema: {"A":[x,y],"B":[x,y],"O":[x,y]}
#          or  {"A":[x,y],"alpha":[x,y],"B":[x,y],"beta":[x,y]}

def point_from_json(obj, key: str) -> Point2:
    """The [x, y] pair at obj[key]; booleans are not numbers here."""
    val = obj.get(key)
    if isinstance(val, (list, tuple)) and len(val) == 2:
        x, y = val
        if (isinstance(x, (int, float)) and isinstance(y, (int, float))
                and not isinstance(x, bool) and not isinstance(y, bool)):
            return Vec2(float(x), float(y))
    raise InvalidInput(f"field {key!r} must be a pair of numbers")


def instance_from_json(obj: dict) -> ProblemInstance:
    """Parse the instance schema; exactly one of "O" / ("alpha","beta")."""
    if not isinstance(obj, dict):
        raise InvalidInput("instance JSON must be an object")
    has_o = "O" in obj
    has_tangents = "alpha" in obj or "beta" in obj
    if has_o == has_tangents:
        raise InvalidInput('exactly one of "O" or ("alpha","beta") must be present')
    A = point_from_json(obj, "A")
    B = point_from_json(obj, "B")
    if has_o:
        return make_instance(point_from_json(obj, "O"), A, B)
    if "alpha" not in obj or "beta" not in obj:
        raise InvalidInput('both "alpha" and "beta" are required')
    return instance_from_tangents(A, B, point_from_json(obj, "alpha"),
                                  point_from_json(obj, "beta"))


def instance_to_json(inst: ProblemInstance) -> dict:
    return {
        "A": [inst.A.x, inst.A.y],
        "B": [inst.B.x, inst.B.y],
        "O": [inst.O.x, inst.O.y],
    }
