"""Bounded-radius curve families used to probe the optimality theorem.

Two families live here:

* the two-arc-plus-segment curve of radius R (both arcs turn
  counterclockwise), admissible exactly for 0 < R <= R_a where R_a is
  the optimal radius; at the upper end it degenerates into the optimal
  arc+segment curve;
* composite curves segment/arc/segment/arc/segment whose two arcs split
  the turning angle in half, the family the optimality proof compares
  against.  A grid sweep over both families gives an empirical check of
  the min-max theorem.

Composite parameters are expressed in the instance's canonical frame
(`synthesis.canonical_frame`: arc first, the problem reversed and
mirrored when OA > OB), matching the closed-form certificates.  Every
curve returned here is grown in world coordinates from A along alpha by
`curves.PathBuilder` and closed on B by its `build_to`; a mirrored frame
only reverses the order of the composite's pieces.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .curves import PathBuilder, PiecewiseCurve
from .errors import InternalError, InvalidInput, RadiusNotAdmissible
from .geometry import ANG_TOL, ROUND_REL, dist, normalized, oriented_angle, rot90
from .instance import ProblemInstance
from .synthesis import CanonicalFrame, arc_radius, canonical_frame


def is_feasible_radius(inst: ProblemInstance, radius: float) -> bool:
    """True iff a curve of minimum turn radius `radius` is admissible,
    i.e. 0 < radius <= R_a (with relative rounding slack at the boundary)."""
    return 0.0 < radius <= arc_radius(inst) * (1.0 + ROUND_REL)


class DubinsCurve(NamedTuple):
    radius: float
    curve: PiecewiseCurve


def dubins_curve(inst: ProblemInstance, radius: float) -> DubinsCurve:
    """The admissible two-arc-plus-segment curve of turn radius `radius`.

    Both arcs turn counterclockwise: one leaves A tangent to the line
    (OA), one reaches B tangent to (OB); the connecting segment is their
    common external tangent, parallel to the line of arc centers.  At
    radius = R_a one arc degenerates and the result equals the optimal
    curve; beyond R_a no such admissible curve exists.
    """
    if radius <= 0.0 or not math.isfinite(radius):
        raise InvalidInput(f"radius must be positive, got {radius!r}")
    ra = arc_radius(inst)
    if radius > ra * (1.0 + ROUND_REL):
        raise RadiusNotAdmissible(f"radius {radius!r} exceeds the limit {ra!r}")
    r = min(radius, ra)

    center_a = inst.A + rot90(inst.alpha) * r
    center_b = inst.B + rot90(inst.beta) * r
    gap = dist(center_a, center_b)
    tiny = ROUND_REL * inst.diameter
    builder = PathBuilder(inst.A, inst.alpha.angle())
    if gap <= tiny:
        # symmetric limit: the two arcs close into one
        builder.arc(r, inst.omega)
    else:
        # the connecting segment is the common external tangent: parallel
        # to the line of centers and as long as their distance
        sweep1 = oriented_angle(inst.alpha, normalized(center_b - center_a))
        if sweep1 < -ANG_TOL or sweep1 > inst.omega + ANG_TOL:
            raise InternalError(f"tangent construction left [0, omega]: {sweep1!r}")
        sweep1 = min(max(sweep1, 0.0), inst.omega)
        sweep2 = inst.omega - sweep1
        # an arc is dropped only when its turn and its length are both
        # negligible: a short arc that still turns carries the heading
        builder.arc(r, sweep1 if sweep1 > ANG_TOL or sweep1 * r > tiny else 0.0).line(gap)
        builder.arc(r, sweep2 if sweep2 > ANG_TOL or sweep2 * r > tiny else 0.0)
    return DubinsCurve(radius=radius, curve=builder.build_to(inst.B, inst.pos_tol))


# ---------------------------------------------------------------------------
# composite family (segment d1, arc R1, segment d2, arc R2, segment d3)

def _composite_params(frame: CanonicalFrame, r1: float, r2: float, tol: float):
    """Segment lengths (d1, d2, d3) closing the composite, or None.

    The endpoint condition is a rank-2 linear system in three segment
    lengths; its kernel direction has signs (+, -, +), so the minimal
    total-length solution with d1, d3 >= 0 is feasible iff its d2 is.
    """
    om = frame.omega
    s1 = 0.5 * om
    sin1, cos1 = math.sin(s1), math.cos(s1)
    sino, coso = math.sin(om), math.cos(om)
    rx = frame.xb - (r1 * sin1 + r2 * (sino - sin1))
    ry = frame.yb - (r1 * (1.0 - cos1) + r2 * (cos1 - coso))
    p2 = ry / sin1
    p1 = rx - p2 * cos1
    k1 = math.sin(om - s1) / sin1
    k2 = -sino / sin1
    t = max(0.0, -p1 / k1)
    d1 = p1 + k1 * t
    d2 = p2 + k2 * t
    d3 = t
    if d2 < -tol:
        return None
    # lengths within tol of zero are rounding noise: a zero-length segment
    # cannot be built, so snap them to exactly 0
    return (d1 if d1 > tol else 0.0), (d2 if d2 > tol else 0.0), (d3 if d3 > tol else 0.0)


class CompositeCurve(NamedTuple):
    """Five-piece competitor curve, parameters in arc-first convention."""

    r1: float
    r2: float
    d1: float
    d2: float
    d3: float
    curve: PiecewiseCurve


def composite_solve(inst: ProblemInstance, r1: float, r2: float) -> CompositeCurve | None:
    """Close the composite family for the given arc radii, if possible.

    Each arc sweeps half the turning angle.  Returns None when no
    admissible composite exists (a segment length would have to be
    negative).
    """
    if not (r1 > 0.0 and r2 > 0.0 and math.isfinite(r1) and math.isfinite(r2)):
        raise InvalidInput("arc radii must be positive and finite")
    frame = canonical_frame(inst)
    tol = inst.pos_tol
    params = _composite_params(frame, r1, r2, tol)
    if params is None:
        return None
    d1, d2, d3 = params
    s1 = 0.5 * frame.omega
    s2 = frame.omega - s1

    builder = PathBuilder(inst.A, inst.alpha.angle())
    if frame.mirrored:
        # the frame's reflection reverses the chain: from A it runs d3 first
        builder.line(d3).arc(r2, s2).line(d2).arc(r1, s1).line(d1)
    else:
        builder.line(d1).arc(r1, s1).line(d2).arc(r2, s2).line(d3)
    curve = builder.build_to(inst.B, tol)
    return CompositeCurve(r1=r1, r2=r2, d1=d1, d2=d2, d3=d3, curve=curve)


def _p2_params(frame: CanonicalFrame, r: float, tol: float):
    """Segment lengths (d1, d3) for the single-arc two-segment family."""
    om = frame.omega
    sino, coso = math.sin(om), math.cos(om)
    d3 = (frame.yb - r * (1.0 - coso)) / sino
    d1 = frame.xb - r * sino - d3 * coso
    if d1 < -tol or d3 < -tol:
        return None
    return max(d1, 0.0), max(d3, 0.0)


class SweepReport(NamedTuple):
    """Outcome of the empirical min-max check over the curve families."""

    min_max_curvature: float
    argmin: dict
    margin: float
    grid_size: tuple[int, int]
    feasible_count: int
    ra: float

    def as_dict(self) -> dict:
        return {
            "minMaxCurvature": self.min_max_curvature,
            "argmin": self.argmin,
            "margin": self.margin,
            "gridSize": [self.grid_size[0], self.grid_size[1]],
        }


#: relative rounding bound of the frontier model, 2**-45 (256 units of
#: roundoff).  Every quantity the model or the per-cell predicate computes
#: lies within about 20 roundings of its float inputs, and each rounding
#: is at most one unit of roundoff of a term no larger than the magnitude
#: bound of `_CompositeGrid`.
_FRONTIER_ROUNDING = 2.0**-45
#: widest frontier window, in columns either side of the root; a sweep whose
#: window would be wider (a slope near zero) evaluates every cell
_FRONTIER_CAP = 8


class _CompositeGrid:
    """Feasibility of the composite cells (radii[i], radii[j]).

    The cell test in `scan` is `_composite_params`'s test `d2 >= -tol`
    unrolled, with the constants hoisted; every remaining operation keeps
    its operands and association, so a cell is decided bit for bit as
    there.

    With r1 fixed, p2 and the unclipped t are affine in r2.  Since k2 =
    -sin(omega) / sin(omega/2) < 0, the model d2 = p2 + k2 max(0, t) is
    min(p2, p2 + k2 t), the lesser of two affine pieces, and both fall
    as r2 grows: with c, s = cos, sin of omega/2, their slopes are
    -(1 - c)(1 + 2c)/s and -tan(omega/4) in closed form.  So d2 falls
    too, and in the model each row is feasible on a prefix of columns,
    up to the smaller of the two roots p2 = -tol and p2 + k2 t = -tol.
    A computed cell is within the rounding bound of the model (max(0, t)
    moves no value by more than t's own error), so its verdict can
    differ from the model's only where the model is within that bound of
    -tol: within `half_width` columns of the smaller root, a width that
    covers the error of the computed root column x as well.  Below that
    root both pieces lie above -tol, and above it the falling piece of
    the smaller root already lies below, each by more than the bound
    outside the window.  One window per row, [ceil(x - w), floor(x + w)]
    with w = `half_width`, is therefore all that `scan` tests: ceil and
    floor are exact, so every column below it is feasible and every
    column above it is not.
    """

    def __init__(self, frame: CanonicalFrame, radii: list[float], tol: float):
        om = frame.omega
        self.sin1, self.cos1 = math.sin(0.5 * om), math.cos(0.5 * om)
        sino, coso = math.sin(om), math.cos(om)
        self.one_cos1 = 1.0 - self.cos1
        self.k1 = math.sin(om - 0.5 * om) / self.sin1
        self.k2 = -sino / self.sin1
        self.xb, self.yb = frame.xb, frame.yb
        self.tol = tol
        self.radii = radii
        self.sb, self.cb = sb, cb = sino - self.sin1, self.cos1 - coso

        # d(p2)/d(r2), d(t)/d(r2) and d(d2)/d(r2) where t > 0: the same in
        # every row, and so is the window's width
        self.p_slope = -cb / self.sin1
        self.t_slope = (sb + self.p_slope * self.cos1) / self.k1
        self.d_slope = self.p_slope + self.k2 * self.t_slope
        # a bound on every term of p2, t and d2 over the grid
        r_max = radii[-1]
        p_mag = (abs(self.yb) + r_max * (self.one_cos1 + abs(cb))) / self.sin1
        t_mag = (abs(self.xb) + r_max * (self.sin1 + abs(sb)) + p_mag * abs(self.cos1)) \
            / abs(self.k1)
        magnitude = p_mag + abs(self.k2) * t_mag + tol
        self.first = radii[0]
        self.spacing = (r_max - self.first) / (len(radii) - 1)
        # A cell's computed value is within _FRONTIER_ROUNDING * magnitude
        # of the model's, so its predicate can differ from the model's only
        # within that / |slope| of a root in r2; the root itself, the grid's
        # deviation from first + j * spacing and c -/+ w carry errors of the
        # same order and of _FRONTIER_ROUNDING * r_max.  The prefix needs
        # both slopes negative as computed, not only in closed form.
        self.half_width = None
        if all(a < b for a, b in zip(radii, radii[1:])) and \
                self.p_slope < 0.0 and self.d_slope < 0.0:
            width = max(_FRONTIER_ROUNDING * (magnitude / abs(slope) + r_max) / self.spacing
                        for slope in (self.p_slope, self.d_slope))
            if width <= _FRONTIER_CAP:
                self.half_width = width

    def scan(self, rows: range,
             runs: list[tuple[int, int]] | None = None) -> tuple[int, float, int]:
        """(feasible cells, least score, first row reaching it) over `rows`;
        the row is -1 when no cell is feasible.

        The cell (i, j) scores 1/min(r1, r2) = 1/radii[min(i, j)], which
        never increases along a row, so a row's least score is at its last
        feasible column: each row keeps only its count and that column.
        The radii never decrease, so a row can lower the least score only
        where that column index exceeds every earlier row's.  When `runs`
        is a list, the feasible columns of the rows are appended to it as
        runs (start, stop); pass it one row at a time.  A grid with no
        frontier window (`half_width` is None) tests every column of every
        row.
        """
        radii = self.radii
        n = len(radii)
        xb, yb, sin1, cos1 = self.xb, self.yb, self.sin1, self.cos1
        one_cos1, k1, k2, tol = self.one_cos1, self.k1, self.k2, self.tol
        sb, cb = self.sb, self.cb
        neg_tol, neg_k1 = -tol, -k1
        w = self.half_width
        first, spacing = self.first, self.spacing
        neg_p, neg_d = -self.p_slope, -self.d_slope
        ceil = math.ceil
        feasible = 0
        best = math.inf
        best_row = reach = -1
        for i in rows:
            r1 = radii[i]
            ax, ay = r1 * sin1, r1 * one_cos1
            if w is None:
                lo, top = 0, n - 1
            else:
                # the row's smaller root, as a column x; every column below
                # ceil(x - w) is feasible, and the window ends at x + w
                p0 = (yb - ay) / sin1
                root_p = (p0 + tol) / neg_p
                root_d = (p0 + k2 * (((xb - ax) - p0 * cos1) / neg_k1) + tol) / neg_d
                x = ((root_d if root_d < root_p else root_p) - first) / spacing
                lo = x - w
                lo = 0 if lo <= 0.0 else n if lo >= n else ceil(lo)
                top = x + w
                feasible += lo
                if lo and runs is not None:
                    runs.append((0, lo))
            last = lo - 1
            j = lo
            while j <= top and j < n:
                # _composite_params' test d2 >= -tol, operand for operand
                r2 = radii[j]
                p2 = (yb - (ay + r2 * cb)) / sin1
                t = -((xb - (ax + r2 * sb)) - p2 * cos1) / k1
                if not t > 0.0:
                    t = 0.0
                if not p2 + k2 * t < neg_tol:
                    feasible += 1
                    last = j
                    if runs is not None:
                        runs.append((j, j + 1))
                j += 1
            m = i if i < last else last
            if m > reach:
                reach = m
                score = 1.0 / radii[m]
                if score < best:
                    best = score
                    best_row = i
        return feasible, best, best_row


def _first_best(i: int, runs: list[tuple[int, int]], radii: list[float]) -> int:
    """Column of row i's first feasible cell of least max curvature.

    The cell (i, j) scores 1/min(r1, r2) = 1/radii[min(i, j)], which never
    increases along the row and is constant from column i on: the least
    score is at the first feasible j >= i, or else at the last feasible
    j < i.  An earlier column ties with it only where 1/r repeats along
    the grid."""
    j = next((max(start, i) for start, stop in runs if stop > i), runs[-1][1] - 1)
    m = min(i, j)
    while m > 0 and 1.0 / radii[m - 1] == 1.0 / radii[m]:
        m -= 1
    return next(max(start, m) for start, stop in runs if stop > m)


def family_sweep(inst: ProblemInstance, grid_n: int = 60,
                 r_lo: float = 0.2, r_hi: float = 3.0) -> SweepReport:
    """Grid-sweep both curve families and report the best max curvature.

    Every admissible composite and single-arc curve on an n x n radius
    grid spanning [r_lo, r_hi] * R_a is scored by its max curvature
    1/min(R1, R2); the report carries the minimum, the parameters
    achieving it and the margin against the theoretical bound 1/R_a.
    Raises RadiusNotAdmissible when the window lies above R_a and no
    curve on it is admissible.

    The composite cells are not all evaluated.  With R1 fixed, d2 is
    the lesser of two affine pieces in R2 whose closed-form slopes,
    -(1 - c)(1 + 2c)/s and -tan(omega/4) (c, s = cos, sin of omega/2),
    are both negative, so each row is feasible on a prefix of columns
    ending near the smaller of the two roots.  One loop over the rows
    (`_CompositeGrid.scan`) evaluates the per-cell predicate, exactly as
    a full loop would, only on the columns within a rounding bound of
    that root; the columns before them are feasible and those after
    them are not.  Each row keeps its feasible count and its last
    feasible column, which fixes its least score; the first cell
    reaching the overall least score is then found in the one row that
    first reaches it.  The count, the minimum and that cell, first in
    row-major order, are therefore those of the full n x n loop, bit for
    bit.  A grid whose radii do not strictly increase, whose computed
    slopes are not both negative, or whose slopes are so close to zero
    that the window would exceed `_FRONTIER_CAP` columns, is evaluated
    cell by cell with the same predicate.
    """
    if grid_n < 2:
        raise InvalidInput(f"grid size must be >= 2, got {grid_n!r}")
    if not (0.0 < r_lo < r_hi and math.isfinite(r_hi)):
        raise InvalidInput("need 0 < r_lo < r_hi, both finite")
    frame = canonical_frame(inst)
    ra = frame.ra
    tol = inst.pos_tol
    radii = [ra * (r_lo + (r_hi - r_lo) * i / (grid_n - 1)) for i in range(grid_n)]
    grid = _CompositeGrid(frame, radii, tol)
    feasible, best, i = grid.scan(range(grid_n))
    argmin: dict = {}
    if i >= 0:
        runs: list[tuple[int, int]] = []
        grid.scan(range(i, i + 1), runs)
        r1, r2 = radii[i], radii[_first_best(i, runs, radii)]
        d1, d2, d3 = _composite_params(frame, r1, r2, tol)
        argmin = {"family": "p4", "R1": r1, "R2": r2, "d1": d1, "d2": d2, "d3": d3}
    # _p2_params' test, with sin(omega) and cos(omega) hoisted
    sino, coso = math.sin(frame.omega), math.cos(frame.omega)
    one_coso = 1.0 - coso
    xb, yb, neg_tol = frame.xb, frame.yb, -tol
    p2_radius = None
    for r in radii:
        d3 = (yb - r * one_coso) / sino
        d1 = xb - r * sino - d3 * coso
        if d1 < neg_tol or d3 < neg_tol:
            continue
        feasible += 1
        score = 1.0 / r
        if score < best:
            best = score
            p2_radius = r
    if p2_radius is not None:
        d1, d3 = _p2_params(frame, p2_radius, tol)
        argmin = {"family": "p2", "R1": p2_radius, "R2": p2_radius,
                  "d1": d1, "d2": 0.0, "d3": d3}
    if not math.isfinite(best):
        if r_lo > 1.0:
            raise RadiusNotAdmissible(
                f"no admissible curve with radii in [{r_lo!r}, {r_hi!r}] * R_a: "
                f"every one exceeds R_a = {ra!r}")
        raise InternalError("no admissible curve found on the sweep grid")
    return SweepReport(
        min_max_curvature=best,
        argmin=argmin,
        margin=best - 1.0 / ra,
        grid_size=(grid_n, grid_n),
        feasible_count=feasible,
        ra=ra,
    )
