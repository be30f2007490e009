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
(arc first, the problem reversed and mirrored when OA > OB, as
`synthesis.frame_mirrored` decides), matching the closed-form
certificates; `_closing` records what the closing formulas read of
that frame.  Every curve returned here is grown in world coordinates
from A along alpha by `curves.PathBuilder` and closed on B by its
`build_to`; a mirrored frame only reverses the order of the composite's
pieces.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterator, NamedTuple

from .curves import PathBuilder, PiecewiseCurve
from .errors import InternalError, InvalidInput, RadiusNotAdmissible
from .geometry import ANG_TOL, ROUND_REL, principal_angle
from .instance import ProblemInstance
from .synthesis import arc_radius, frame_mirrored


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

    # the arc centers, A + r rot90(alpha) and B + r rot90(beta), and the
    # unit vector between them, normalized(center_b - center_a), in floats
    a, alpha, b, beta = inst.A, inst.alpha, inst.B, inst.beta
    cax, cay = a.x - alpha.y * r, a.y + alpha.x * r
    cbx, cby = b.x - beta.y * r, b.y + beta.x * r
    gap = math.hypot(cax - cbx, cay - cby)
    tiny = ROUND_REL * inst.diameter
    builder = PathBuilder(inst.A, inst.alpha.angle())
    if gap <= tiny:
        # symmetric limit: the two arcs close into one
        builder.arc(r, inst.omega)
    else:
        # the connecting segment is the common external tangent: parallel
        # to the line of centers and as long as their distance; sweep1 is
        # unit_turn(alpha, u) for the unit u along it, in floats
        ux, uy = (cbx - cax) / gap, (cby - cay) / gap
        sweep1 = principal_angle(math.atan2(alpha.x * uy - alpha.y * ux,
                                            alpha.x * ux + alpha.y * uy))
        if sweep1 < -ANG_TOL or sweep1 > inst.omega + ANG_TOL:
            raise InternalError(f"tangent construction left [0, omega]: {sweep1!r}")
        sweep1 = min(max(sweep1, 0.0), inst.omega)
        sweep2 = inst.omega - sweep1
        # an arc is dropped only when its turn and its length are both
        # negligible: a short arc that still turns carries the heading
        builder.arc(r, sweep1 if sweep1 > ANG_TOL or sweep1 * r > tiny else 0.0).line(gap)
        builder.arc(r, sweep2 if sweep2 > ANG_TOL or sweep2 * r > tiny else 0.0)
    return DubinsCurve(radius, builder.build_to(inst.B, inst.pos_tol))


# ---------------------------------------------------------------------------
# composite family (segment d1, arc R1, segment d2, arc R2, segment d3)

def _closing(inst: ProblemInstance, ra: float) -> tuple[float, ...]:
    """What the closing formulas `_composite_params` and `_p2_params` read
    of the instance's canonical frame, computed once from the instance and
    its optimal radius ra and passed in: (xb, yb, sin1, cos1, sino, coso,
    1 - cos1, sino - sin1, cos1 - coso, k2), with (xb, yb) the far
    endpoint in the frame, sin1, cos1 those of omega/2, sino, coso those
    of omega, and k2 the rate of d2 along the kernel direction, per unit
    of d3.  A plain tuple: it unpacks faster than a named one."""
    om = inst.omega
    seg = abs(inst.oa - inst.ob)
    s1 = 0.5 * om
    sin1, cos1 = math.sin(s1), math.cos(s1)
    sino, coso = math.sin(om), math.cos(om)
    return (ra * sino + seg * coso, ra * (1.0 - coso) + seg * sino, sin1, cos1, sino, coso,
            1.0 - cos1, sino - sin1, cos1 - coso, -sino / sin1)


def _composite_params(closing: tuple, r1: float, r2: float, tol: float):
    """Segment lengths (d1, d2, d3) closing the composite, or None.

    The endpoint condition is a rank-2 linear system in three segment
    lengths; its kernel direction is (1, k2, 1) with k2 = -2 cos(omega/2)
    < 0 (the arcs split omega in half, so the directions of d1 and d3 are
    mirror images about that of d2), and the minimal total-length
    solution with d1, d3 >= 0 is feasible iff its d2 is.
    """
    xb, yb, sin1, cos1, _, _, one_cos1, sb, cb, k2 = closing
    rx = xb - (r1 * sin1 + r2 * sb)
    ry = yb - (r1 * one_cos1 + r2 * cb)
    p2 = ry / sin1
    p1 = rx - p2 * cos1
    t = -p1 if p1 < 0.0 else 0.0  # max(0.0, -p1)
    d2 = p2 + k2 * t
    if d2 < -tol:
        return None
    d1 = p1 + t
    d3 = t
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
    tol = inst.pos_tol
    params = _composite_params(_closing(inst, arc_radius(inst)), r1, r2, tol)
    if params is None:
        return None
    d1, d2, d3 = params
    s1 = 0.5 * inst.omega
    s2 = inst.omega - s1

    builder = PathBuilder(inst.A, inst.alpha.angle())
    if frame_mirrored(inst):
        # the frame's reflection reverses the chain: from A it runs d3 first
        builder.line(d3).arc(r2, s2).line(d2).arc(r1, s1).line(d1)
    else:
        builder.line(d1).arc(r1, s1).line(d2).arc(r2, s2).line(d3)
    curve = builder.build_to(inst.B, tol)
    return CompositeCurve(r1, r2, d1, d2, d3, curve)


def _p2_params(closing: tuple, r: float, tol: float):
    """Segment lengths (d1, d3) for the single-arc two-segment family."""
    xb, yb, _, _, sino, coso, _, _, _, _ = closing
    d3 = (yb - r * (1.0 - coso)) / sino
    d1 = xb - r * sino - d3 * coso
    if d1 < -tol or d3 < -tol:
        return None
    return max(d1, 0.0), max(d3, 0.0)


class SweepReport:
    """Outcome of the empirical min-max check over the curve families.

    `feasible_count`, the number of admissible curves on the grid, is
    counted by `count` the first time it is read and kept from then on;
    `as_dict`, and so the CLI, never reads it.
    """

    def __init__(self, min_max_curvature: float, argmin: dict, margin: float,
                 grid_size: tuple[int, int], ra: float, count: Callable[[], int]) -> None:
        self.min_max_curvature = min_max_curvature
        self.argmin = argmin
        self.margin = margin
        self.grid_size = grid_size
        self.ra = ra
        self._count = count

    @functools.cached_property
    def feasible_count(self) -> int:
        return self._count()

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
#: widest frontier window, in columns either side of the root
_FRONTIER_CAP = 8
#: largest sweep grid; the closed form's conditions were checked on the
#: accepted domain up to here
MAX_GRID = 10**6
#: `_CompositeGrid`'s InternalError where an argument's conditions fail as
#: computed: on the accepted domain, at grids up to MAX_GRID, a bug
_UNPROVEN = "the sweep's {} argument does not hold on this grid"


def _prefix_end(x: float, w: float, n: int, feasible: Callable[[int], bool]) -> int:
    """Last of the indices 0..n-1 that passes `feasible`, or -1, where every
    index below ceil(x - w) passes and every index above floor(x + w) fails:
    only the indices between are tested, from the top."""
    lo = math.ceil(x - w)
    k = min(math.floor(x + w), n - 1)
    while k >= lo and k >= 0 and not feasible(k):
        k -= 1
    return max(k, -1)


class _CompositeGrid:
    """The sweep's radius grid: composite cells (radii[i], radii[j]) and
    single-arc radii radii[i], with radii[i] = `radius(i)`.

    The composite cell test is `_composite_params`'s test d2 >= -tol.
    With c, s = cos, sin of omega/2, p2 and the unclipped t are affine in
    (r1, r2), and since k2 = -sin(omega) / s < 0, the model d2 = p2 + k2
    max(0, t) is min(p2, p2 + k2 t), the lesser of two affine pieces.
    Both fall in r2, with slopes -(1 - c)(1 + 2c)/s and -tan(omega/4),
    and both fall in r1, with slopes -tan(omega/4) and -(1 - c)(1 + 2c)/s
    (t rises in r1 at tan(omega/4), and k2 = -2c).  All four are checked
    negative as computed.  A computed cell is within the rounding bound
    of the model (max(0, t) moves no value by more than t's own error),
    so its verdict can differ from the model's only where the model is
    within that bound of -tol.

    Row argument (`scan`, which counts the cells).  In each row the model
    is feasible on a prefix of columns, up to the smaller of the two roots
    p2 = -tol and p2 + k2 t = -tol.  Below that root both pieces lie above
    -tol, and above it the falling piece of the smaller root already lies
    below, each by more than the bound outside `half_width` columns of the
    root, a width that covers the error of the computed root column x as
    well.  One window per row, [ceil(x - w), floor(x + w)] with w =
    `half_width`, is therefore all that `scan` tests, each cell by
    `_composite_params`: ceil and floor are exact, so every column below
    it is feasible and every column above it is not.

    Diagonal argument (`closed_form`).  On the diagonal r1 = r2 = r both
    pieces fall at -2s and d2 vanishes at r = R_a, so their smaller root,
    d2 = -tol, is R_a + tol / (2s) in exact arithmetic.  The same kind of
    window at that root, w wide, decides every diagonal cell but those
    inside it, which are tested; let m be the last feasible one.  In the
    model every cell (i, j) lies at or below the diagonal cell of k =
    min(i, j), so no cell with k above the window is feasible.  A cell
    off the diagonal with k at or above the window's start lies at least
    s_min * spacing below (k, k), s_min the shallowest of the four
    slopes, and (k, k) lies at most 2 sigma w spacing above -tol, sigma
    the steeper diagonal slope (w also covers the computed root's error).
    Where 2 (sigma w + rounding * magnitude / spacing) < s_min, as
    computed, every such cell lies below -tol by more than the rounding
    bound and is infeasible, so every feasible cell has k <= m.  The same
    condition gives w < 1/4, so the window holds at most one cell, and
    spacing > 4 * rounding * r_max, far more than the few ulps of r_max
    each radius is rounded by: the radii strictly increase and their
    reciprocals differ.  The least score 1/min(r1, r2) is then 1/radii[m],
    and the first cell in row-major order reaching it is (m, m): every
    earlier row, and every earlier column of row m, has a smaller k.

    Single-arc argument (`closed_form` and `singles`).  The single arc's
    d1 and d3 both fall in r at -tan(omega/2), and their smaller root is
    R_a + tol / tan(omega/2); the same window there
    (`_single_window`), no wider than `_FRONTIER_CAP` (which also keeps
    the reciprocals apart), ends the prefix of admissible radii, whose
    last is the first of least score.

    Where an argument's conditions fail as computed, the method that
    relies on it raises InternalError.
    """

    def __init__(self, inst: ProblemInstance, tol: float, grid_n: int,
                 r_lo: float, r_hi: float):
        self.tol, self.n = tol, grid_n
        self.r_lo, self.r_hi = r_lo, r_hi
        self.ra = ra = arc_radius(inst)
        self.closing = closing = _closing(inst, ra)
        xb, yb, sin1, cos1, _, _, one_cos1, sb, cb, k2 = closing

        # d(p2)/d(r2), d(t)/d(r2) and d(d2)/d(r2) where t > 0, the same in
        # every row, and so is the window's width; then the same in r1
        self.p_slope = p_slope = -cb / sin1
        self.d_slope = p_slope + k2 * (sb + p_slope * cos1)
        self.p_slope1 = p_slope1 = -one_cos1 / sin1
        self.d_slope1 = p_slope1 + k2 * (sin1 + p_slope1 * cos1)
        # a bound on every term of p2, t and d2 over the grid
        self.first, self.r_max = r_first, r_max = self.radius(0), self.radius(grid_n - 1)
        p_mag = (abs(yb) + r_max * (one_cos1 + abs(cb))) / sin1
        t_mag = abs(xb) + r_max * (sin1 + abs(sb)) + p_mag * abs(cos1)
        self.magnitude = p_mag + abs(k2) * t_mag + tol
        self.spacing = (r_max - r_first) / (grid_n - 1)
        # each radius is a few ulps of r_max from its exact value, so a
        # spacing above the rounding bound shows that the radii strictly
        # increase and that their reciprocals differ
        self.increasing = self.spacing > _FRONTIER_ROUNDING * r_max

    def radius(self, i: int) -> float:
        return self.ra * (self.r_lo + (self.r_hi - self.r_lo) * i / (self.n - 1))

    @functools.cached_property
    def radii(self) -> list[float]:
        return [self.radius(i) for i in range(self.n)]

    def _width(self, magnitude: float, slope_a: float, slope_b: float) -> float:
        """Half-width, in columns, of the window at a root of two affine
        pieces falling at slope_a and slope_b.

        A cell's computed value is within _FRONTIER_ROUNDING * magnitude of
        the model's, so its predicate can differ from the model's only
        within that / |slope| of a root; the root itself, the grid's
        deviation from first + j * spacing and x -/+ w carry errors of the
        same order and of _FRONTIER_ROUNDING * r_max."""
        shallow = -slope_a if slope_a > slope_b else -slope_b
        return _FRONTIER_ROUNDING * (magnitude / shallow + self.r_max) / self.spacing

    def _column(self, root_a: float, root_b: float) -> float:
        """The smaller of two roots, as a column."""
        return ((root_a if root_a < root_b else root_b) - self.first) / self.spacing

    @functools.cached_property
    def half_width(self) -> float:
        """The row window's half-width.  Raises InternalError on radii not
        shown to increase, a computed slope that is not negative, or a
        window wider than `_FRONTIER_CAP`."""
        if self.increasing and self.p_slope < 0.0 and self.d_slope < 0.0:
            width = self._width(self.magnitude, self.p_slope, self.d_slope)
            if width <= _FRONTIER_CAP:
                return width
        raise InternalError(_UNPROVEN.format("row"))

    def _diagonal(self, k: int) -> bool:
        r = self.radius(k)
        return _composite_params(self.closing, r, r, self.tol) is not None

    def _single(self, k: int) -> bool:
        return _p2_params(self.closing, self.radius(k), self.tol) is not None

    def _single_window(self) -> tuple[float, float]:
        """(x, w) of the single-arc window: every radius below ceil(x - w)
        is admissible and every one above floor(x + w) is not."""
        xb, yb, _, _, sino, coso, _, _, _, _ = self.closing
        r_max, tol = self.r_max, self.tol
        # the single arc's d3 and d1, as `_p2_params` computes them
        d3_slope = -(1.0 - coso) / sino
        d1_slope = -sino - d3_slope * coso
        if not (self.increasing and d3_slope < 0.0 and d1_slope < 0.0):
            raise InternalError(_UNPROVEN.format("single-arc"))
        d3_0 = yb / sino
        d3_mag = (abs(yb) + r_max * (1.0 - coso)) / sino
        w = self._width(d3_mag * (1.0 + abs(coso)) + abs(xb) + r_max * sino + tol,
                        d3_slope, d1_slope)
        if w > _FRONTIER_CAP:
            raise InternalError(_UNPROVEN.format("single-arc"))
        return self._column((d3_0 + tol) / -d3_slope, (xb - d3_0 * coso + tol) / -d1_slope), w

    def closed_form(self) -> tuple[tuple[int, int] | None, int | None]:
        """(first best composite cell, first best single-arc index) by the
        diagonal and single-arc arguments, each None where its family has
        no feasible curve."""
        tol, n = self.tol, self.n
        shallow = -max(self.p_slope, self.d_slope, self.p_slope1, self.d_slope1)
        if not (self.increasing and shallow > 0.0):
            raise InternalError(_UNPROVEN.format("diagonal"))
        # the two pieces on the diagonal: at r = 0, and per unit of r
        xb, yb, sin1, cos1, _, _, _, _, _, k2 = self.closing
        p0 = yb / sin1
        d0 = p0 - k2 * (xb - p0 * cos1)
        p_diag, d_diag = self.p_slope + self.p_slope1, self.d_slope + self.d_slope1
        w = self._width(self.magnitude, p_diag, d_diag)
        steep = -p_diag if p_diag < d_diag else -d_diag
        if not 2.0 * (steep * w + _FRONTIER_ROUNDING * self.magnitude / self.spacing) < shallow:
            raise InternalError(_UNPROVEN.format("diagonal"))
        m = _prefix_end(self._column((p0 + tol) / -p_diag, (d0 + tol) / -d_diag), w, n,
                        self._diagonal)
        q = _prefix_end(*self._single_window(), n, self._single)
        return ((m, m) if m >= 0 else None), (q if q >= 0 else None)

    def scan(self) -> Iterator[tuple[int, list[int]]]:
        """Each row's feasible columns as (lo, cols), row by row: every
        column below lo, and the columns listed in cols, all at or above
        lo, each tested by `_composite_params`."""
        closing, tol, radii, n = self.closing, self.tol, self.radii, self.n
        xb, yb, sin1, cos1, _, _, one_cos1, _, _, k2 = closing
        w = self.half_width
        first, spacing = self.first, self.spacing
        neg_p, neg_d = -self.p_slope, -self.d_slope
        ceil, floor = math.ceil, math.floor
        for r1 in radii:
            # the row's smaller root, as a column x; every column below
            # ceil(x - w) is feasible, and the window ends at x + w
            p0 = (yb - r1 * one_cos1) / sin1
            root_p = (p0 + tol) / neg_p
            root_d = (p0 - k2 * ((xb - r1 * sin1) - p0 * cos1) + tol) / neg_d
            x = ((root_d if root_d < root_p else root_p) - first) / spacing
            lo = x - w
            lo = 0 if lo <= 0.0 else n if lo >= n else ceil(lo)
            top = x + w
            # one past the last column at or below top, and below n
            end = n if top >= n - 1 else floor(top) + 1 if top >= lo else lo
            yield lo, [j for j, r2 in enumerate(radii[lo:end], lo)
                       if _composite_params(closing, r1, r2, tol) is not None]

    def singles(self) -> range:
        """Indices of the admissible single-arc radii: the prefix that
        `_single_window` ends."""
        return range(_prefix_end(*self._single_window(), self.n, self._single) + 1)

    def count(self) -> int:
        """Feasible composite cells and single-arc radii."""
        return sum(lo + len(cols) for lo, cols in self.scan()) + len(self.singles())


def family_sweep(inst: ProblemInstance, grid_n: int = 60) -> SweepReport:
    """Grid-sweep both curve families and report the best max curvature.

    Every admissible composite and single-arc curve on an n x n radius
    grid spanning [0.2, 3] * R_a, 2 <= n <= MAX_GRID, is scored by its max
    curvature 1/min(R1, R2); the report carries the minimum, the
    parameters achieving it (the first in row-major order, composites
    before single arcs) and the margin against the theoretical bound 1/R_a.

    No cell is scored one by one.  Both families are feasible on a
    prefix of the radii, which ends at R_a in exact arithmetic, moved out
    by the closing tolerance.  So the answer is the diagonal composite at
    the last grid radius before the composite prefix ends, or the single
    arc where its own prefix reaches a radius further.
    `_CompositeGrid.closed_form` finds both ends from closed-form roots
    and tests the per-cell predicates, `_composite_params` and
    `_p2_params`, only on the radii within a rounding bound of them: O(1)
    per sweep, and bit for bit the full loop's minimum and argmin.
    `feasible_count` is counted on demand by `_CompositeGrid.count`.
    """
    if not 2 <= grid_n <= MAX_GRID:
        raise InvalidInput(f"grid size must lie in [2, {MAX_GRID}], got {grid_n!r}")
    tol = inst.pos_tol
    grid = _CompositeGrid(inst, tol, grid_n, 0.2, 3.0)
    ra = grid.ra
    cell, single = grid.closed_form()
    best = math.inf
    argmin: dict = {}
    if cell is not None:
        # the cell is on the diagonal: R1 = R2
        r = grid.radius(cell[0])
        best = 1.0 / r
        d1, d2, d3 = _composite_params(grid.closing, r, r, tol)
        argmin = {"family": "p4", "R1": r, "R2": r, "d1": d1, "d2": d2, "d3": d3}
    r = None if single is None else grid.radius(single)
    if r is not None and 1.0 / r < best:
        best = 1.0 / r
        d1, d3 = _p2_params(grid.closing, r, tol)
        argmin = {"family": "p2", "R1": r, "R2": r, "d1": d1, "d2": 0.0, "d3": d3}
    if not math.isfinite(best):
        raise InternalError("no admissible curve found on the sweep grid")
    return SweepReport(best, argmin, best - 1.0 / ra, (grid_n, grid_n), ra, grid.count)
