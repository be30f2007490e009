"""The evidence kernels against their plain reference loops.

`PiecewiseCurve.turning` and the vectorized oracle `turning_at` compute
the same floating-point operations, so their results must compare
equal with `==`, not approximately.  So must `sample_at`, the scalar
`evaluate_row` and `evaluate`, and the certificate's zeta profile and
frame gaps and their per-point oracle.  `family_sweep` reads its argmin
at the diagonal cell of the closed-form root, testing only the cells
within rounding of it, and counts feasible cells, on demand, by a row
scan that tests only the cells near each row's frontier and a window at
the single arc's root; every cell either tests goes through
`_composite_params` or `_p2_params`, the predicates the reference loop
here calls on every cell.  The two reports must compare equal field by
field, zero signs and the count included, on drawn instances across the
accepted domain.  On other radius windows, which only these tests build,
the sweep's grid gives the loop's best cells and count, also where a
radius lies within ulps of a root; where the grid's arguments fail, it
raises InternalError.  The exact `support_min`,
which takes its minimum from closed-form candidates and evaluates the
curve nowhere, is checked against the sampled (s, t) grid it replaced:
never above it, and below it by at most the grid's second-order error.
It also agrees, up to rounding, with the pairwise oracle
`support_min_pairs`, which evaluates the curve at candidate arc lengths
per primitive pair.  It makes no `sample_at` call.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arcline import (
    Arc,
    InternalError,
    OutOfRange,
    PathBuilder,
    PiecewiseCurve,
    Segment,
    Vec2,
    certificates,
    composite_solve,
    curves,
    dubins,
    dubins_curve,
    make_certificate,
    make_instance,
    max_curvature,
    synthesize,
)
from conftest import accepted_instances, instances, symmetric_instances
from oracles import (
    canonical_frame,
    evaluate,
    frame_gaps_pointwise,
    sample_arrays,
    support_min_pairs,
    turning_at,
)


def arc_first():
    # OA = 1 < OB = 2: the optimal curve starts with the arc
    return make_instance(Vec2(0.0, 0.0), Vec2(0.0, 1.0), Vec2(2.0, 0.0))


def segment_first():
    # OA > OB: the optimal curve starts with the segment
    return make_instance(Vec2(0.0, 0.0), Vec2(-1.5, 1.3), Vec2(1.0, 0.0))


def competitors(inst) -> list[PiecewiseCurve]:
    """The optimum, a Dubins curve, a composite and an S-curve."""
    sol = synthesize(inst)
    ra = sol.radius
    comp = composite_solve(inst, 0.6 * ra, 0.8 * ra)
    assert comp is not None
    s_curve = PathBuilder(inst.A, inst.alpha.angle())
    s_curve.arc(ra, 0.5 * math.pi).arc(ra, -0.5 * math.pi)
    return [sol.curve, dubins_curve(inst, 0.5 * ra).curve, comp.curve, s_curve.build()]


def support_min_oracle(curve: PiecewiseCurve, n: int, joints: bool = False) -> float:
    """min over s, t of (px[t]-px[s])*nx[s] + (py[t]-py[s])*ny[s] on n equally
    spaced samples, and on the joints too if asked, one row s at a time
    (an n x n array at n = 5000 would take 200 MB)."""
    svals = np.linspace(0.0, curve.length, n)
    if joints:
        svals = np.union1d(svals, curve.breaks)
    pts, tans, _ = sample_arrays(curve, svals)
    px, py = pts[:, 0], pts[:, 1]
    nx, ny = -tans[:, 1], tans[:, 0]
    return min(float(((px - px[s]) * nx[s] + (py - py[s]) * ny[s]).min())
               for s in range(svals.size))


def rounding_scale(curve: PiecewiseCurve) -> float:
    """Largest endpoint coordinate of the curve, and at least 1."""
    return max([1.0] + [abs(v) for p in curve.primitives
                        for q in (p.start_point, p.end_point) for v in (q.x, q.y)])


@pytest.mark.parametrize("n", [2, 3, 97, 512, 2048, 5000])
def test_support_min_matches_oracle(n):
    # the exact minimum never lies above a sampled grid, up to rounding
    for inst in (arc_first(), segment_first()):
        for curve in competitors(inst):
            assert certificates.support_min(curve) <= \
                support_min_oracle(curve, n) + 1e-12 * rounding_scale(curve)


def test_support_min_exact_values():
    # a unit segment, then a clockwise three-quarter turn of radius 1: the
    # arc's outward normal at radial angle -pi/4 puts the segment's start
    # 1 + sqrt(2) behind the tangent line, between the samples of both grids
    curve = PathBuilder().line(1.0).arc(1.0, -1.5 * math.pi).build()
    exact = certificates.support_min(curve)
    assert exact == pytest.approx(-(1.0 + math.sqrt(2.0)), abs=1e-12)
    for n in (200, 2048):
        assert support_min_oracle(curve, n) > exact + 1e-12
    # two clockwise unit arcs joined by a segment of length 2, so centers
    # 2 apart: the minimum -(2 + 1 + 1) lies inside both arcs, at radial
    # angles parallel to the line of centers
    curve = PathBuilder().arc(1.0, -2.0).line(2.0).arc(1.0, -2.0).build()
    exact = certificates.support_min(curve)
    assert exact == pytest.approx(-4.0, abs=1e-12)
    for n in (200, 2048):
        assert support_min_oracle(curve, n) > exact + 1e-12
    # a segment and a detached counterclockwise arc (no G1 check): the
    # arc's lowest point, 3 below the segment's line, lies inside its sweep
    curve = PiecewiseCurve([Segment(Vec2(0.0, 0.0), Vec2(1.0, 0.0)),
                            Arc(Vec2(0.5, -2.0), 1.0, math.pi + 0.2, 2.5)], require_g1=False)
    assert certificates.support_min(curve) == pytest.approx(-3.0, abs=1e-12)
    # S-curve: the second arc ends 2R behind the first one's start tangent
    for radius in (0.5, 1.0, 3.0):
        s_curve = PathBuilder().arc(radius, 0.5 * math.pi).arc(radius, -0.5 * math.pi).build()
        assert certificates.support_min(s_curve) == pytest.approx(-2.0 * radius, abs=1e-12 * radius)
    # one clockwise unit arc of three quarters of a turn: the outward
    # normal at one point reaches 2 beyond the antipodal point of the arc
    curve = PathBuilder().arc(1.0, -1.5 * math.pi).build()
    assert certificates.support_min(curve) == pytest.approx(-2.0, abs=1e-12)
    # two clockwise unit arcs on one circle: their centers agree up to
    # rounding, so the minimum -2 lies on an edge, not at a both-inside
    # candidate on the line of centers
    curve = PathBuilder().arc(1.0, -2.0).arc(1.0, -2.0).build()
    assert certificates.support_min(curve) == pytest.approx(-2.0, abs=1e-12)


@st.composite
def chains(draw):
    """1-7 segments and mixed-sign arcs from a pose up to 50 from the origin."""
    b = PathBuilder(Vec2(draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0))),
                    draw(st.floats(-math.pi, math.pi)))
    for _ in range(draw(st.integers(1, 7))):
        if draw(st.booleans()):
            b.line(draw(st.floats(0.01, 3.0)))
        else:
            sweep = draw(st.floats(0.01, 2.99)) * draw(st.sampled_from([-1.0, 1.0]))
            b.arc(draw(st.floats(0.1, 3.0)), sweep)
    return b.build()


@settings(deadline=None, max_examples=80)
@given(chains())
def test_support_min_within_grid_error(curve):
    # On each primitive pair gamma is smooth, and with the joints on the
    # grid every pair's rectangle holds a grid point within h/2 of the
    # minimizer in s and in t, on the same edge if the minimizer is on one,
    # where the gradient along the edge vanishes.  So the grid reads at
    # most M h^2 / 4 above the minimum, M bounding the Hessian's norm:
    # |g_tt| <= k, |g_st| <= k, |g_ss| = |k - k^2 <X(t) - X(s), N(s)>| <= k + k^2 L
    # (k the maximum curvature, L >= every chord), so M <= 2k + k^2 L.
    n = 400
    k = max_curvature(curve)
    bound = (2.0 * k + k * k * curve.length) / 4.0 * (curve.length / (n - 1)) ** 2
    gap = support_min_oracle(curve, n, joints=True) - certificates.support_min(curve)
    rounding = 1e-12 * rounding_scale(curve)
    assert -rounding <= gap <= bound + rounding


def alternating_chain(k: int) -> PiecewiseCurve:
    """k pieces, arcs and segments in turn, the arcs turning both ways."""
    b = PathBuilder()
    for i in range(k):
        if i % 2:
            b.line(0.5)
        else:
            b.arc(1.0, 0.7 if (i // 2) % 2 else -0.9)
    return b.build()


def assert_matches_pairs(curve: PiecewiseCurve) -> None:
    gap = certificates.support_min(curve) - support_min_pairs(curve)
    assert abs(gap) <= 1e-12 * rounding_scale(curve)


@settings(deadline=None, max_examples=200)
@given(chains())
def test_support_min_matches_pairwise_candidates(curve):
    # the closed-form candidates against the curve evaluated at the
    # pairwise candidate arc lengths
    assert_matches_pairs(curve)


@pytest.mark.parametrize("k", [20, 100])
def test_support_min_matches_pairwise_candidates_on_long_chains(k):
    assert_matches_pairs(alternating_chain(k))


def test_point_tangents_match_evaluate():
    # sample_at's rows, evaluate_row (which sample_at and
    # support_min_pairs use) and evaluate agree bit for bit: at the joints (right-hand piece),
    # inside the pieces, and within the end slack (clipped)
    for inst in (arc_first(), segment_first()):
        for curve in competitors(inst):
            slack = 1e-13 * curve.length
            svals = list(curve.breaks) + [-slack, curve.length + slack]
            svals += np.linspace(0.0, curve.length, 97).tolist()
            rows = curve.sample_at(svals)
            assert len(rows) == len(svals)
            for s, row in zip(svals, rows):
                point, tangent, kappa = evaluate(curve, s)
                want = [point.x, point.y, tangent.x, tangent.y, kappa]
                assert [v.hex() for v in curve.evaluate_row(s)] == [v.hex() for v in want]
                assert [float(v).hex() for v in row] == [v.hex() for v in want]


def hypothesis_curves(inst) -> list[PiecewiseCurve]:
    """Curves that meet the zeta hypothesis: the optimum, the composite
    at R_a, and a wider chain from A that need not end on B."""
    sol = synthesize(inst)
    ra = sol.radius
    wide = PathBuilder(inst.A, inst.alpha.angle())
    wide.arc(2.0 * ra, 0.5 * inst.omega).line(0.3 * ra).arc(1.5 * ra, 0.4 * inst.omega)
    wide.line(ra * inst.omega)
    return [sol.curve, composite_solve(inst, ra, ra).curve, wide.build()]


@pytest.mark.parametrize("n", [1, 7, 512])
def test_profiles_match_pointwise_oracle(n):
    for inst in [arc_first(), segment_first()] + instances(seed=75, count=4):
        sol = synthesize(inst)
        for z in hypothesis_curves(inst):
            want = frame_gaps_pointwise(inst, sol, z, n)
            zeta = certificates.zeta_profile(inst, sol, z, n=n)
            gaps = certificates._frame_gaps(inst, sol, z, n)
            gx, gy = [row[2] for row in gaps], [row[3] for row in gaps]
            assert len(zeta) == len(gx) == len(gy) == n + 1
            for got, col in ((zeta, 0), (gx, 1), (gy, 2)):
                assert [float(v).hex() for v in got] == [row[col].hex() for row in want]


def count_sample_at(monkeypatch) -> list[int]:
    calls = [0]
    inner = curves.PiecewiseCurve.sample_at

    def counting(self, svals):
        calls[0] += 1
        return inner(self, svals)

    monkeypatch.setattr(curves.PiecewiseCurve, "sample_at", counting)
    return calls


def test_support_min_does_not_sample(monkeypatch):
    calls = count_sample_at(monkeypatch)
    for inst in (arc_first(), segment_first()):
        for curve in competitors(inst):
            certificates.support_min(curve)
    assert calls[0] == 0


def test_make_certificate_samples_once(monkeypatch):
    # the one sampled quantity left is zeta_0, from the one-step profile;
    # where the hypothesis fails, nothing is sampled at all
    calls = count_sample_at(monkeypatch)
    for inst in (arc_first(), segment_first()):
        sol = synthesize(inst)
        ra = sol.radius
        for z in (sol.curve, composite_solve(inst, ra, ra).curve):
            before = calls[0]
            assert make_certificate(inst, sol, z).zeta0 is not None
            assert calls[0] == before + 1
        before = calls[0]
        assert make_certificate(inst, sol, dubins_curve(inst, 0.5 * ra).curve).zeta0 is None
        assert calls[0] == before


def test_support_min_memory_is_linear():
    curve = competitors(arc_first())[3]
    tracemalloc.start()
    try:
        certificates.support_min(curve)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the n x n version peaked at 128 MiB here
    assert peak < 4 * 2**20


def sweep_reference(inst, grid_n, r_lo=0.2, r_hi=3.0):
    """The plain loop over every cell of the grid spanning [r_lo, r_hi] *
    R_a: (radii, first best composite cell, first best single-arc index,
    feasible count), each best None where its family has no feasible curve."""
    view = canonical_frame(inst)
    closing, ra = view.closing, view.ra
    tol = 1e-9 * inst.diameter
    radii = [ra * (r_lo + (r_hi - r_lo) * i / (grid_n - 1)) for i in range(grid_n)]
    cell = single = None
    feasible = 0
    best = math.inf
    for i, r1 in enumerate(radii):
        for j, r2 in enumerate(radii):
            if dubins._composite_params(closing, r1, r2, tol) is not None:
                feasible += 1
                if 1.0 / min(r1, r2) < best:
                    best, cell = 1.0 / min(r1, r2), (i, j)
    best = math.inf
    for k, r in enumerate(radii):
        if dubins._p2_params(closing, r, tol) is not None:
            feasible += 1
            if 1.0 / r < best:
                best, single = 1.0 / r, k
    return radii, cell, single, feasible


def family_sweep_reference(inst, grid_n):
    """family_sweep's report from the plain loop: the composite's best,
    unless the single arc's is strictly better."""
    radii, cell, single, feasible = sweep_reference(inst, grid_n)
    view = canonical_frame(inst)
    tol = 1e-9 * inst.diameter
    best, argmin = math.inf, {}
    if cell is not None:
        r1, r2 = radii[cell[0]], radii[cell[1]]
        best = 1.0 / min(r1, r2)
        d1, d2, d3 = dubins._composite_params(view.closing, r1, r2, tol)
        argmin = {"family": "p4", "R1": r1, "R2": r2, "d1": d1, "d2": d2, "d3": d3}
    if single is not None and 1.0 / radii[single] < best:
        r = radii[single]
        best = 1.0 / r
        d1, d3 = dubins._p2_params(view.closing, r, tol)
        argmin = {"family": "p2", "R1": r, "R2": r, "d1": d1, "d2": 0.0, "d3": d3}
    return {"min_max_curvature": best, "argmin": argmin, "margin": best - 1.0 / view.ra,
            "grid_size": (grid_n, grid_n), "feasible_count": feasible, "ra": view.ra}


def assert_sweep_matches_reference(inst, grid_n):
    # every field of the report, the on-demand feasible_count included
    got = dubins.family_sweep(inst, grid_n=grid_n)
    want = family_sweep_reference(inst, grid_n)
    assert {name: getattr(got, name) for name in want} == want
    assert [math.copysign(1.0, v) for v in got.argmin.values() if isinstance(v, float)] == \
        [math.copysign(1.0, v) for v in want["argmin"].values() if isinstance(v, float)]


def sweep_grid(inst, r_lo, r_hi, grid_n):
    return dubins._CompositeGrid(inst, 1e-9 * inst.diameter, grid_n, r_lo, r_hi)


def assert_grid_matches_reference(inst, grid_n, r_lo, r_hi):
    # the sweep's grid on another radius window: its radii, the closed
    # form's two cells and the feasible count against the plain loop
    grid = sweep_grid(inst, r_lo, r_hi, grid_n)
    radii, cell, single, feasible = sweep_reference(inst, grid_n, r_lo, r_hi)
    assert [grid.radius(i) for i in range(grid_n)] == radii
    assert grid.closed_form() == (cell, single)
    assert grid.count() == feasible


@pytest.mark.parametrize("grid_n", [2, 3, 60, 64, 300])
def test_family_sweep_matches_reference(grid_n):
    # at grid 64 the radius R_a itself is a grid value, where the symmetric
    # composites close with d2 within rounding of zero: a cell on the edge
    # of the feasibility tolerance
    insts = [arc_first(), segment_first()] + symmetric_instances(7, 2, exact=True)
    if grid_n <= 64:
        insts += instances(seed=71, count=6) + symmetric_instances(8, 2)
    for inst in insts:
        assert_sweep_matches_reference(inst, grid_n)
        if grid_n in (60, 64):
            # whole rows feasible (every radius below R_a), and a window
            # straddling R_a
            assert_grid_matches_reference(inst, grid_n, 0.1, 0.9)
            assert_grid_matches_reference(inst, grid_n, 0.5, 1.5)


def test_family_sweep_matches_reference_fine_grid():
    for inst in (arc_first(), instances(seed=72, count=1)[0]):
        assert_sweep_matches_reference(inst, 1000)


@settings(deadline=None, max_examples=150)
@given(accepted_instances(), st.sampled_from([2, 3, 17, 40]),
       st.sampled_from([(0.1, 0.9), (0.5, 1.5), (0.99, 1.01)]))
def test_family_sweep_matches_reference_wide(inst, grid_n, window):
    assert_sweep_matches_reference(inst, grid_n)
    assert_grid_matches_reference(inst, grid_n, *window)


def frontier_roots(inst, r1):
    """The affine model's r2 at p2 = -tol, t = 0 and p2 + k2 t = -tol in
    the composite row of radius r1."""
    grid = dubins._CompositeGrid(inst, 1e-9 * inst.diameter, 2, 0.2, 1.0)
    xb, yb, sin1, cos1, _, _, one_cos1, sb, _, k2 = grid.closing
    p0 = (yb - r1 * one_cos1) / sin1
    t0 = -((xb - r1 * sin1) - p0 * cos1)
    # d(t)/d(r2), as the grid derives its d2 slope
    t_slope = sb + grid.p_slope * cos1
    return (-(p0 + grid.tol) / grid.p_slope, -t0 / t_slope,
            -(p0 + k2 * t0 + grid.tol) / grid.d_slope)


def test_family_sweep_roots_on_grid():
    # windows whose last radius is one of row 0's three roots in closed
    # form, so that a cell sits within rounding of the frontier; the sweep
    # places its window at the smaller of the two roots, and columns at
    # the larger root or on the t = 0 kink lie inside the feasible prefix
    # or past the window
    for inst in instances(seed=73, count=12) + symmetric_instances(9, 4):
        view = canonical_frame(inst)
        for root in frontier_roots(inst, 0.2 * view.ra):
            r_hi = root / view.ra
            if r_hi > 0.3:
                for grid_n in (2, 3, 40):
                    assert_grid_matches_reference(inst, grid_n, 0.2, r_hi)


def test_family_sweep_last_radius_ulps_from_root():
    # grids whose last radius lies a few ulps to either side of one of row
    # 0's two frontier roots.  At the smaller root rounding decides that
    # column's verdict, and only the rounding-width window there tests it;
    # at the larger root the column lies past the window, or inside it
    # where the two roots nearly meet.  A wrong
    # verdict needs the computed root and the computed cell to round
    # differently, which few instances do: hence many of them, on small
    # grids.
    for inst in instances(seed=74, count=80) + symmetric_instances(10, 10):
        view = canonical_frame(inst)
        roots = frontier_roots(inst, 0.2 * view.ra)
        for root in (roots[0], roots[2]):
            if not root > 0.3 * view.ra:
                continue
            sides = set()
            for step in range(-4, 5):
                r_hi = root / view.ra + step * math.ulp(root / view.ra)
                for grid_n in (2, 3):
                    last = view.ra * (0.2 + (r_hi - 0.2) * (grid_n - 1) / (grid_n - 1))
                    sides.add((last > root) - (last < root))
                    assert_grid_matches_reference(inst, grid_n, 0.2, r_hi)
            assert {-1, 1} <= sides


@pytest.mark.parametrize("grid_n", [2, 3])
def test_family_sweep_small_grids_straddling_ra(grid_n):
    # a grid radius on each side of R_a, R_a itself on the grid at (0.5,
    # 1.5) with grid 3 and at (0.99, 1.01)
    for inst in [arc_first(), segment_first()] + instances(seed=76, count=8) \
            + symmetric_instances(11, 3, exact=True):
        assert_sweep_matches_reference(inst, grid_n)
        for window in ((0.5, 1.5), (0.9, 1.2), (0.99, 1.01), (0.999, 1.5)):
            assert_grid_matches_reference(inst, grid_n, *window)


def closed_form_roots(inst):
    """Where the composite diagonal's d2 and the single arc's d1 reach
    -tol in closed form: R_a + tol / (2 sin(omega/2)) and R_a + tol /
    tan(omega/2)."""
    view = canonical_frame(inst)
    tol = 1e-9 * inst.diameter
    return (view.ra + tol / (2.0 * math.sin(0.5 * view.omega)),
            view.ra + tol / math.tan(0.5 * view.omega))


def test_family_sweep_last_radius_ulps_from_diagonal_root(monkeypatch):
    # grids whose last radius lies a few ulps to either side of the
    # diagonal's or the single arc's closed-form root: there the closed
    # form's window holds that radius and the per-cell predicate decides
    tested = []
    prefix_end = dubins._prefix_end

    def recording(x, w, n, feasible):
        return prefix_end(x, w, n, lambda k: tested.append(k) or feasible(k))

    monkeypatch.setattr(dubins, "_prefix_end", recording)
    for inst in instances(seed=77, count=40) + symmetric_instances(12, 6):
        view = canonical_frame(inst)
        for root in closed_form_roots(inst):
            for step in range(-4, 5):
                r_hi = root / view.ra + step * math.ulp(root / view.ra)
                for grid_n in (2, 3):
                    assert_grid_matches_reference(inst, grid_n, 0.2, r_hi)
    assert len(tested) > 100


def test_family_sweep_fine_windows_at_the_roots():
    # windows a few 1e-9 of R_a wide around either closed-form root, many
    # of them wholly above R_a: many cells on and off the diagonal are
    # within rounding of the frontier
    for inst in instances(seed=78, count=20) + symmetric_instances(13, 4):
        view = canonical_frame(inst)
        for root in closed_form_roots(inst):
            for half in (1e-9, 3e-9, 1e-8):
                for grid_n in (5, 40):
                    assert_grid_matches_reference(
                        inst, grid_n, root / view.ra - half, root / view.ra + half)


@settings(deadline=None, max_examples=150)
@given(accepted_instances(), st.sampled_from([2, 3, 17, 40, 60, 300]),
       st.sampled_from([(0.2, 3.0), (0.1, 0.9), (0.5, 1.5)]))
def test_family_sweep_argmin_is_the_closed_form_cell(inst, grid_n, window):
    # the best composite sits on the diagonal at the last grid radius
    # below its closed-form root, and the single arc wins only where a grid
    # radius lies between that root and its own, the larger one
    grid = sweep_grid(inst, *window, grid_n)
    radii = [grid.radius(i) for i in range(grid_n)]
    composite_root, single_root = closed_form_roots(inst)
    m = max(i for i, r in enumerate(radii) if r <= composite_root)
    q = max(i for i, r in enumerate(radii) if r <= single_root)
    assert grid.closed_form() == ((m, m), q)
    if window != (0.2, 3.0):
        return
    report = dubins.family_sweep(inst, grid_n)
    view = canonical_frame(inst)
    tol = 1e-9 * inst.diameter
    r = radii[m]
    if radii[q] > r:
        r = radii[q]
        d1, d3 = dubins._p2_params(view.closing, r, tol)
        want = {"family": "p2", "R1": r, "R2": r, "d1": d1, "d2": 0.0, "d3": d3}
    else:
        d1, d2, d3 = dubins._composite_params(view.closing, r, r, tol)
        want = {"family": "p4", "R1": r, "R2": r, "d1": d1, "d2": d2, "d3": d3}
    assert report.argmin == want
    assert report.min_max_curvature == 1.0 / r
    assert report.margin == 1.0 / r - 1.0 / view.ra


def test_family_sweep_fallback_windows():
    # on arc_first the default window takes the row window, the closed form
    # and the single-arc window.  1 + 4e-16 puts two grid radii on each
    # float, not strictly increasing, and 1 + 1e-13 spaces them a few ulps
    # apart, so that the windows exceed their cap: there no argument holds,
    # and each raises InternalError, as the sweep has no other path
    grid = sweep_grid(arc_first(), 0.2, 3.0, 60)
    assert grid.half_width <= 1.0
    assert grid._single_window()[1] <= 1.0
    assert_grid_matches_reference(arc_first(), 60, 0.2, 3.0)
    for r_lo, r_hi, grid_n in ((1.0, 1.0 + 4e-16, 10), (1.0, 1.0 + 1e-13, 50)):
        grid = sweep_grid(arc_first(), r_lo, r_hi, grid_n)
        for argument in (lambda: grid.half_width, grid._single_window, grid.closed_form):
            with pytest.raises(InternalError, match="does not hold on this grid"):
                argument()


def test_turning_at_matches_turning():
    for inst in (arc_first(), segment_first()):
        for curve in competitors(inst):
            length = curve.length
            slack = 1e-12 * max(1.0, length)
            svals = np.concatenate([
                np.array(curve.breaks),
                np.linspace(0.0, length, 257),
                [-0.5 * slack, length + 0.5 * slack],
            ])
            got = turning_at(curve, svals)
            want = np.array([curve.turning(float(s)) for s in svals])
            assert got.tobytes() == want.tobytes()
            for bad in (-2.0 * slack, length + 2.0 * slack):
                with pytest.raises(OutOfRange):
                    turning_at(curve, np.array([0.0, bad]))
                with pytest.raises(OutOfRange):
                    curve.turning(bad)


def test_benchmark_trace_points_are_called(monkeypatch):
    """The names the benchmark's tracer wraps must stay the ones called."""
    inst = arc_first()
    sol = synthesize(inst)
    calls: dict[str, int] = {}

    def counting(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("support_min", "zeta_profile", "theta_phi_bound"):
        counting(certificates, name)
    counting(curves.PiecewiseCurve, "sample_at")
    # the optimum meets the zeta hypothesis, so every quantity is computed
    make_certificate(inst, sol, sol.curve, n=64)
    assert set(calls) == {"support_min", "zeta_profile", "theta_phi_bound", "sample_at"}
    for module, name in ((dubins, "family_sweep"), (dubins, "dubins_curve"),
                         (dubins, "composite_solve"), (curves, "check_membership")):
        assert callable(getattr(module, name))
