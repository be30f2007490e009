"""The evidence kernels against their plain reference loops, bit for bit.

`support_min`, `family_sweep` and `PiecewiseCurve.turning_at` compute
the same floating-point operations as the straightforward versions kept
here, so their results must compare equal with `==`, not approximately.
"""

import math
import tracemalloc

import numpy as np
import pytest

from arcline import (
    OutOfRange,
    PathBuilder,
    PiecewiseCurve,
    Vec2,
    certificates,
    composite_solve,
    curves,
    dubins,
    dubins_curve,
    make_certificate,
    make_instance,
    synthesize,
)
from conftest import instances, symmetric_instances


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


def support_min_oracle(curve: PiecewiseCurve, n: int) -> float:
    """min over s, t of (px[t]-px[s])*nx[s] + (py[t]-py[s])*ny[s], one row
    s at a time (an n x n array at n = 5000 would take 200 MB)."""
    pts, tans, _ = curve.sample_at(np.linspace(0.0, curve.length, n))
    px, py = pts[:, 0], pts[:, 1]
    nx, ny = -tans[:, 1], tans[:, 0]
    return min(float(((px - px[s]) * nx[s] + (py - py[s]) * ny[s]).min())
               for s in range(n))


@pytest.mark.parametrize("n", [2, 3, 97, 512, 2048, 5000])
def test_support_min_matches_oracle(n):
    # one block (n <= 256), whole blocks (512, 2048) and a short last block (5000)
    for inst in (arc_first(), segment_first()):
        for curve in competitors(inst):
            assert certificates.support_min(curve, n) == support_min_oracle(curve, n)


def test_support_min_memory_is_linear():
    curve = competitors(arc_first())[3]
    certificates.support_min(curve, 64)  # load numpy outside the trace
    tracemalloc.start()
    try:
        certificates.support_min(curve, 2048)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the n x n version peaked at 128 MiB here
    assert peak < 4 * 2**20


def family_sweep_reference(inst, grid_n):
    """family_sweep as a plain loop over the per-cell closed forms."""
    view = dubins.arc_first_view(inst)
    ra = view.ra
    tol = 1e-9 * inst.diameter
    radii = [ra * (0.2 + (3.0 - 0.2) * i / (grid_n - 1)) for i in range(grid_n)]
    best = math.inf
    argmin: dict = {}
    feasible = 0
    for r1 in radii:
        for r2 in radii:
            params = dubins._composite_params(view, r1, r2, 0.5, tol)
            if params is None:
                continue
            feasible += 1
            mc = 1.0 / min(r1, r2)
            if mc < best:
                best = mc
                d1, d2, d3 = params
                argmin = {"family": "p4", "R1": r1, "R2": r2,
                          "d1": d1, "d2": d2, "d3": d3}
    for r in radii:
        params = dubins._p2_params(view, r, tol)
        if params is None:
            continue
        feasible += 1
        mc = 1.0 / r
        if mc < best:
            best = mc
            d1, d3 = params
            argmin = {"family": "p2", "R1": r, "R2": r,
                      "d1": d1, "d2": 0.0, "d3": d3}
    return dubins.SweepReport(min_max_curvature=best, argmin=argmin,
                              margin=best - 1.0 / ra, grid_size=(grid_n, grid_n),
                              feasible_count=feasible, ra=ra)


@pytest.mark.parametrize("grid_n", [2, 3, 60, 64, 300])
def test_family_sweep_matches_reference(grid_n):
    # at grid 64 the radius R_a itself is a grid value, where the symmetric
    # composites close with d2 within rounding of zero: a cell on the edge
    # of the feasibility tolerance
    insts = [arc_first(), segment_first()] + symmetric_instances(7, 2, exact=True)
    if grid_n <= 64:
        insts += instances(seed=71, count=6) + symmetric_instances(8, 2)
    for inst in insts:
        got = dubins.family_sweep(inst, grid_n=grid_n)
        want = family_sweep_reference(inst, grid_n)
        assert got == want
        assert [math.copysign(1.0, v) for v in got.argmin.values()
                if isinstance(v, float)] == \
            [math.copysign(1.0, v) for v in want.argmin.values() if isinstance(v, float)]


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
            got = curve.turning_at(svals)
            want = np.array([curve.turning(float(s)) for s in svals])
            assert got.tobytes() == want.tobytes()
            for bad in (-2.0 * slack, length + 2.0 * slack):
                with pytest.raises(OutOfRange):
                    curve.turning_at(np.array([0.0, bad]))
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
