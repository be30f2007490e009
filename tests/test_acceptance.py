"""Acceptance suite: one test per release criterion.

Run with `pytest -v tests/test_acceptance.py` (or -s to see the PASS
lines).  Every tolerance is fixed here, not calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest

from arcline import (
    PathBuilder,
    Vec2,
    arc_radius,
    bezier_min_radius,
    check_membership,
    compare_report,
    composite_solve,
    dubins_curve,
    illposed_demo,
    instance_from_tangents,
    make_instance,
    max_curvature,
    offset,
    oriented_angle,
    support_min,
    synthesize,
    tangent_intercepts,
    to_svg,
    zeta0_closed_form,
    zeta0_coefficients,
)
from arcline.curves import Arc, PiecewiseCurve
from arcline.dubins import family_sweep
from conftest import make_rng, sample_points, sampled_hausdorff
from oracles import (
    is_feasible_radius,
    numeric_curvature,
    random_instance,
    sample_arrays,
    zeta0_geometric,
)

RA_EXACT = (math.sqrt(2.0) - 1.0) / 2.0


def spanning_instances(seed: int, count: int = 20):
    """Instances with turning angles spread across (0.1, pi - 0.1)."""
    rng = make_rng(seed)
    omegas = np.linspace(0.105, math.pi - 0.105, count)
    return [random_instance(rng, omega=float(w)) for w in omegas]


def test_criterion_01_worked_example():
    inst = make_instance(Vec2(0.0, 0.0), Vec2(0.5, -0.5), Vec2(0.0, -0.5))
    sol = synthesize(inst)
    assert abs(sol.radius - RA_EXACT) <= 1e-12
    assert abs(sol.segment_length - RA_EXACT) <= 1e-12
    print(f"criterion 1 PASS: R_a = {sol.radius:.12f}, "
          f"segment = {sol.segment_length:.12f} (both = (sqrt(2)-1)/2 to 1e-12)")


def test_criterion_02_parabola_baseline():
    inst = make_instance(Vec2(0.0, 0.0), Vec2(0.5, -0.5), Vec2(0.0, -0.5))
    report = compare_report(inst)
    expected = math.sqrt(5.0) / 25.0
    assert abs(report.bezier_min_radius - expected) <= 1e-9 * expected
    assert report.improvement_ratio == pytest.approx(2.315, abs=1e-3)
    print(f"criterion 2 PASS: parabola min radius = {report.bezier_min_radius:.10f} "
          f"(sqrt(5)/25), improvement ratio = {report.improvement_ratio:.4f}")


def test_criterion_03_max_curvature_identity():
    inst = make_instance(Vec2(0.0, 0.0), Vec2(0.5, -0.5), Vec2(0.0, -0.5))
    sol = synthesize(inst)
    assert max_curvature(sol.curve) == 1.0 / sol.radius
    print(f"criterion 3 PASS: max curvature == 1/R_a == {1.0 / sol.radius!r} exactly")


def test_criterion_04_theorem_sweep():
    start = time.monotonic()
    total_feasible = 0
    grid_n = 60
    for inst in spanning_instances(seed=404):
        report = family_sweep(inst, grid_n=grid_n)
        ra = report.ra
        total_feasible += report.feasible_count
        assert report.min_max_curvature >= (1.0 / ra) * (1.0 - 1e-6)
        delta = (3.0 - 0.2) * ra / (grid_n - 1)
        arg = report.argmin
        assert abs(arg["R1"] - ra) <= 2.0 * delta
        assert abs(arg["R2"] - ra) <= 4.0 * delta
        _, _, c, f = zeta0_coefficients(inst.omega)
        assert abs(c) * arg["d1"] + abs(f) * arg["d2"] <= 16.0 * delta
    elapsed = time.monotonic() - start
    assert total_feasible >= 10_000
    assert elapsed <= 30.0
    print(f"criterion 4 PASS: {total_feasible} feasible curves over 20 instances "
          f"in {elapsed:.1f}s; min max-curvature >= (1/R_a)(1 - 1e-6) and argmin "
          f"at the arc+segment configuration on every instance")


def test_criterion_05_radius_family_boundary():
    worst = 0.0
    for inst in spanning_instances(seed=505, count=10):
        sol = synthesize(inst)
        ra = sol.radius
        assert is_feasible_radius(inst, ra)
        assert is_feasible_radius(inst, ra * (1.0 - 1e-6))
        assert not is_feasible_radius(inst, ra * (1.0 + 1e-6))
        limit = dubins_curve(inst, ra)
        gap = sampled_hausdorff(limit.curve, sol.curve, n=500)
        worst = max(worst, gap / inst.diameter)
        assert gap <= 1e-9 * inst.diameter
    print(f"criterion 5 PASS: admissible-radius boundary at R_a confirmed; "
          f"limit curve matches the optimum (worst Hausdorff {worst:.2e} x diameter)")


def test_criterion_06_certificate_cross_validation():
    rng = make_rng(606)
    draws = 0
    worst = 0.0
    while draws < 10_000:
        omega = rng.uniform(math.pi / 2.0, math.pi - 1e-3)
        inst = random_instance(rng, omega=omega)
        ra = arc_radius(inst)
        a, b, c, f = zeta0_coefficients(inst.omega)
        assert a < 0 and b < 0 and c < 0 and f < 0
        for _ in range(50):
            r1 = rng.uniform(0.1, 3.0) * ra
            r2 = rng.uniform(0.1, 3.0) * ra
            d1 = rng.uniform(0.0, 2.0) * inst.diameter
            d2 = rng.uniform(0.0, 2.0) * inst.diameter
            gap = abs(zeta0_closed_form(inst, r1, r2, d1, d2)
                      - zeta0_geometric(inst, r1, r2, d1, d2))
            worst = max(worst, gap)
            assert gap <= 1e-9
            draws += 1
    print(f"criterion 6 PASS: closed-form vs geometric zeta_0 agree on "
          f"{draws} draws (worst gap {worst:.2e}); coefficients negative on [pi/2, pi)")


def test_criterion_07_support_line_property():
    worst = 0.0
    for inst in spanning_instances(seed=707):
        sol = synthesize(inst)
        curves = [sol.curve]
        for k in range(1, 11):
            curves.append(dubins_curve(inst, sol.radius * k / 10.0).curve)
        for curve in curves:
            value = support_min(curve)
            worst = min(worst, value / inst.diameter)
            assert value >= -1e-9 * inst.diameter
    b = PathBuilder()
    s_curve = b.arc(1.0, math.pi / 2).arc(1.0, -math.pi / 2).build()
    pts, _, _ = sample_arrays(s_curve, np.linspace(0.0, s_curve.length, 200))
    extent = float(max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1])))
    violation = support_min(s_curve)
    assert violation < -1e-3 * extent
    print(f"criterion 7 PASS: support property holds for 220 admissible curves "
          f"(worst {worst:.2e} x diameter); S-curve violates it ({violation:.3f})")


def test_criterion_08_intercept_positivity():
    checked = 0
    for inst in spanning_instances(seed=808):
        sol = synthesize(inst)
        ra = sol.radius
        members = [sol.curve,
                   dubins_curve(inst, 0.5 * ra).curve,
                   dubins_curve(inst, 0.9 * ra).curve]
        comp = composite_solve(inst, 0.7 * ra, 0.6 * ra)
        if comp is not None:
            members.append(comp.curve)
        for curve in members:
            u0, v0 = tangent_intercepts(curve, inst, curve.length)
            assert u0 > 0.0 and v0 > 0.0
            checked += 1
        u0, v0 = tangent_intercepts(sol.curve, inst, sol.curve.length)
        assert abs(u0 - inst.oa) <= 1e-9 * max(1.0, inst.oa)
        assert abs(v0 - inst.ob) <= 1e-9 * max(1.0, inst.ob)
    print(f"criterion 8 PASS: u0, v0 > 0 for {checked} generated admissible "
          f"curves; (u0, v0) = (OA, OB) on the optimum to 1e-9")


def test_criterion_09_ill_posedness_demo():
    a, alpha = Vec2(0.0, 0.0), Vec2(1.0, 0.0)
    b, beta = Vec2(2.0, 1.0), Vec2(0.0, -1.0)
    for radius in (10.0, 1000.0):
        curve = illposed_demo(a, alpha, b, beta, radius)
        scale = max(1.0, radius)
        assert (curve.start_point - a).norm() <= 1e-9 * scale
        assert (curve.end_point - b).norm() <= 1e-9 * scale
        assert abs(oriented_angle(curve.start_tangent, alpha)) <= 1e-9
        assert abs(oriented_angle(curve.end_tangent, beta)) <= 1e-9
        assert max_curvature(curve) == pytest.approx(1.0 / radius, rel=1e-12)
    with pytest.raises(Exception):
        instance_from_tangents(a, b, alpha, beta)
    print("criterion 9 PASS: demo curves meet the boundary data at R = 10 and "
          "R = 1000 (min radius unbounded) while the instance is rejected")


def test_criterion_10_estimator_offsets_svg():
    # curvature estimator: h vs h/2 convergence study on an arc
    radius = 0.7
    arc = PiecewiseCurve([Arc(Vec2(0.2, -0.1), radius, 0.3, 2.0)])
    errors = []
    for n in (200, 400):
        kappa = numeric_curvature(sample_points(arc, n))
        errors.append(max(abs(k - 1.0 / radius) for k in kappa))
    order = math.log2(errors[0] / errors[1])
    assert order >= 1.9

    # offset exactness on the worked curve
    inst = make_instance(Vec2(0.0, 0.0), Vec2(0.5, -0.5), Vec2(0.0, -0.5))
    sol = synthesize(inst)
    result = offset(sol.curve, 0.1)
    for bp, sp in zip(sol.curve.primitives, result.left.primitives):
        for frac in np.linspace(0.0, 1.0, 17):
            q = Vec2(*sp.evaluate_row(float(frac) * sp.length)[:2])
            p = Vec2(*bp.evaluate_row(float(frac) * bp.length)[:2])
            assert abs((q - p).norm() - 0.1) <= 1e-9 * inst.diameter

    # SVG byte determinism
    doc1 = to_svg([sol.curve, result.left, result.right])
    doc2 = to_svg([sol.curve, result.left, result.right])
    assert doc1 == doc2
    print(f"criterion 10 PASS: estimator order {order:.2f} on arcs; offsets "
          f"exact to 1e-9; SVG output byte-deterministic")
