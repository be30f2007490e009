import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arcline import (
    Arc,
    HypothesisViolated,
    PathBuilder,
    PiecewiseCurve,
    UndefinedHeading,
    Vec2,
    arc_radius,
    check_membership,
    composite_solve,
    dubins_curve,
    make_certificate,
    make_instance,
    oriented_angle,
    random_instance,
    support_min,
    synthesize,
    tangent_intercepts,
    theta_phi_bound,
    zeta0_closed_form,
    zeta0_coefficients,
    zeta_profile,
)
from arcline.synthesis import canonical_frame
from conftest import make_rng, instances
from oracles import frame_gaps_pointwise, sample_arrays, theta_phi_sampled, zeta0_geometric


def s_curve(r: float = 1.0) -> PiecewiseCurve:
    # counterclockwise quarter followed by clockwise quarter: leaves the
    # support half-plane of its inflection tangent
    b = PathBuilder()
    return b.arc(r, math.pi / 2).arc(r, -math.pi / 2).build()


def curve_extent(curve) -> float:
    pts, _, _ = sample_arrays(curve, np.linspace(0.0, curve.length, 200))
    return float(max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1])))


def test_support_optimal_curve(worked_instance):
    sol = synthesize(worked_instance)
    assert support_min(sol.curve) >= -1e-12


def test_support_single_arc_touches_zero():
    arc = PiecewiseCurve([Arc(Vec2(0, 0), 1.0, 0.0, 2.0)])
    value = support_min(arc)
    assert -1e-12 <= value <= 1e-12


def test_support_s_curve_negative():
    curve = s_curve(1.0)
    assert support_min(curve) < -1e-3 * curve_extent(curve)


def test_zeta_profile_identity(worked_instance, arc_first_instance):
    for inst in (worked_instance, arc_first_instance):
        sol = synthesize(inst)
        prof = zeta_profile(inst, sol, sol.curve, n=512)
        assert len(prof) == 513
        assert np.abs(prof).max() <= 1e-12 * inst.diameter


def test_zeta_profile_composite_at_optimum(worked_instance):
    sol = synthesize(worked_instance)
    comp = composite_solve(worked_instance, sol.radius, sol.radius)
    prof = zeta_profile(worked_instance, sol, comp.curve, n=512)
    assert abs(prof[-1]) <= 1e-9


def test_zeta_profile_hypothesis_gates(worked_instance):
    sol = synthesize(worked_instance)
    # smaller turn radius -> larger max curvature: hypothesis fails
    tight = dubins_curve(worked_instance, 0.5 * sol.radius)
    with pytest.raises(HypothesisViolated):
        zeta_profile(worked_instance, sol, tight.curve)
    # a short curve cannot satisfy the curvature hypothesis either
    stub = PathBuilder(worked_instance.A, worked_instance.alpha.angle())
    stub.arc(sol.radius, 0.1)
    with pytest.raises(HypothesisViolated):
        zeta_profile(worked_instance, sol, stub.build())


def test_theta_phi_bound_identity(worked_instance, arc_first_instance):
    for inst in (worked_instance, arc_first_instance):
        sol = synthesize(inst)
        assert theta_phi_bound(inst, sol, sol.curve) <= 1e-9
        comp = composite_solve(inst, sol.radius, sol.radius)
        assert theta_phi_bound(inst, sol, comp.curve) <= 1e-9


def wide_arc(inst):
    """Arc of radius 1.5 R_a through the whole turning angle from A, then a
    segment: it meets the certificate hypothesis but misses B."""
    ra = arc_radius(inst)
    builder = PathBuilder(inst.A, inst.alpha.angle())
    return builder.arc(1.5 * ra, inst.omega).line(ra * inst.omega).build()


def test_theta_phi_bound_at_least_sampled(worked_instance, arc_first_instance):
    # the exact supremum never reads below a sample, up to a few ulps of pi
    segment_first = make_instance(Vec2(0.0, 0.0), Vec2(-1.5, 1.3), Vec2(1.0, 0.0))
    insts = (worked_instance, arc_first_instance, segment_first)
    assert [canonical_frame(inst).mirrored for inst in insts] == [True, False, True]
    for inst in insts:
        sol = synthesize(inst)
        ra = sol.radius
        curves = [sol.curve, dubins_curve(inst, ra).curve,
                  composite_solve(inst, ra, ra).curve, wide_arc(inst)]
        for z in curves:
            exact = theta_phi_bound(inst, sol, z)
            for n in (2, 64, 512, 2048):
                assert exact >= theta_phi_sampled(inst, sol, z, n) - 4 * math.ulp(math.pi)


def test_theta_phi_bound_wide_arc_supremum_at_start(worked_instance):
    # the worked frame is mirrored, so s runs from z's end: along the
    # segment g falls from g(0+) = 0 at slope kappa - e = -2 / (3 R_a),
    # and no sample reaches s = 0
    inst = worked_instance
    sol = synthesize(inst)
    z = wide_arc(inst)
    assert theta_phi_bound(inst, sol, z) == 0.0
    sampled = theta_phi_sampled(inst, sol, z, 512)
    assert sampled == pytest.approx(-(2.0 / 3.0) * inst.omega / 512, rel=1e-12)
    assert format(sampled, ".6g") == "-0.00306796"


@st.composite
def hypothesis_competitors(draw):
    """An instance and a chain from A with every |curvature| at most
    1/R_a and length at least R_a * Omega: arcs of radius 1-4 R_a of
    either sign and segments, from a heading up to 1 rad off alpha."""
    rng = make_rng(draw(st.integers(0, 2**32)))
    inst = random_instance(rng, omega=draw(st.floats(0.05, math.pi - 0.05)))
    ra = arc_radius(inst)
    builder = PathBuilder(inst.A, inst.alpha.angle() + draw(st.floats(-1.0, 1.0)))
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            builder.line(draw(st.floats(0.01, 2.0)) * ra)
        else:
            sweep = draw(st.floats(0.01, 2.5)) * draw(st.sampled_from([-1.0, 1.0]))
            builder.arc(draw(st.floats(1.0, 4.0)) * ra, sweep)
    builder.line(ra * inst.omega)
    return inst, builder.build()


@settings(deadline=None, max_examples=150)
@given(hypothesis_competitors())
def test_theta_phi_bound_is_the_start_value(case):
    # kappa <= e makes g nonincreasing, so its supremum is g(0+): the
    # frame's starting heading, which a mirrored frame takes from z's end
    inst, z = case
    sol = synthesize(inst)
    theta0 = oriented_angle(inst.alpha, z.start_tangent)
    sweeps = [p.sweep_angle for p in z.primitives]
    frame = canonical_frame(inst)
    start = frame.omega - (theta0 + sum(sweeps)) if frame.mirrored else theta0
    scale = abs(theta0) + sum(abs(w) for w in sweeps) + math.pi
    got = theta_phi_bound(inst, sol, z)
    assert abs(got - start) <= 4 * (len(sweeps) + 2) * math.ulp(scale)


def test_zeta0_closed_form_identity_case(worked_instance):
    ra = arc_radius(worked_instance)
    assert zeta0_closed_form(worked_instance, ra, ra, 0.0, 0.0) == 0.0


def test_zeta0_closed_form_d1_coefficient(worked_instance):
    # omega = 3*pi/4: the d1 coefficient is -sin(3*pi/4) = -sqrt(2)/2
    ra = arc_radius(worked_instance)
    val = zeta0_closed_form(worked_instance, ra, ra, 0.1, 0.0)
    assert val == pytest.approx(-math.sin(3.0 * math.pi / 4.0) * 0.1, abs=1e-15)
    assert val == pytest.approx(-0.0707107, abs=1e-7)


def test_zeta0_coefficient_signs_wide_angles():
    for omega in np.linspace(math.pi / 2.0, math.pi - 1e-6, 200):
        a, b, c, f = zeta0_coefficients(float(omega))
        assert a < 0 and b < 0 and c < 0 and f < 0
    # product identity for the first coefficient
    for omega in np.linspace(0.1, math.pi - 0.1, 50):
        a, _, _, _ = zeta0_coefficients(float(omega))
        assert a == pytest.approx(
            -2.0 * math.sin(0.75 * omega) * math.sin(0.25 * omega), abs=1e-14)


def test_zeta0_closed_form_vs_geometric_randomized():
    rng = make_rng(88)
    for inst in instances(seed=88, count=40, omega_lo=math.pi / 2.0):
        ra = arc_radius(inst)
        for _ in range(25):
            r1 = rng.uniform(0.1, 3.0) * ra
            r2 = rng.uniform(0.1, 3.0) * ra
            d1 = rng.uniform(0.0, 2.0) * inst.diameter
            d2 = rng.uniform(0.0, 2.0) * inst.diameter
            closed = zeta0_closed_form(inst, r1, r2, d1, d2)
            geometric = zeta0_geometric(inst, r1, r2, d1, d2)
            assert abs(closed - geometric) <= 1e-9 * max(1.0, inst.diameter)


def test_zeta0_agreement_narrow_angles():
    # the affine form holds for every turning angle, not just the wide
    # regime where all coefficients are negative
    rng = make_rng(89)
    for inst in instances(seed=89, count=20, omega_hi=math.pi / 2.0):
        ra = arc_radius(inst)
        for _ in range(20):
            args = (rng.uniform(0.1, 3.0) * ra, rng.uniform(0.1, 3.0) * ra,
                    rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
            assert zeta0_closed_form(inst, *args) == pytest.approx(
                zeta0_geometric(inst, *args), abs=1e-9)


def test_zeta0_single_arc_family_identity(worked_instance):
    # with equal radii and no middle segment the certificate collapses to
    # (cos(omega) - 1)(R - R_a) + c d1, negative whenever R > R_a or d1 > 0
    ra = arc_radius(worked_instance)
    om = worked_instance.omega
    a, b, c, _ = zeta0_coefficients(om)
    assert a + b == pytest.approx(math.cos(om) - 1.0, abs=1e-15)
    for r, d1 in ((1.4 * ra, 0.0), (ra, 0.3), (0.7 * ra, 0.2)):
        expected = (math.cos(om) - 1.0) * (r - ra) + c * d1
        assert zeta0_closed_form(worked_instance, r, r, d1, 0.0) == pytest.approx(
            expected, abs=1e-15)
    assert zeta0_closed_form(worked_instance, 1.4 * ra, 1.4 * ra, 0.0, 0.0) < 0.0
    assert zeta0_closed_form(worked_instance, ra, ra, 0.3, 0.0) < 0.0


def test_zeta0_negative_above_optimum(worked_instance):
    # both radii above R_a with any straight run: strictly negative
    ra = arc_radius(worked_instance)
    assert zeta0_closed_form(worked_instance, 1.2 * ra, 1.1 * ra, 0.0, 0.0) < 0.0
    assert zeta0_geometric(worked_instance, 1.2 * ra, 1.1 * ra, 0.0, 0.0) < 0.0


def test_zeta0_nonnegative_for_admissible_composites():
    # membership in the admissible set forces the certificate >= 0; combined
    # with the <= 0 branch above this pins the optimum at equality
    for inst in instances(seed=31, count=10, omega_lo=math.pi / 2.0):
        ra = arc_radius(inst)
        for frac1, frac2 in ((0.5, 0.5), (0.8, 0.3), (0.95, 0.95)):
            comp = composite_solve(inst, frac1 * ra, frac2 * ra)
            assert comp is not None
            val = zeta0_closed_form(inst, comp.r1, comp.r2, comp.d1, comp.d2)
            assert val >= -1e-9 * inst.diameter


def test_uv_optimal_curve(worked_instance):
    sol = synthesize(worked_instance)
    u0, v0 = tangent_intercepts(sol.curve, worked_instance, sol.curve.length)
    assert u0 == pytest.approx(worked_instance.oa, abs=1e-9)
    assert v0 == pytest.approx(worked_instance.ob, abs=1e-9)


def test_uv_symmetric_instance(symmetric_instance):
    sol = synthesize(symmetric_instance)
    u0, v0 = tangent_intercepts(sol.curve, symmetric_instance, sol.curve.length)
    assert u0 == pytest.approx(1.0, abs=1e-9)
    assert v0 == pytest.approx(1.0, abs=1e-9)


def test_uv_undefined_on_initial_straight_run(worked_instance):
    sol = synthesize(worked_instance)
    assert not sol.arc_first
    with pytest.raises(UndefinedHeading):
        tangent_intercepts(sol.curve, worked_instance, 0.5 * sol.segment_length)


def test_uv_reconstructs_tangent_intersection(worked_instance):
    # (u, v) parameterize the intersection Q of the running tangent with
    # the line through A along alpha: Q = A + u*alpha and point = Q + v*T
    inst = worked_instance
    sol = synthesize(inst)
    s0 = sol.segment_length  # heading is zero before the arc starts
    for frac in (0.3, 0.6, 0.9, 1.0):
        s = s0 + frac * (sol.curve.length - s0)
        u, v = tangent_intercepts(sol.curve, inst, s)
        point, tangent, _ = sol.curve.evaluate(s)
        q = inst.A + inst.alpha * u
        residual = (point - q) - tangent * v
        assert residual.norm() <= 1e-9 * inst.diameter


def test_u_nondecreasing_along_admissible_curves():
    # the intercept u(s) grows monotonically once the heading leaves zero
    for inst in instances(seed=33, count=10):
        ra = arc_radius(inst)
        for curve in (synthesize(inst).curve, dubins_curve(inst, 0.5 * ra).curve):
            values = []
            for frac in np.linspace(0.05, 1.0, 40):
                s = float(frac) * curve.length
                try:
                    u, _ = tangent_intercepts(curve, inst, s)
                except UndefinedHeading:
                    continue
                values.append(u)
            assert len(values) >= 2
            assert all(b - a >= -1e-9 * inst.diameter
                       for a, b in zip(values, values[1:]))


def test_uv_positive_for_generated_members():
    for inst in instances(seed=32, count=25):
        ra = arc_radius(inst)
        members = [synthesize(inst).curve,
                   dubins_curve(inst, 0.6 * ra).curve,
                   composite_solve(inst, 0.7 * ra, 0.5 * ra).curve]
        for curve in members:
            u0, v0 = tangent_intercepts(curve, inst, curve.length)
            assert u0 > 0.0 and v0 > 0.0
            assert u0 == pytest.approx(inst.oa, abs=1e-9 * inst.diameter)
            assert v0 == pytest.approx(inst.ob, abs=1e-9 * inst.diameter)


def test_monotone_gap_functions_narrow_angle():
    # for omega < pi/2 the frame gaps xhat - x and yhat - y of an admissible
    # competitor at the curvature bound are monotone; the only such
    # competitor is the optimal curve itself, where both gaps vanish
    inst = make_instance(Vec2(0, 0), Vec2(0, 1),
                         Vec2(2.0 * math.cos(-0.3), 2.0 * math.sin(-0.3)))
    assert inst.omega < math.pi / 2.0
    sol = synthesize(inst)
    gaps = frame_gaps_pointwise(inst, sol, sol.curve, 256)
    gx, gy = np.array([row[1] for row in gaps]), np.array([row[2] for row in gaps])
    assert np.all(np.diff(gx) >= -1e-9)
    assert np.all(np.diff(gy) <= 1e-9)
    assert np.abs(gx).max() <= 1e-12 and np.abs(gy).max() <= 1e-12
    prof = zeta_profile(inst, sol, sol.curve, n=256)
    assert np.abs(prof).max() <= 1e-12


def test_boundary_angle_both_certificate_paths(arc_first_instance):
    # omega = pi/2 sits on the boundary between the two proof regimes;
    # the profile certificate and the composite closed form must agree
    # that the optimum is the unique zero
    inst = arc_first_instance
    assert inst.omega == pytest.approx(math.pi / 2.0)
    sol = synthesize(inst)
    prof = zeta_profile(inst, sol, sol.curve, n=512)
    assert np.abs(prof).max() <= 1e-12
    comp = composite_solve(inst, sol.radius, sol.radius)
    closed = zeta0_closed_form(inst, comp.r1, comp.r2, comp.d1, comp.d2)
    geo = zeta0_geometric(inst, comp.r1, comp.r2, comp.d1, comp.d2)
    assert abs(closed) <= 1e-12 and abs(geo) <= 1e-12


def test_make_certificate_optimal(worked_instance):
    sol = synthesize(worked_instance)
    cert = make_certificate(worked_instance, sol, sol.curve, n=256)
    assert cert.e == 1.0 / sol.radius
    assert abs(cert.zeta0) <= 1e-9
    assert cert.theta_phi_max_excess <= 1e-9
    assert cert.support_min_residual >= -1e-12
    assert cert.u0 > 0.0 and cert.v0 > 0.0
    payload = cert.as_dict()
    assert set(payload) == {"zeta0", "supportMinResidual", "thetaPhiMaxExcess",
                            "u0", "v0", "e"}


def test_make_certificate_zeta0_is_the_profile_end(worked_instance, arc_first_instance):
    # make_certificate reads zeta_0 from a one-step profile; it must be the
    # last entry of the sampled profile, bit for bit
    cases = []
    for inst in (worked_instance, arc_first_instance):
        sol = synthesize(inst)
        cases.append((inst, sol, sol.curve))
    sol = synthesize(worked_instance)
    comp = composite_solve(worked_instance, sol.radius, sol.radius)
    cases.append((worked_instance, sol, comp.curve))
    for inst, sol, z in cases:
        zeta0 = make_certificate(inst, sol, z).zeta0
        assert zeta0.hex() == float(zeta_profile(inst, sol, z, n=512)[-1]).hex()


def test_make_certificate_hypothesis_not_applicable(worked_instance):
    sol = synthesize(worked_instance)
    tight = dubins_curve(worked_instance, 0.5 * sol.radius)
    cert = make_certificate(worked_instance, sol, tight.curve, n=128)
    assert cert.zeta0 is None and cert.theta_phi_max_excess is None
    assert cert.e == pytest.approx(2.0 / sol.radius)
    assert cert.u0 > 0.0 and cert.v0 > 0.0
