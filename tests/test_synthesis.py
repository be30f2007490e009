import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arcline import (
    Arc,
    DegenerateInput,
    InternalError,
    InvalidInput,
    NoAdmissibleCurve,
    Segment,
    Vec2,
    arc_radius,
    check_membership,
    composite_solve,
    dubins_curve,
    illposed_demo,
    instance_from_tangents,
    make_instance,
    max_curvature,
    oriented_angle,
    random_instance,
    similarity_transform,
    synthesize,
)
from arcline.synthesis import canonical_frame
from conftest import WORKED_RA, instances, rigid_motion, symmetric_instances
from oracles import sample_arrays, tangency_oracle


def test_radius_worked_example(worked_instance):
    # 0.5 * tan(pi/8) = (sqrt(2)-1)/2
    assert arc_radius(worked_instance) == pytest.approx(WORKED_RA, abs=1e-15)
    assert arc_radius(worked_instance) == pytest.approx(0.20710678, abs=1e-8)


def test_radius_symmetric_quarter_turn(symmetric_instance):
    assert arc_radius(symmetric_instance) == pytest.approx(1.0, abs=1e-12)
    sol = synthesize(symmetric_instance)
    assert (sol.arc_center - Vec2(1.0, 1.0)).norm() < 1e-12


def test_radius_scales_linearly(worked_instance):
    scaled = similarity_transform(worked_instance, 0.0, 3.5, Vec2(0, 0))
    assert arc_radius(scaled) == pytest.approx(3.5 * arc_radius(worked_instance), rel=1e-14)


def test_synthesize_worked_layout(worked_instance):
    # OA > OB: segment [A, D] first, then the arc ending at B; the arc is
    # tangent at B and D sits on the ray OA at distance OB from O
    sol = synthesize(worked_instance)
    assert not sol.arc_first
    assert isinstance(sol.curve.primitives[0], Segment)
    assert isinstance(sol.curve.primitives[1], Arc)
    assert sol.segment_length == pytest.approx(WORKED_RA, abs=1e-15)
    d = sol.curve.primitives[0].end
    r2 = math.sqrt(2.0) / 4.0
    assert d.x == pytest.approx(r2, abs=1e-12)
    assert d.y == pytest.approx(-r2, abs=1e-12)
    assert (sol.arc_center - Vec2(WORKED_RA, -0.5)).norm() < 1e-12
    assert sol.arc_sweep == worked_instance.omega
    assert (sol.curve.end_point - worked_instance.B).norm() <= 1e-9 * worked_instance.diameter


def test_synthesize_symmetric_is_single_arc(symmetric_instance):
    sol = synthesize(symmetric_instance)
    assert len(sol.curve.primitives) == 1
    assert isinstance(sol.curve.primitives[0], Arc)
    assert sol.segment_length <= 1e-12
    assert sol.radius == pytest.approx(1.0)


def test_arc_first_closed_form(arc_first_instance):
    # in the frame (A, alpha) the arc reads (R sin(s/R), R (1 - cos(s/R)))
    sol = synthesize(arc_first_instance)
    assert sol.arc_first
    frame = canonical_frame(arc_first_instance)
    assert not frame.mirrored
    ra = sol.radius
    for s in np.linspace(0.0, ra * arc_first_instance.omega, 13):
        d = sol.curve.evaluate(float(s))[0] - frame.origin
        assert d.dot(frame.x_axis) == pytest.approx(ra * math.sin(s / ra), abs=1e-12)
        assert d.dot(frame.y_axis) == pytest.approx(ra * (1.0 - math.cos(s / ra)), abs=1e-12)


def test_oracle_agrees_with_closed_form():
    for inst in instances(seed=42, count=1000):
        ra = arc_radius(inst)
        oracle, _ = tangency_oracle(inst)
        assert abs(oracle - ra) <= 1e-10 * ra


def test_oracle_tangency_point_worked(worked_instance):
    # equal tangent lengths: the second tangency sits on ray OA at distance OB
    _, foot = tangency_oracle(worked_instance)
    assert foot.norm() == pytest.approx(worked_instance.ob, abs=1e-9)
    along = (foot - worked_instance.O).dot(-worked_instance.alpha)
    assert along == pytest.approx(worked_instance.ob, abs=1e-9)


def test_oracle_symmetric_instance(symmetric_instance):
    radius, foot = tangency_oracle(symmetric_instance)
    assert radius == pytest.approx(1.0, abs=1e-10)
    # tangency happens at an endpoint itself in the symmetric case
    assert min((foot - symmetric_instance.A).norm(),
               (foot - symmetric_instance.B).norm()) <= 1e-9


def test_optimal_curve_in_e_randomized():
    for inst in instances(seed=1001, count=1000):
        sol = synthesize(inst)
        report = check_membership(sol.curve, inst)
        assert report.in_e, (inst, report)
        assert max_curvature(sol.curve) == 1.0 / sol.radius


def test_synthesize_rotated_symmetric_instances():
    # OA and OB differ by rounding only; no noise-length segment may be built
    for inst in symmetric_instances(11, 400):
        sol = synthesize(inst)
        assert check_membership(sol.curve, inst).in_e
        assert sol.segment_length <= 1e-9 * inst.diameter


def test_synthesize_equivariance():
    for inst in instances(seed=5, count=20):
        sol = synthesize(inst)
        moved = similarity_transform(inst, 0.8, 1.0, Vec2(2.0, -1.0))
        sol_moved = synthesize(moved)
        expected = rigid_motion(sol.curve, 0.8, Vec2(2.0, -1.0))
        s = np.linspace(0.0, sol.curve.length, 100)
        p1, _, _ = sample_arrays(sol_moved.curve, s)
        p2, _, _ = sample_arrays(expected, s)
        assert np.abs(p1 - p2).max() <= 1e-9 * inst.diameter
        scaled = similarity_transform(inst, 0.0, 2.0, Vec2(0.0, 0.0))
        assert synthesize(scaled).radius == pytest.approx(2.0 * sol.radius, rel=1e-12)


def test_swap_symmetry():
    # solving the reversed instance reproduces the same normalized curve
    for inst in instances(seed=6, count=10):
        rev = make_instance(inst.O, inst.B, inst.A)
        assert rev.reversed
        sol = synthesize(inst)
        sol_rev = synthesize(rev)
        s = np.linspace(0.0, sol.curve.length, 64)
        p1, _, _ = sample_arrays(sol.curve, s)
        p2, _, _ = sample_arrays(sol_rev.curve, s)
        assert np.abs(p1 - p2).max() <= 1e-12 * inst.diameter


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e8])
def test_extreme_scales(worked_instance, scale):
    # diameter-relative tolerances keep the pipeline working across units
    inst = similarity_transform(worked_instance, 0.3, scale, Vec2(scale, -scale))
    sol = synthesize(inst)
    assert check_membership(sol.curve, inst).in_e
    assert sol.radius == pytest.approx(scale * WORKED_RA, rel=1e-12)
    oracle, _ = tangency_oracle(inst)
    assert oracle == pytest.approx(sol.radius, rel=1e-10)


DEMO = (Vec2(0, 0), Vec2(1, 0), Vec2(2, 1), Vec2(0, -1))


@pytest.mark.parametrize("radius", [10.0, 1000.0])
def test_illposed_demo_meets_constraints(radius):
    a, alpha, b, beta = DEMO
    curve = illposed_demo(a, alpha, b, beta, radius)
    scale = max(1.0, radius)
    assert (curve.start_point - a).norm() <= 1e-9 * scale
    assert (curve.end_point - b).norm() <= 1e-9 * scale
    assert abs(oriented_angle(curve.start_tangent, alpha)) <= 1e-9
    assert abs(oriented_angle(curve.end_tangent, beta)) <= 1e-9
    # positive curvature, minimum turn radius exactly the requested one
    assert all(p.sweep_angle >= 0.0 for p in curve.primitives)
    assert max_curvature(curve) == pytest.approx(1.0 / radius, rel=1e-15)


def test_illposed_demo_data_rejected_as_instance():
    a, alpha, b, beta = DEMO
    with pytest.raises(NoAdmissibleCurve):
        instance_from_tangents(a, b, alpha, beta)


def test_illposed_demo_infeasible_radius():
    a, alpha, b, beta = DEMO
    # small radii cannot reach B with nonnegative straight runs
    with pytest.raises(DegenerateInput):
        illposed_demo(a, alpha, b, beta, 0.2)


def test_illposed_demo_antiparallel_rejected():
    with pytest.raises(DegenerateInput):
        illposed_demo(Vec2(0, 0), Vec2(1, 0), Vec2(2, 1), Vec2(-1, 0), 10.0)


def test_illposed_demo_bad_radius():
    a, alpha, b, beta = DEMO
    with pytest.raises(InvalidInput):
        illposed_demo(a, alpha, b, beta, -1.0)


@st.composite
def frame_cases(draw):
    """(kind, instance): arc-first (OA < OB), mirrored (OA > OB) or
    exactly symmetric (OA == OB bit for bit, which is arc-first)."""
    kind = draw(st.sampled_from(["arc-first", "mirrored", "symmetric"]))
    if kind == "symmetric":
        return kind, symmetric_instances(draw(st.integers(0, 2**32)), 1, exact=True)[0]
    omega = draw(st.floats(0.1, math.pi - 0.1))
    near = 10.0 ** draw(st.floats(-1.0, 1.0))
    far = near * draw(st.floats(1.05, 4.0))
    pose = draw(st.floats(-math.pi, math.pi))
    turn = omega * draw(st.sampled_from([-1.0, 1.0]))
    # a negative turn is stored reversed, which swaps the legs
    oa, ob = (near, far) if (kind == "arc-first") == (turn > 0.0) else (far, near)
    O = Vec2(draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0)))
    alpha = Vec2(math.cos(pose), math.sin(pose))
    beta = Vec2(math.cos(pose + turn), math.sin(pose + turn))
    return kind, make_instance(O, O - alpha * oa, O + beta * ob)


@settings(deadline=None, max_examples=200)
@given(frame_cases())
def test_canonical_frame_projects_far_endpoint(case):
    # the frame sits at A, or mirrored at B, and the other endpoint
    # projects onto (xb, yb)
    kind, inst = case
    frame = canonical_frame(inst)
    assert frame.mirrored == (kind == "mirrored") == (inst.oa > inst.ob)
    far = (inst.A if frame.mirrored else inst.B) - frame.origin
    tol = 1e-9 * inst.diameter
    assert abs(far.dot(frame.x_axis) - frame.xb) <= tol
    assert abs(far.dot(frame.y_axis) - frame.yb) <= tol


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 2**32), st.floats(-math.pi, math.pi), st.floats(-3.0, 3.0),
       st.floats(0.0, 1e6), st.floats(-math.pi, math.pi))
def test_synthesize_far_from_origin_is_in_e_or_internal_error(seed, rotation, log_scale,
                                                               offset, direction):
    # an instance moved up to 1e6 diameters from the origin: the optimum is
    # admissible, or the construction reports its own failure; it never
    # blames the caller's input
    base = random_instance(random.Random(seed))
    scale = 10.0 ** log_scale
    shift = Vec2(math.cos(direction), math.sin(direction)) * (offset * scale * base.diameter)
    moved = similarity_transform(base, rotation, scale, shift)
    try:
        inst = make_instance(moved.O, moved.A, moved.B)
    except InvalidInput:
        return  # rounding at this offset made the data invalid: not accepted
    try:
        sol = synthesize(inst)
    except InternalError:
        return
    assert check_membership(sol.curve, inst).in_e


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2**32), st.floats(-100.0, 30.0))
def test_constructions_are_scale_invariant(seed, log_scale):
    # every tolerance is relative to its own scene: an instance scaled at
    # the origin by 10**log_scale solves in E through every constructor
    base = random_instance(random.Random(seed))
    scaled = similarity_transform(base, 0.0, 10.0 ** log_scale, Vec2(0.0, 0.0))
    inst = make_instance(scaled.O, scaled.A, scaled.B)
    ra = arc_radius(inst)
    curves = [synthesize(inst).curve, dubins_curve(inst, 0.7 * ra).curve]
    composite = composite_solve(inst, 0.6 * ra, 0.8 * ra)
    if composite is not None:
        curves.append(composite.curve)
    for curve in curves:
        assert check_membership(curve, inst).in_e
