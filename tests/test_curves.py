import math
from functools import partial

import numpy as np
import pytest

from arcline import (
    Arc,
    InternalError,
    InvalidInput,
    OutOfRange,
    PathBuilder,
    PiecewiseCurve,
    Segment,
    Vec2,
    check_membership,
    curve_from_json,
    curve_to_json,
    heading,
    make_instance,
    max_curvature,
    principal_angle,
    similarity_transform,
    synthesize,
)
from arcline import curves
from arcline.geometry import ANG_TOL
from conftest import WORKED_RA, instances, rigid_motion, sample_points
from oracles import numeric_curvature, sample_arrays, turning_at


def quarter_arc():
    # unit-radius CCW arc, center (0,1), starting at the origin heading +x
    return PiecewiseCurve([Arc(Vec2(0, 1), 1.0, -math.pi / 2, math.pi / 2)])


def test_evaluate_quarter_arc():
    point, tangent, curv = quarter_arc().evaluate(math.pi / 2)
    assert point.x == pytest.approx(1.0, abs=1e-15)
    assert point.y == pytest.approx(1.0, abs=1e-15)
    assert tangent.x == pytest.approx(0.0, abs=1e-15)
    assert tangent.y == pytest.approx(1.0, abs=1e-15)
    assert curv == 1.0


def test_evaluate_segment():
    seg = PiecewiseCurve([Segment(Vec2(0, 0), Vec2(2, 0))])
    point, tangent, curv = seg.evaluate(1.0)
    assert point == Vec2(1.0, 0.0)
    assert tangent == Vec2(1.0, 0.0)
    assert curv == 0.0


def test_evaluate_out_of_range():
    seg = PiecewiseCurve([Segment(Vec2(0, 0), Vec2(2, 0))])
    with pytest.raises(OutOfRange):
        seg.evaluate(2.5)
    with pytest.raises(OutOfRange):
        seg.evaluate(-0.5)
    # slack just inside the clamp
    seg.evaluate(2.0 + 1e-13)


def test_worked_curve_curvature_jump(worked_instance):
    # optimal curve here runs segment first (OA > OB): curvature jumps from
    # 0 to 1/R_a at the joint s = (sqrt(2)-1)/2, then back to 0 is never hit
    sol = synthesize(worked_instance)
    joint = sol.segment_length
    _, _, before = sol.curve.evaluate(joint - 1e-9)
    _, _, at = sol.curve.evaluate(joint)
    assert before == 0.0
    assert at == pytest.approx(1.0 / WORKED_RA, rel=1e-12)
    assert at == pytest.approx(4.8284271, rel=1e-6)
    # total length = segment + R_a * Omega
    assert sol.curve.length == pytest.approx(joint + WORKED_RA * worked_instance.omega)
    assert WORKED_RA * worked_instance.omega == pytest.approx(0.4879839, abs=1e-6)


def test_heading_boundary_values(worked_instance):
    sol = synthesize(worked_instance)
    assert heading(sol.curve, worked_instance, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert heading(sol.curve, worked_instance, sol.curve.length) == pytest.approx(
        worked_instance.omega, abs=1e-12)


def test_heading_linear_on_arc(arc_first_instance):
    # arc-first layout: phi grows linearly at rate 1/R_a on [0, l]
    sol = synthesize(arc_first_instance)
    assert sol.arc_first
    arc_len = sol.radius * arc_first_instance.omega
    for frac in (0.25, 0.5, 0.75):
        s = frac * arc_len
        assert heading(sol.curve, arc_first_instance, s) == pytest.approx(
            s / sol.radius, abs=1e-12)


def test_membership_of_optimal_curve(worked_instance):
    sol = synthesize(worked_instance)
    report = check_membership(sol.curve, worked_instance)
    assert report.in_e
    assert report.endpoint_b_residual <= 1e-9 * worked_instance.diameter


def test_membership_truncated_curve_fails(worked_instance):
    sol = synthesize(worked_instance)
    truncated = PiecewiseCurve(sol.curve.primitives[:-1])
    report = check_membership(truncated, worked_instance)
    assert report.endpoint_b_residual > 1e-9 * worked_instance.diameter
    assert not report.in_e


def test_membership_clockwise_arc_fails(worked_instance):
    # CCW quarter, CW quarter, CCW quarter: an S-wiggle, never admissible
    b = PathBuilder(worked_instance.A, worked_instance.alpha.angle())
    b.arc(0.2, math.pi / 4).arc(0.2, -math.pi / 4).arc(0.2, math.pi / 4)
    report = check_membership(b.build(), worked_instance)
    assert not report.curvature_nonnegative
    assert not report.phi_monotone
    assert not report.in_e


def test_membership_rigid_motion_invariant():
    for inst in instances(seed=11, count=10):
        sol = synthesize(inst)
        moved_inst = similarity_transform(inst, 1.1, 1.0, Vec2(-3.0, 2.5))
        moved_curve = rigid_motion(sol.curve, 1.1, Vec2(-3.0, 2.5))
        rep = check_membership(moved_curve, moved_inst)
        base = check_membership(sol.curve, inst)
        assert rep.in_e == base.in_e == True  # noqa: E712


def test_reversal_duality(worked_instance):
    sol = synthesize(worked_instance)
    rev = sol.curve.reversed_copy()
    # reversed traversal turns clockwise: heading decreases by omega overall
    assert rev.turning(rev.length) == pytest.approx(-worked_instance.omega)
    assert all(p.sweep_angle <= 0.0 for p in rev.primitives)
    assert (rev.start_point - sol.curve.end_point).norm() < 1e-15
    # reversing twice restores the original samples
    double = rev.reversed_copy()
    s = np.linspace(0.0, sol.curve.length, 64)
    p0, _, _ = sample_arrays(sol.curve, s)
    p1, _, _ = sample_arrays(double, s)
    assert np.abs(p0 - p1).max() < 1e-12


@pytest.mark.parametrize("start, sweep", [(8388607.5, 1.0), (-8388607.5, -1.0),
                                          (8388606.0, 6.0), (1.0, 2.0), (-8388600.0, -1.0)])
def test_arc_reversed_near_the_start_angle_bound(start, sweep):
    # start + sweep may pass 2**23; the reversed arc then starts one whole
    # turn lower, at the same point, and arcs inside the bound keep start + sweep
    arc = Arc(Vec2(0.0, 0.0), 1.0, start, sweep)
    rev = arc.reversed()
    assert abs(rev.start_angle) < curves.MAX_START_ANGLE
    if abs(start + sweep) < curves.MAX_START_ANGLE:
        assert rev.start_angle == start + sweep
    assert (rev.start_point - arc.end_point).norm() < 1e-8
    assert (rev.end_point - arc.start_point).norm() < 1e-8


def test_max_curvature_examples(worked_instance):
    assert max_curvature(PiecewiseCurve([Segment(Vec2(0, 0), Vec2(1, 0))])) == 0.0
    sol = synthesize(worked_instance)
    assert max_curvature(sol.curve) == 1.0 / sol.radius
    b = PathBuilder()
    b.arc(0.3, 0.5).arc(0.5, 0.5)
    assert max_curvature(b.build()) == 1.0 / 0.3


def test_path_builder_arcs_far_from_origin_stay_g1():
    # start angles come from the heading, not from coordinates 1e7 away,
    # so millimetre arcs there still meet tangentially
    curve = PathBuilder(Vec2(1e7, -1e7), 0.3).arc(1e-3, 1.0).arc(2e-3, -0.5).build()
    first, second = curve.primitives
    assert first.start_angle == principal_angle(0.3 - 0.5 * math.pi)
    assert second.start_angle == principal_angle(1.3 + 0.5 * math.pi)


def test_build_to_closes_on_target_or_raises_internal_error():
    b = PathBuilder().arc(1.0, 0.5 * math.pi).line(1.0)
    end = b.point
    # the final segment is moved onto a target within tol
    assert b.build_to(end + Vec2(1e-12, 0.0), 1e-9).end_point == end + Vec2(1e-12, 0.0)
    with pytest.raises(InternalError, match="from its target"):
        b.build_to(end + Vec2(1e-6, 0.0), 1e-9)
    # moved this far, the segment bends away from the arc's end tangent
    with pytest.raises(InternalError, match="not G1"):
        b.build_to(end + Vec2(1e-6, 0.0), 1e-5)


def test_sample_polyline_counts():
    # equally spaced samples through sample_at include both ends
    seg = PiecewiseCurve([Segment(Vec2(0, 0), Vec2(4, 0))])
    assert sample_points(seg, 1) == [Vec2(0.0, 0.0), Vec2(4.0, 0.0)]
    assert [p.x for p in sample_points(seg, 4)] == [0.0, 1.0, 2.0, 3.0, 4.0]
    pts, tans, curv = sample_arrays(seg, np.array([]))
    assert pts.shape == (0, 2) and tans.shape == (0, 2) and curv.shape == (0,)


def test_sample_polyline_chord_convergence():
    arc = quarter_arc()
    errs = []
    for n in (16, 32, 64):
        pts = sample_points(arc, n)
        chord_sum = sum((q - p).norm() for p, q in zip(pts, pts[1:]))
        errs.append(arc.length - chord_sum)
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 > 1.9 and order2 > 1.9


def test_numeric_curvature_on_arc_second_order():
    radius, sweep = 0.7, 2.0
    arc = PiecewiseCurve([Arc(Vec2(0.2, -0.1), radius, 0.3, sweep)])
    errors = []
    for n in (200, 400):
        kappa = numeric_curvature(sample_points(arc, n))
        errors.append(max(abs(k - 1.0 / radius) for k in kappa))
    h = arc.length / 200
    assert errors[0] <= 2.0 * h * h / (24.0 * radius ** 3) + 1e-12
    order = math.log2(errors[0] / errors[1])
    assert order >= 1.9


def test_max_curvature_matches_numeric_estimate(worked_instance):
    sol = synthesize(worked_instance)
    n = 2000
    h = sol.curve.length / n
    estimate = max(abs(k) for k in numeric_curvature(sample_points(sol.curve, n)))
    exact = max_curvature(sol.curve)
    # chordal normalization overestimates |kappa| by h^2/(24 R^2) relative
    assert abs(estimate - exact) <= 2.0 * exact * h * h / (24.0 * sol.radius ** 2)


def test_numeric_curvature_collinear():
    pts = [Vec2(float(i), 2.0) for i in range(10)]
    assert numeric_curvature(pts) == [0.0] * 10


def test_numeric_curvature_needs_three_points():
    with pytest.raises(InvalidInput):
        numeric_curvature([Vec2(0, 0), Vec2(1, 0)])


def test_numeric_curvature_on_worked_parabola():
    # quadratic through the worked control points: max curvature 5*sqrt(5)
    a, o, b = Vec2(0.5, -0.5), Vec2(0.0, 0.0), Vec2(0.0, -0.5)

    def bez(t):
        u = 1.0 - t
        return a * (u * u) + o * (2 * u * t) + b * (t * t)

    ts = np.linspace(0.55, 0.65, 400)
    pts = [bez(float(t)) for t in ts]
    kmax = max(abs(k) for k in numeric_curvature(pts))
    assert kmax == pytest.approx(5.0 * math.sqrt(5.0), rel=1e-4)
    assert kmax == pytest.approx(11.1803, rel=1e-3)


def test_sample_at_out_of_range():
    seg = PiecewiseCurve([Segment(Vec2(0, 0), Vec2(2, 0))])
    with pytest.raises(OutOfRange):
        seg.sample_at(np.array([0.0, 2.5]))
    pts, tans, curv = sample_arrays(seg, np.array([0.0, 1.0, 2.0]))
    assert pts.shape == (3, 2) and tans.shape == (3, 2) and curv.shape == (3,)


@pytest.mark.parametrize("name", ["evaluate", "turning", "turning_at", "sample_at"])
def test_nan_arc_length_out_of_range(name):
    curve = PathBuilder().line(1.0).arc(1.0, 1.0).build()
    method = partial(turning_at, curve) if name == "turning_at" else getattr(curve, name)
    arg = np.array([0.0, math.nan]) if name in ("turning_at", "sample_at") else math.nan
    with pytest.raises(OutOfRange):
        method(arg)


def test_g1_validation():
    gap = [Segment(Vec2(0, 0), Vec2(1, 0)), Segment(Vec2(1, 0.1), Vec2(2, 0.1))]
    with pytest.raises(InvalidInput):
        PiecewiseCurve(gap)
    corner = [Segment(Vec2(0, 0), Vec2(1, 0)), Segment(Vec2(1, 0), Vec2(2, 1))]
    with pytest.raises(InvalidInput):
        PiecewiseCurve(corner)


def test_short_primitives_kept_and_judged_at_their_scale():
    # a curve keeps every piece it is given, however short
    prims = [Segment(Vec2(0, 0), Vec2(1, 0)),
             Arc(Vec2(1, 1), 1.0, -math.pi / 2, 1e-15),
             Segment(Vec2(1, 0), Vec2(2, 0))]
    assert len(PiecewiseCurve(prims).primitives) == 3
    # a chain 1e-12 long is a curve like any other ...
    tiny = PiecewiseCurve([Segment(Vec2(0, 0), Vec2(5e-13, 0)),
                           Segment(Vec2(5e-13, 0), Vec2(1e-12, 0))])
    assert tiny.length == 1e-12
    assert tiny.evaluate(1e-12)[0] == Vec2(1e-12, 0)
    # ... and its joints and arc lengths are judged at its own scale
    with pytest.raises(InvalidInput, match="position gap"):
        PiecewiseCurve([Segment(Vec2(0, 0), Vec2(5e-13, 0)),
                        Segment(Vec2(5e-13, 1e-13), Vec2(1e-12, 1e-13))])
    with pytest.raises(OutOfRange):
        tiny.evaluate(1.5e-12)


def test_arc_invariants():
    with pytest.raises(InvalidInput):
        Arc(Vec2(0, 0), -1.0, 0.0, 1.0)
    with pytest.raises(InvalidInput):
        Arc(Vec2(0, 0), 1.0, 0.0, 2.0 * math.pi)
    with pytest.raises(InvalidInput):
        Arc(Vec2(0, 0), 1.0, 0.0, 0.0)


def test_arc_start_angle_bound():
    # the bound is where one unit in the last place outgrows ANG_TOL
    bound = curves.MAX_START_ANGLE
    below = math.nextafter(bound, 0.0)
    assert math.ulp(below) <= ANG_TOL < math.ulp(bound)
    for a in (below, -below):
        assert Arc(Vec2(0, 0), 1.0, a, 1.0).start_angle == a
    for a in (bound, -bound, 1e17, -1e300, math.inf, math.nan):
        with pytest.raises(InvalidInput, match="start angle"):
            Arc(Vec2(0, 0), 1.0, a, 1.0)


def test_curve_json_roundtrip(worked_instance):
    sol = synthesize(worked_instance)
    obj = curve_to_json(sol.curve)
    again = curve_from_json(obj)
    s = np.linspace(0.0, sol.curve.length, 50)
    p0, _, _ = sample_arrays(sol.curve, s)
    p1, _, _ = sample_arrays(again, s)
    assert np.abs(p0 - p1).max() == 0.0
    assert curve_to_json(again) == obj


@pytest.mark.parametrize("obj", [
    {},
    {"primitives": [{"type": "spline"}]},
    {"primitives": [{"type": "segment", "start": [0, 0]}]},
    {"primitives": [{"type": "arc", "center": [0, 0], "radius": "x",
                     "startAngle": 0, "sweep": 1}]},
])
def test_curve_json_schema_violations(obj):
    with pytest.raises(InvalidInput):
        curve_from_json(obj)
