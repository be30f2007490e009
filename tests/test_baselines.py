import math

import numpy as np
import pytest
from hypothesis import given, settings

from arcline import (
    InvalidInput,
    QuadraticBezier,
    Vec2,
    arc_radius,
    bezier_min_radius,
    compare_report,
)
from conftest import WORKED_RA, float_bits, instance_competitors, instances
from oracles import bezier_min_radius_vec, bezier_velocity


def worked_bezier():
    return QuadraticBezier(Vec2(0.5, -0.5), Vec2(0.0, 0.0), Vec2(0.0, -0.5))


def test_min_radius_worked_example():
    r_min, t_star = bezier_min_radius(worked_bezier())
    assert r_min == pytest.approx(math.sqrt(5.0) / 25.0, rel=1e-12)
    assert r_min == pytest.approx(0.0894427, abs=1e-7)
    assert t_star == pytest.approx(0.6, abs=1e-12)


def test_min_radius_symmetric_apex():
    bez = QuadraticBezier(Vec2(-1, 0), Vec2(0, 1), Vec2(1, 0))
    _, t_star = bezier_min_radius(bez)
    assert t_star == pytest.approx(0.5, abs=1e-12)


def test_min_radius_collinear_is_infinite():
    bez = QuadraticBezier(Vec2(0, 0), Vec2(1, 0), Vec2(2, 0))
    r_min, _ = bezier_min_radius(bez)
    assert math.isinf(r_min)


def test_control_points_must_differ():
    with pytest.raises(InvalidInput):
        QuadraticBezier(Vec2(0, 0), Vec2(0, 0), Vec2(1, 0))


def _bezier_points(bez: QuadraticBezier, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The parabola's points at every t, in Bernstein form."""
    u = 1.0 - ts
    b0, b1, b2 = u * u, 2.0 * u * ts, ts * ts
    return (bez.p0.x * b0 + bez.p1.x * b1 + bez.p2.x * b2,
            bez.p0.y * b0 + bez.p1.y * b1 + bez.p2.y * b2)


def _discrete_curvature(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numeric_curvature's stencil on arrays: the turning between
    consecutive chords over their mean length, at interior nodes."""
    dx, dy = np.diff(x), np.diff(y)
    chords = np.hypot(dx, dy)
    dpsi = np.remainder(np.diff(np.arctan2(dy, dx)) + math.pi, 2.0 * math.pi) - math.pi
    return dpsi / (0.5 * (chords[:-1] + chords[1:]))


def _brute_force_min_radius(bez: QuadraticBezier, n: int = 100_000) -> float:
    """Independent oracle: max of the discrete curvature over n samples.

    The parameter grid is padded so every node of [0, 1] gets a centered
    stencil.  A first pass locates the peak; the second pass evaluates a
    translated copy of the curve (curvature is translation-invariant) so
    the coordinates near the peak are tiny and the 1/h^2 amplification
    of point rounding stays below the requested accuracy.
    """
    ts = np.arange(-2, n + 3) / float(n)
    # interior node k of the stencil is grid node k + 1; [0, 1] is nodes 2..n+2
    inside = slice(1, n + 2)

    def sampled_max(b: QuadraticBezier) -> tuple[float, int]:
        kappa = np.abs(_discrete_curvature(*_bezier_points(b, ts))[inside])
        k = int(np.argmax(kappa))
        return float(kappa[k]), k + 2

    _, j1 = sampled_max(bez)
    x, y = _bezier_points(bez, ts[j1:j1 + 1])
    shift = Vec2(float(x[0]), float(y[0]))
    shifted = QuadraticBezier(bez.p0 - shift, bez.p1 - shift, bez.p2 - shift)
    peak, _ = sampled_max(shifted)
    return 1.0 / peak


def test_min_radius_against_brute_force():
    for inst in instances(seed=55, count=4):
        bez = QuadraticBezier.from_instance(inst)
        r_min, _ = bezier_min_radius(bez)
        assert r_min == pytest.approx(_brute_force_min_radius(bez), rel=1e-6)


def test_tangent_directions_match_instance():
    for inst in instances(seed=56, count=10):
        bez = QuadraticBezier.from_instance(inst)
        v0 = bezier_velocity(bez, 0.0)
        v1 = bezier_velocity(bez, 1.0)
        assert v0.cross(inst.alpha) == pytest.approx(0.0, abs=1e-12 * v0.norm())
        assert v0.dot(inst.alpha) > 0.0
        assert v1.cross(inst.beta) == pytest.approx(0.0, abs=1e-12 * v1.norm())
        assert v1.dot(inst.beta) > 0.0


def test_bezier_never_beats_the_optimum():
    # the parabola is admissible (positive curvature, heading from alpha to
    # beta), so its minimum radius cannot exceed the optimal one; its
    # curvature has the sign of cross(B', B''), constant for a quadratic
    for inst in instances(seed=57, count=50):
        bez = QuadraticBezier.from_instance(inst)
        assert (bez.p1 - bez.p0).cross(bez.p2 - bez.p1) > 0.0
        r_min, _ = bezier_min_radius(bez)
        assert r_min <= arc_radius(inst) * (1.0 + 1e-12)


def test_compare_report_worked_example(worked_instance):
    report = compare_report(worked_instance)
    assert report.bezier_min_radius == pytest.approx(math.sqrt(5.0) / 25.0, rel=1e-12)
    assert report.optimal_min_radius == pytest.approx(WORKED_RA, abs=1e-15)
    expected_ratio = 5.0 * math.sqrt(5.0) * (math.sqrt(2.0) - 1.0) / 2.0
    assert report.improvement_ratio == pytest.approx(expected_ratio, rel=1e-9)
    assert report.improvement_ratio == pytest.approx(2.315, abs=1e-3)
    assert report.improvement_ratio is not None
    assert set(report.as_dict()) == {"bezierMinRadius", "optimalMinRadius",
                                     "improvementRatio"}


def test_compare_report_symmetric(symmetric_instance):
    report = compare_report(symmetric_instance)
    assert report.optimal_min_radius == pytest.approx(1.0)
    assert report.improvement_ratio is not None and report.improvement_ratio > 1.0


@settings(deadline=None, max_examples=100)
@given(instance_competitors())
def test_min_radius_matches_vec2_form(case):
    # the float form gives the Vec2 form's radius and parameter bit for bit:
    # on the instance's parabola, its reversal, and parabolas through each
    # competitor's start, midpoint and end
    inst, _, competitors = case
    beziers = [QuadraticBezier.from_instance(inst), QuadraticBezier(inst.B, inst.O, inst.A)]
    for z in competitors:
        x, y = z.evaluate_row(0.5 * z.length)[:2]
        beziers.append(QuadraticBezier(z.start_point, Vec2(x, y), z.end_point))
    for bez in beziers:
        assert float_bits(bezier_min_radius(bez)) == float_bits(bezier_min_radius_vec(bez))
