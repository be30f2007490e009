import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from arcline import (
    Arc,
    InvalidInput,
    PiecewiseCurve,
    Segment,
    Vec2,
    offset,
    similarity_transform,
    synthesize,
    to_svg,
)
from conftest import WORKED_RA, instances
from oracles import sample_arrays


def test_offset_segment():
    seg = PiecewiseCurve([Segment(Vec2(0, 0), Vec2(1, 0))])
    result = offset(seg, 0.1)
    assert result.left.primitives[0].start == Vec2(0.0, 0.1)
    assert result.left.primitives[0].end == Vec2(1.0, 0.1)
    assert result.right.primitives[0].start == Vec2(0.0, -0.1)
    assert not result.degenerate


def test_offset_rejects_nonpositive_distance():
    seg = PiecewiseCurve([Segment(Vec2(0, 0), Vec2(1, 0))])
    with pytest.raises(InvalidInput):
        offset(seg, 0.0)
    with pytest.raises(InvalidInput):
        offset(seg, -0.5)


def test_offset_worked_curve(worked_instance):
    sol = synthesize(worked_instance)
    result = offset(sol.curve, 0.1)
    assert not result.degenerate
    arcs_left = [p for p in result.left.primitives if isinstance(p, Arc)]
    arcs_right = [p for p in result.right.primitives if isinstance(p, Arc)]
    assert arcs_left[0].radius == pytest.approx(WORKED_RA - 0.1, abs=1e-15)
    assert arcs_right[0].radius == pytest.approx(WORKED_RA + 0.1, abs=1e-15)


def test_offset_degenerate_flag(worked_instance):
    # 0.25 exceeds the inner radius 0.2071: cusp on the inner side
    sol = synthesize(worked_instance)
    result = offset(sol.curve, 0.25)
    assert result.degenerate


@pytest.mark.parametrize("start", [8388607.5, -8388607.5, 1.0])
def test_offset_through_center_near_the_start_angle_bound(start):
    # past the center the offset arc starts at start + pi, which may pass
    # 2**23: it then starts one whole turn lower, at the same point
    arc = Arc(Vec2(0.0, 0.0), 1.0, start, 1.0)
    inner = offset(PiecewiseCurve([arc]), 1.5).left.primitives[0]
    assert inner.radius == 0.5 and abs(inner.start_angle) < 2.0**23
    if start == 1.0:
        assert inner.start_angle == start + math.pi
    assert (inner.start_point - arc.start_point * -0.5).norm() < 1e-8


def test_offset_distance_exactness():
    for inst in instances(seed=61, count=10):
        sol = synthesize(inst)
        result = offset(sol.curve, 0.05 * inst.diameter)
        tol = 1e-9 * inst.diameter
        for side in (result.left, result.right):
            assert len(side.primitives) == len(sol.curve.primitives)
            for bp, sp in zip(sol.curve.primitives, side.primitives):
                for frac in np.linspace(0.0, 1.0, 9):
                    # matched fractions correspond: same radial direction on
                    # arcs, same station on segments
                    q = sp.point_at(float(frac) * sp.length)
                    p = bp.point_at(float(frac) * bp.length)
                    assert math.hypot(q.x - p.x, q.y - p.y) == pytest.approx(
                        result.distance, abs=tol)
                    # and the perpendicular distance to the base primitive
                    if isinstance(bp, Segment):
                        d = abs(bp.direction.cross(q - bp.start))
                    else:
                        d = abs((q - bp.center).norm() - bp.radius)
                    assert abs(d - result.distance) <= tol


def test_offset_clockwise_curve(worked_instance):
    # on a reversed (clockwise) curve the inner side is the right one
    sol = synthesize(worked_instance)
    rev = sol.curve.reversed_copy()
    result = offset(rev, 0.1)
    arcs_left = [p for p in result.left.primitives if isinstance(p, Arc)]
    arcs_right = [p for p in result.right.primitives if isinstance(p, Arc)]
    assert arcs_left[0].radius == pytest.approx(WORKED_RA + 0.1, abs=1e-15)
    assert arcs_right[0].radius == pytest.approx(WORKED_RA - 0.1, abs=1e-15)
    assert not result.degenerate
    assert offset(rev, 0.25).degenerate


def test_offset_roundtrip(worked_instance):
    sol = synthesize(worked_instance)
    back = offset(offset(sol.curve, 0.1).left, 0.1).right
    s = np.linspace(0.0, 1.0, 100)
    p0, _, _ = sample_arrays(sol.curve, s * sol.curve.length)
    p1, _, _ = sample_arrays(back, s * back.length)
    assert np.abs(p0 - p1).max() <= 1e-9 * worked_instance.diameter


def test_svg_structure_and_determinism(worked_instance):
    sol = synthesize(worked_instance)
    result = offset(sol.curve, 0.1)
    doc1 = to_svg([sol.curve, result.left, result.right])
    doc2 = to_svg([sol.curve, result.left, result.right])
    assert doc1 == doc2
    root = ET.fromstring(doc1)
    assert root.tag.endswith("svg")
    paths = [el for el in root if el.tag.endswith("path")]
    assert len(paths) == 3
    assert all(el.get("fill") == "none" for el in paths)


def test_svg_radius_string(worked_instance):
    sol = synthesize(worked_instance)
    doc = to_svg([sol.curve])
    arcs = re.findall(r"A ([0-9.eE+-]+) ", doc)
    assert arcs and arcs[0] == format(sol.radius, ".9g")
    assert arcs[0] == "0.207106781"


def _view_box_and_stroke(doc: str) -> list[float]:
    root = ET.fromstring(doc)
    path = next(el for el in root if el.tag.endswith("path"))
    return [float(v) for v in root.get("viewBox").split()] + [float(path.get("stroke-width"))]


def test_svg_frame_scales_with_the_curve(worked_instance):
    # no absolute floor on the drawing's span: a curve 1e-12 the size has
    # a viewBox and stroke 1e-12 the size
    tiny = similarity_transform(worked_instance, 0.0, 1e-12, Vec2(0.0, 0.0))
    unit = _view_box_and_stroke(to_svg([synthesize(worked_instance).curve]))
    small = _view_box_and_stroke(to_svg([synthesize(tiny).curve]))
    assert small == pytest.approx([1e-12 * v for v in unit], rel=1e-8)


def test_svg_empty_input():
    doc = to_svg([])
    assert 'viewBox="0 0 1 1"' in doc
    ET.fromstring(doc)


def _svg_arc_center(p0, p1, r, large, sweep_flag):
    """Endpoint-to-center conversion from the SVG spec (circular case)."""
    mx, my = 0.5 * (p0[0] - p1[0]), 0.5 * (p0[1] - p1[1])
    d2 = mx * mx + my * my
    s = math.sqrt(max(r * r - d2, 0.0) / d2)
    if large == sweep_flag:
        s = -s
    cx = s * r * my / r + 0.5 * (p0[0] + p1[0])
    cy = s * r * (-mx) / r + 0.5 * (p0[1] + p1[1])
    return cx, cy


def test_svg_arc_command_reconstructs_geometry(worked_instance):
    # parse the emitted path and rebuild the arc per the SVG endpoint
    # parameterization; its center must match the model arc (y-flipped)
    sol = synthesize(worked_instance)
    doc = to_svg([sol.curve])
    d = re.search(r'd="([^"]+)"', doc).group(1)
    tokens = d.split()
    i = tokens.index("A")
    r = float(tokens[i + 1])
    large, sweep_flag = int(tokens[i + 4]), int(tokens[i + 5])
    end = (float(tokens[i + 6]), float(tokens[i + 7]))
    start = (float(tokens[i - 2]), float(tokens[i - 1]))
    cx, cy = _svg_arc_center(start, end, r, large, sweep_flag)
    model_arc = [p for p in sol.curve.primitives if isinstance(p, Arc)][0]
    assert cx == pytest.approx(model_arc.center.x, abs=1e-6)
    assert cy == pytest.approx(-model_arc.center.y, abs=1e-6)
    assert r == pytest.approx(model_arc.radius, abs=1e-9)


def _nine_digit_copy(curve: PiecewiseCurve) -> PiecewiseCurve:
    rounded = []
    for p in curve.primitives:
        if isinstance(p, Segment):
            rounded.append(Segment(
                Vec2(float(format(p.start.x, ".9g")), float(format(p.start.y, ".9g"))),
                Vec2(float(format(p.end.x, ".9g")), float(format(p.end.y, ".9g")))))
        else:
            rounded.append(Arc(
                Vec2(float(format(p.center.x, ".9g")), float(format(p.center.y, ".9g"))),
                float(format(p.radius, ".9g")),
                float(format(p.start_angle, ".9g")),
                float(format(p.sweep, ".9g"))))
    return PiecewiseCurve(rounded, require_g1=False)


def _roundtrip_gap(curve: PiecewiseCurve) -> float:
    again = _nine_digit_copy(curve)
    s = np.linspace(0.0, 1.0, 128)
    p0, _, _ = sample_arrays(curve, s * curve.length)
    p1, _, _ = sample_arrays(again, s * again.length)
    return float(np.abs(p0 - p1).max())


def test_svg_roundtrip_sampling(worked_instance):
    # emitted numbers are 9-significant-digit roundings of the primitives
    sol = synthesize(worked_instance)
    assert _roundtrip_gap(sol.curve) <= 1e-9 * worked_instance.diameter
    for inst in instances(seed=62, count=5):
        assert _roundtrip_gap(synthesize(inst).curve) <= 1e-7 * inst.diameter
