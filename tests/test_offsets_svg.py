import json
import math
import random
import re
from itertools import accumulate
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arcline import (
    Arc,
    InternalError,
    InvalidInput,
    PathBuilder,
    PiecewiseCurve,
    Segment,
    Vec2,
    make_instance,
    offset,
    synthesize,
    to_svg,
)
from arcline.cli import main
from arcline.curves import MAX_START_ANGLE, _primitive_extent
from arcline.offsets import MAX_OFFSET_REL
from conftest import WORKED_RA, float_bits, instance_competitors, instances
from oracles import offset_vec, random_instance, sample_arrays, similarity_transform, \
    to_svg_two_pass


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


def test_offset_distance_bound():
    # up to MAX_OFFSET_REL times the curve's extent the outer offsets of
    # random optimal curves pass the G1 check (the inner ones, past every
    # arc's center, are degenerate); beyond it, and at a non-finite
    # distance, offset raises InvalidInput naming the distance and the
    # bound, where it used to fail inside the G1 check or on a coincident
    # segment
    rng = random.Random(3)
    for _ in range(300):
        curve = synthesize(random_instance(rng)).curve
        bound = MAX_OFFSET_REL * max(map(_primitive_extent, curve.primitives))
        assert offset(curve, 0.99 * bound).degenerate
        beyond = 1.01 * bound
        with pytest.raises(InvalidInput, match=f"{re.escape(repr(beyond))} exceeds "
                                               f"{re.escape(repr(bound))}"):
            offset(curve, beyond)
    for distance in (1e300, math.inf, math.nan):
        with pytest.raises(InvalidInput, match="offset distance"):
            offset(curve, distance)
    # where 1e3 times the extent overflows, an infinite distance is still
    # rejected as one
    huge = PiecewiseCurve([Segment(Vec2(0.0, 0.0), Vec2(1e306, 0.0))])
    with pytest.raises(InvalidInput, match="positive and finite"):
        offset(huge, math.inf)


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
                    q = Vec2(*sp.evaluate_row(float(frac) * sp.length)[:2])
                    p = Vec2(*bp.evaluate_row(float(frac) * bp.length)[:2])
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


def stored_bits(curve: PiecewiseCurve) -> list:
    """Every float a curve and its primitives store, as hex, with each
    primitive's type."""
    out = [float_bits([curve.length, list(curve.breaks), list(curve._turn_breaks),
                       curve._max_curvature])]
    for p in curve.primitives:
        values = []
        for name in p.__slots__:
            v = getattr(p, name)
            values += [v.x, v.y] if isinstance(v, Vec2) else [v]
        out.append((type(p).__name__, float_bits(values)))
    return out


def offset_outcome(fn, curve: PiecewiseCurve, distance: float):
    """fn(curve, distance), or the message it raises."""
    try:
        return fn(curve, distance)
    except InvalidInput as exc:
        return str(exc)


def assert_offset_matches_oracle(curve: PiecewiseCurve, distance: float) -> None:
    """offset against the `Vec2` form in `oracles`: every arc bit for bit;
    every shifted segment's ends bit for bit, and its length and direction
    those of its base segment, which the earlier form re-derived from the
    shifted ends.  Where that re-derived direction turned a joint past
    ANG_TOL the earlier form raised, and the kept direction may pass."""
    got = offset_outcome(offset, curve, distance)
    old = offset_outcome(offset_vec, curve, distance)
    if isinstance(old, str) and "tangent gap" in old and not isinstance(got, str):
        return
    if isinstance(old, str) or isinstance(got, str):
        assert got == old
        return
    assert (got.distance, got.degenerate) == (old.distance, old.degenerate)
    bases = [p for p in curve.primitives if isinstance(p, Segment)]
    for new_side, old_side in ((got.left, old.left), (got.right, old.right)):
        assert [type(p) for p in new_side.primitives] == [type(q) for q in old_side.primitives]
        segments = iter(bases)
        for p, q in zip(new_side.primitives, old_side.primitives):
            if isinstance(p, Segment):
                base = next(segments)
                assert float_bits([p.start.x, p.start.y, p.end.x, p.end.y]) == \
                    float_bits([q.start.x, q.start.y, q.end.x, q.end.y])
                assert float_bits([p.length, p.direction.x, p.direction.y]) == \
                    float_bits([base.length, base.direction.x, base.direction.y])
            else:
                assert stored_bits(PiecewiseCurve([p]))[1] == stored_bits(PiecewiseCurve([q]))[1]
        assert float_bits([list(new_side._turn_breaks), new_side._max_curvature]) == \
            float_bits([list(old_side._turn_breaks), old_side._max_curvature])
        assert list(new_side.breaks) == list(accumulate([0.0] + [p.length for p in
                                                                 new_side.primitives]))


#: offset distances, as fractions of a curve's smallest arc radius: inside
#: it, just inside, on it and within 1.5 POS_REL of it either way (the arc
#: collapses within POS_REL), and past it (antipodal arcs)
RADIUS_FRACTIONS = (0.25, 0.999, 1.0 - 1.5e-9, 1.0, 1.0 + 1.5e-9, 1.5, 3.0)


def assert_offsets_and_svg_match_oracles(curves: list[PiecewiseCurve]) -> None:
    """offset and to_svg against their Vec2 / two-pass forms, by
    `assert_offset_matches_oracle` and character for character, at every
    radius fraction (of the length, on a curve without arcs)."""
    assert to_svg(curves) == to_svg_two_pass(curves)
    for curve in curves:
        rmin = min([p.radius for p in curve.primitives if isinstance(p, Arc)] or [curve.length])
        for f in RADIUS_FRACTIONS:
            assert_offset_matches_oracle(curve, f * rmin)
            result = offset_outcome(offset, curve, f * rmin)
            if not isinstance(result, str):
                sides = [curve, result.left, result.right]
                assert to_svg(sides) == to_svg_two_pass(sides)


@settings(deadline=None, max_examples=60)
@given(instance_competitors())
def test_offsets_and_svg_match_oracles(case):
    _, _, competitors = case
    assert_offsets_and_svg_match_oracles(competitors)
    assert_offsets_and_svg_match_oracles([z.reversed_copy() for z in competitors])


@settings(deadline=None, max_examples=60)
@given(st.floats(0.0, 16.0), st.booleans(), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
       st.floats(-3.0, 3.0), st.floats(0.05, 6.2), st.booleans())
def test_offsets_and_svg_match_oracles_near_the_start_angle_bound(
        below, negative, log_radius, cx, cy, sweep, clockwise):
    # arcs starting within 16 rad of +-2**23, alone and followed by a
    # segment along their end tangent
    start = math.copysign(MAX_START_ANGLE - below, -1.0 if negative else 1.0)
    start = math.nextafter(start, 0.0) if abs(start) >= MAX_START_ANGLE else start
    radius = 10.0 ** log_radius
    arc = Arc(Vec2(cx * radius, cy * radius), radius, start, -sweep if clockwise else sweep)
    end, t = arc.end_point, arc.end_tangent
    tail = Segment(end, Vec2(end.x + radius * t.x, end.y + radius * t.y))
    assert_offsets_and_svg_match_oracles(
        [PiecewiseCurve([arc]), PiecewiseCurve([arc, tail])])


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_svg_matches_two_pass_on_zero_coordinates(zero):
    # coordinates and negated ys of either sign of zero are written "0"
    # (the document and the oracle's agree), on segments and arcs on the axes
    # and on their offsets
    origin = Vec2(zero, zero)
    curves = [PiecewiseCurve([Segment(origin, Vec2(1.0, zero))]),
              PiecewiseCurve([Segment(origin, Vec2(zero, -1.0))]),
              PathBuilder(origin, 0.0).line(1.0).arc(1.0, 0.5 * math.pi).line(1.0).build()]
    assert_offsets_and_svg_match_oracles(curves)
    assert "-0 " not in to_svg(curves) and "-0\"" not in to_svg(curves)


def nearly_equal_legs(rng: random.Random, eps: float) -> tuple[Vec2, Vec2, Vec2]:
    """(O, A, B) with OA = 1 and OB = 1 + eps, at a random pose and apex,
    turning by 0.2 .. 2.9 rad either way."""
    pose = rng.uniform(-math.pi, math.pi)
    turn = rng.uniform(0.2, 2.9) * rng.choice([-1.0, 1.0])
    O = Vec2(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    alpha = Vec2(math.cos(pose), math.sin(pose))
    beta = Vec2(math.cos(pose + turn), math.sin(pose + turn))
    return O, O - alpha, O + beta * (1.0 + eps)


@pytest.mark.parametrize("eps", [1e-7, 1e-8])
def test_offsets_on_nearly_equal_legs(tmp_path, capsys, eps):
    # the optimum's segment is eps long; an offset segment whose direction
    # was re-derived from its shifted ends turned its joints by more than
    # ANG_TOL, and offset and `solve --offset` failed with "tangent gap" on
    # 15 of the 130 solved draws at 1e-7 and 21 of 36 at 1e-8
    rng = random.Random(5)
    solved = 0
    for _ in range(200):
        O, A, B = nearly_equal_legs(rng, eps)
        try:
            sol = synthesize(make_instance(O, A, B))
        except InternalError:
            continue  # the optimum itself fails to close (ROADMAP item 3)
        solved += 1
        d = 0.25 * sol.radius
        result = offset(sol.curve, d)
        bases = [p for p in sol.curve.primitives if isinstance(p, Segment)]
        for side in (result.left, result.right):
            shifted = [p for p in side.primitives if isinstance(p, Segment)]
            assert [(p.direction, p.length) for p in shifted] == \
                [(p.direction, p.length) for p in bases]
        inst = json.dumps({"A": [A.x, A.y], "O": [O.x, O.y], "B": [B.x, B.y]})
        svg = tmp_path / "near.svg"
        assert main(["solve", "--input", inst, "--svg", str(svg), "--offset", repr(d)]) == 0
        assert svg.read_text().count("<path") == 3
        capsys.readouterr()
    assert solved >= 30
