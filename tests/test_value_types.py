"""The value types are immutable, compare by value and store their geometry."""

import copy
import math
import pickle

import pytest

from arcline import (
    Arc,
    ProblemInstance,
    Segment,
    Vec2,
    check_membership,
    synthesize,
)
from arcline.geometry import dist


def test_vec2_equality_and_hash():
    assert Vec2(1, 2) == Vec2(1.0, 2.0)
    assert hash(Vec2(1, 2)) == hash(Vec2(1.0, 2.0))
    assert Vec2(1.0, 2.0) != Vec2(2.0, 1.0)
    assert Vec2(1.0, 2.0) != (1.0, 2.0)
    table = {Vec2(0.5, -0.5): "A"}
    assert table[Vec2(0.5, -0.5)] == "A"
    assert len({Vec2(1, 2), Vec2(1.0, 2.0), Vec2(2.0, 1.0)}) == 2
    assert repr(Vec2(0.5, -0.5)) == "Vec2(x=0.5, y=-0.5)"


def test_assignment_raises(worked_instance):
    sol = synthesize(worked_instance)
    arc = next(p for p in sol.curve.primitives if isinstance(p, Arc))
    seg = next(p for p in sol.curve.primitives if isinstance(p, Segment))
    cases = [(Vec2(1.0, 2.0), "x"), (seg, "start"), (seg, "length"), (arc, "radius"),
             (arc, "end_point"), (worked_instance, "A"), (worked_instance, "pos_tol"),
             (sol, "radius"), (check_membership(sol.curve, worked_instance), "in_e")]
    for obj, name in cases:
        with pytest.raises(AttributeError):
            setattr(obj, name, 0.0)
    with pytest.raises(AttributeError):
        del Vec2(1.0, 2.0).y


def test_segment_has_no_radius():
    seg = Segment(Vec2(0.0, 0.0), Vec2(3.0, 4.0))
    assert not hasattr(seg, "radius")
    assert seg.length == 5.0
    assert seg.direction == Vec2(0.6, 0.8)
    assert seg.start_tangent is seg.end_tangent is seg.direction
    assert (seg.start_point, seg.end_point) == (seg.start, seg.end)
    assert seg.evaluate_row(0.0) == (0.0, 0.0, 0.6, 0.8, 0.0)


@pytest.mark.parametrize("sweep", [0.3, -2.5, 6.0])
def test_arc_stores_what_it_evaluates(sweep):
    arc = Arc(Vec2(1e3, -2.0), 0.7, 4.0, sweep)
    assert arc.length == 0.7 * abs(sweep)
    for s, point, tangent in ((0.0, arc.start_point, arc.start_tangent),
                              (arc.length, arc.end_point, arc.end_tangent)):
        assert arc.evaluate_row(s) == (point.x, point.y, tangent.x, tangent.y,
                                       math.copysign(1.0, sweep) / 0.7)
    assert arc == Arc(Vec2(1e3, -2.0), 0.7, 4.0, sweep)


def test_instance_stores_its_distances(worked_instance):
    inst = worked_instance
    assert inst.oa == dist(inst.O, inst.A)
    assert inst.ob == dist(inst.O, inst.B)
    assert inst.diameter == max(inst.oa, inst.ob, dist(inst.A, inst.B))
    assert inst.pos_tol == 1e-9 * inst.diameter
    same = ProblemInstance(inst.A, inst.B, inst.O, inst.alpha, inst.beta,
                           inst.omega, inst.symmetric, inst.reversed)
    assert same == inst and hash(same) == hash(inst)


def test_values_copy_and_pickle(worked_instance):
    sol = synthesize(worked_instance)
    for obj in (Vec2(1.0, 2.0), worked_instance, *sol.curve.primitives):
        assert copy.deepcopy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj
    curve = pickle.loads(pickle.dumps(sol.curve))
    assert curve.primitives == sol.curve.primitives and curve.breaks == sol.curve.breaks
