import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from arcline import (
    DegenerateInput,
    IllPosedAngle,
    InvalidInput,
    NoAdmissibleCurve,
    ProblemInstance,
    Vec2,
    instance_from_json,
    instance_from_tangents,
    instance_to_json,
    make_instance,
)
from arcline import instance as instance_module
from arcline.geometry import KAPPA_MAX, POS_REL
from arcline.instance import point_from_json
from conftest import WORKED_A, WORKED_B, WORKED_O, float_bits, instance_competitors, instances
from oracles import normalized_legs, similarity_transform

R2 = math.sqrt(2.0) / 2.0


def test_worked_instance():
    inst = make_instance(WORKED_O, WORKED_A, WORKED_B)
    assert inst.omega == pytest.approx(3.0 * math.pi / 4.0, abs=1e-12)
    assert not inst.symmetric
    assert not inst.reversed
    assert inst.oa == pytest.approx(R2)
    assert inst.ob == pytest.approx(0.5)


def test_symmetric_quarter_turn():
    inst = make_instance(Vec2(0, 0), Vec2(0, 1), Vec2(1, 0))
    assert inst.alpha == Vec2(0, -1)
    assert inst.beta == Vec2(1, 0)
    assert inst.omega == pytest.approx(math.pi / 2, abs=1e-12)
    assert inst.symmetric


def test_collinear_rejected():
    with pytest.raises(IllPosedAngle):
        make_instance(Vec2(0, 0), Vec2(1, 0), Vec2(2, 0))


def test_near_pi_rejected():
    # tangent lines almost anti-aligned
    with pytest.raises(IllPosedAngle):
        make_instance(Vec2(0, 0), Vec2(1, 0), Vec2(-2, 1e-12))


@pytest.mark.parametrize("near_pi", [False, True])
def test_kappa_bound(near_pi):
    # OA = 1, OB = 2: the diameter is |AB| = 3 near omega = 0 and OB = 2
    # near pi, so sin omega = POS_REL * diameter / (KAPPA_MAX * factor)
    # puts kappa at factor * KAPPA_MAX
    for factor, accepted in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
        gap = math.asin(POS_REL * (2.0 if near_pi else 3.0) / (KAPPA_MAX * factor))
        omega = math.pi - gap if near_pi else gap
        O, A = Vec2(0.0, 0.0), Vec2(-1.0, 0.0)
        B = Vec2(2.0 * math.cos(omega), 2.0 * math.sin(omega))
        if accepted:
            inst = make_instance(O, A, B)
            kappa = inst.pos_tol / (min(inst.oa, inst.ob) * math.sin(inst.omega))
            assert kappa == pytest.approx(factor * KAPPA_MAX, rel=1e-9)
            continue
        with pytest.raises(IllPosedAngle,
                           match=r"kappa = .* = 0\.00010000009\d* exceeds KAPPA_MAX = 0\.0001$"):
            make_instance(O, A, B)


def test_collinear_rejected_without_dividing():
    # sin omega = 0 exactly: kappa is infinite, and the test of it divides
    # by nothing
    for B in (Vec2(2.0, 0.0), Vec2(-2.0, 0.0)):
        with pytest.raises(IllPosedAngle, match="kappa = .* = inf exceeds"):
            make_instance(Vec2(0.0, 0.0), Vec2(-1.0, 0.0), B)


def test_coincident_rejected():
    with pytest.raises(DegenerateInput):
        make_instance(Vec2(0, 0), Vec2(0, 0), Vec2(1, 0))


def test_reversal_normalization_and_involution():
    fwd = make_instance(WORKED_O, WORKED_A, WORKED_B)
    rev = make_instance(WORKED_O, WORKED_B, WORKED_A)
    assert rev.reversed and not fwd.reversed
    # normalization restores the forward traversal exactly
    assert rev.A == fwd.A and rev.B == fwd.B
    assert rev.alpha == fwd.alpha and rev.beta == fwd.beta
    assert rev.omega == fwd.omega
    assert 0.0 < rev.omega < math.pi


def test_make_instance_measures_each_leg_once(monkeypatch):
    # |OA|, |OB| and |AB| are measured once each, also for a reversed
    # instance, and the stored lengths, diameter and tolerance equal bit for
    # bit those the constructor measures for the same fields
    calls = []
    dist = instance_module.dist
    monkeypatch.setattr(instance_module, "dist", lambda a, b: calls.append(1) or dist(a, b))
    legs = [(Vec2(0.3, 0.1), Vec2(-0.7, 1.9), Vec2(2.5, -0.4)), (WORKED_O, WORKED_A, WORKED_B)]
    for O, A, B in legs + [(O, B, A) for O, A, B in legs]:
        calls.clear()
        inst = make_instance(O, A, B)
        assert len(calls) == 3
        same = ProblemInstance(*inst._key())
        derived = ("oa", "ob", "diameter", "pos_tol", "symmetric")
        assert float_bits([getattr(inst, n) for n in derived]) == \
            float_bits([getattr(same, n) for n in derived])
        assert inst.symmetric == (abs(same.oa - same.ob) <= same.pos_tol)
    assert [make_instance(O, A, B).reversed for O, A, B in legs] == [False, False]
    assert [make_instance(O, B, A).reversed for O, A, B in legs] == [True, True]


@settings(deadline=None, max_examples=100)
@given(instance_competitors())
def test_make_instance_legs_match_normalized(case):
    # alpha and beta are the legs divided by the measured |OA| and |OB|:
    # `normalized`'s vectors bit for bit, forwards and reversed
    inst, _, _ = case
    for O, A, B in ((inst.O, inst.A, inst.B), (inst.O, inst.B, inst.A)):
        made = make_instance(O, A, B)
        alpha, beta = normalized_legs(O, A, B)
        assert float_bits([made.alpha.x, made.alpha.y, made.beta.x, made.beta.y]) == \
            float_bits([alpha.x, alpha.y, beta.x, beta.y])


def test_from_tangents_worked_example():
    inst = instance_from_tangents(WORKED_A, WORKED_B, Vec2(-R2, R2), Vec2(0.0, -1.0))
    assert abs(inst.O.x) < 1e-12 and abs(inst.O.y) < 1e-12
    assert inst.omega == pytest.approx(3.0 * math.pi / 4.0, abs=1e-12)


def test_from_tangents_axes():
    inst = instance_from_tangents(Vec2(0, 1), Vec2(1, 0), Vec2(0, -1), Vec2(1, 0))
    assert abs(inst.O.x) < 1e-12 and abs(inst.O.y) < 1e-12


def test_from_tangents_wrong_orientation():
    with pytest.raises(NoAdmissibleCurve):
        instance_from_tangents(Vec2(0, 1), Vec2(1, 0), Vec2(0, 1), Vec2(1, 0))


def test_from_tangents_parallel():
    with pytest.raises(IllPosedAngle):
        instance_from_tangents(Vec2(0, 0), Vec2(1, 1), Vec2(1, 0), Vec2(1, 0))


def test_tangent_form_reproduces_point_form():
    for inst in instances(seed=701, count=50):
        again = instance_from_tangents(inst.A, inst.B, inst.alpha, inst.beta)
        assert (again.O - inst.O).norm() <= 1e-9 * inst.diameter
        assert again.omega == pytest.approx(inst.omega, abs=1e-9)
        assert (again.alpha - inst.alpha).norm() <= 1e-9
        assert (again.beta - inst.beta).norm() <= 1e-9


coords = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


@given(coords, coords, coords, coords, coords, coords)
def test_normalization_properties(ox, oy, ax, ay, bx, by):
    # whatever triple survives validation is normalized: turning angle in
    # (0, pi), unit tangents consistent with the stored points
    try:
        inst = make_instance(Vec2(ox, oy), Vec2(ax, ay), Vec2(bx, by))
    except (DegenerateInput, IllPosedAngle):
        assume(False)
        return
    assert 0.0 < inst.omega < math.pi
    assert inst.pos_tol <= KAPPA_MAX * min(inst.oa, inst.ob) * math.sin(inst.omega) * (1.0 + 1e-9)
    assert abs(inst.alpha.norm() - 1.0) <= 1e-12
    assert abs(inst.beta.norm() - 1.0) <= 1e-12
    assert ((inst.O - inst.A) - inst.alpha * inst.oa).norm() <= 1e-9 * inst.diameter
    assert ((inst.B - inst.O) - inst.beta * inst.ob).norm() <= 1e-9 * inst.diameter


def test_similarity_transform():
    inst = make_instance(WORKED_O, WORKED_A, WORKED_B)
    same = similarity_transform(inst, 0.0, 1.0, Vec2(0, 0))
    assert same == inst
    doubled = similarity_transform(inst, 0.0, 2.0, Vec2(0, 0))
    assert doubled.oa == pytest.approx(2.0 * inst.oa)
    assert doubled.omega == inst.omega
    rotated = similarity_transform(inst, math.pi / 3.0, 1.0, Vec2(5, -1))
    assert rotated.omega == pytest.approx(inst.omega, abs=1e-12)
    assert rotated.symmetric == inst.symmetric
    with pytest.raises(InvalidInput):
        similarity_transform(inst, 0.0, -1.0, Vec2(0, 0))


def test_json_point_form_roundtrip():
    inst = instance_from_json({"A": [0.5, -0.5], "O": [0.0, 0.0], "B": [0.0, -0.5]})
    assert inst.omega == pytest.approx(3.0 * math.pi / 4.0)
    out = instance_to_json(inst)
    assert out == {"A": [0.5, -0.5], "B": [0.0, -0.5], "O": [0.0, 0.0]}


def test_json_tangent_form():
    inst = instance_from_json({"A": [0.0, 1.0], "alpha": [0.0, -1.0],
                               "B": [1.0, 0.0], "beta": [1.0, 0.0]})
    assert abs(inst.O.x) < 1e-12 and abs(inst.O.y) < 1e-12


@pytest.mark.parametrize("obj", [
    {"A": [0, 0], "B": [1, 0]},
    {"A": [0, 0], "B": [1, 0], "O": [0, 1], "alpha": [1, 0], "beta": [0, 1]},
    {"A": [0, 0], "B": [1, 0], "alpha": [1, 0]},
    {"A": "x", "B": [1, 0], "O": [0, 1]},
    [1, 2, 3],
])
def test_json_schema_violations(obj):
    with pytest.raises(InvalidInput):
        instance_from_json(obj)


@pytest.mark.parametrize("value, point", [
    ([1, 2.5], Vec2(1.0, 2.5)),
    ((-3, 0), Vec2(-3.0, 0.0)),
    ([True, 0], None),
    ([0.0, False], None),
    ([1.0, "2"], None),
    ([1.0], None),
    ([1.0, 2.0, 3.0], None),
    ("xy", None),
    ({"x": 1.0, "y": 2.0}, None),
    (None, None),
])
def test_point_from_json_takes_a_pair_of_numbers(value, point):
    # a list or tuple of two ints or floats, booleans excluded
    if point is None:
        with pytest.raises(InvalidInput, match="pair of numbers"):
            point_from_json({"P": value}, "P")
    else:
        got = point_from_json({"P": value}, "P")
        assert got == point and type(got.x) is float and type(got.y) is float
