import math

import pytest
from hypothesis import given, strategies as st

from arcline import InvalidInput, Vec2, oriented_angle, principal_angle, rot90
from arcline.geometry import unit_turn

angles = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)
coords = st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)


def test_principal_angle_range_and_boundary():
    assert principal_angle(math.pi) == math.pi
    assert principal_angle(-math.pi) == math.pi
    assert principal_angle(3.0 * math.pi) == pytest.approx(math.pi)
    assert principal_angle(0.0) == 0.0


@given(angles)
def test_principal_angle_idempotent(a):
    w = principal_angle(a)
    assert -math.pi < w <= math.pi
    assert principal_angle(w) == w


def test_oriented_angle_examples():
    assert oriented_angle(Vec2(1, 0), Vec2(1, 0)) == 0.0
    assert oriented_angle(Vec2(0, -1), Vec2(1, 0)) == pytest.approx(math.pi / 2)
    # opposite vectors sit on the (-pi, pi] boundary: +pi, never -pi
    assert oriented_angle(Vec2(1, 0), Vec2(-1, 0)) == math.pi


def test_oriented_angle_requires_unit_vectors():
    with pytest.raises(InvalidInput):
        oriented_angle(Vec2(2, 0), Vec2(1, 0))
    with pytest.raises(InvalidInput):
        oriented_angle(Vec2(1, 0), Vec2(0, 0))


@given(angles, angles)
def test_oriented_angle_antisymmetry(a, b):
    u = Vec2(math.cos(a), math.sin(a))
    v = Vec2(math.cos(b), math.sin(b))
    fwd = oriented_angle(u, v)
    back = oriented_angle(v, u)
    if abs(fwd) == math.pi:
        assert back == fwd == math.pi
    else:
        assert back == pytest.approx(-fwd, abs=1e-12)


def test_rot90_examples():
    assert rot90(Vec2(1, 0)) == Vec2(0, 1)
    assert rot90(Vec2(0, 1)) == Vec2(-1, 0)
    assert rot90(Vec2(3, 4)) == Vec2(-4, 3)


@given(coords, coords)
def test_rot90_is_a_rotation(x, y):
    u = Vec2(x, y)
    r = rot90(u)
    assert r.norm() == u.norm()
    assert u.dot(r) == 0.0


def test_vec2_rejects_non_finite():
    with pytest.raises(InvalidInput):
        Vec2(math.nan, 0.0)
    with pytest.raises(InvalidInput):
        Vec2(0.0, math.inf)



UNIT_EDGES = [Vec2(1.0, 0.0), Vec2(1.0, -0.0), Vec2(-1.0, 0.0), Vec2(-1.0, -0.0),
              Vec2(0.0, 1.0), Vec2(-0.0, -1.0)]


@given(angles, angles)
def test_unit_turn_is_the_principal_angle_of_atan2(a, b):
    # unit_turn skips principal_angle's call: atan2 already lands in
    # [-pi, pi], where only -pi moves, to pi; bit for bit, zero signs too
    pairs = [(Vec2(math.cos(a), math.sin(a)), Vec2(math.cos(b), math.sin(b)))]
    pairs += [(u, v) for u in UNIT_EDGES for v in UNIT_EDGES]
    for u, v in pairs:
        turn = principal_angle(math.atan2(u.x * v.y - u.y * v.x, u.x * v.x + u.y * v.y))
        assert unit_turn(u, v).hex() == turn.hex()
    # atan2(-0.0, -1.0) is -pi
    assert unit_turn(Vec2(1.0, -0.0), Vec2(-1.0, -0.0)) == math.pi
