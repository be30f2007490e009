import math
import random

import pytest

from arcline import Arc, PiecewiseCurve, Segment, Vec2, make_instance, random_instance
from oracles import sample_arrays

#: the worked configuration: right isoceles triangle, turning angle 3*pi/4
WORKED_A = Vec2(0.5, -0.5)
WORKED_O = Vec2(0.0, 0.0)
WORKED_B = Vec2(0.0, -0.5)
WORKED_RA = (math.sqrt(2.0) - 1.0) / 2.0


@pytest.fixture
def worked_instance():
    return make_instance(WORKED_O, WORKED_A, WORKED_B)


@pytest.fixture
def symmetric_instance():
    # quarter turn, OA = OB = 1, optimal radius 1 with arc center (1, 1)
    return make_instance(Vec2(0.0, 0.0), Vec2(0.0, 1.0), Vec2(1.0, 0.0))


@pytest.fixture
def arc_first_instance():
    # OA = 1 < OB = 2, omega = pi/2: optimal curve starts with the arc
    return make_instance(Vec2(0.0, 0.0), Vec2(0.0, 1.0), Vec2(2.0, 0.0))


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def instances(seed: int, count: int, omega_lo: float = 0.1, omega_hi: float = math.pi - 0.1):
    rng = make_rng(seed)
    out = []
    for _ in range(count):
        omega = rng.uniform(omega_lo + 1e-9, omega_hi - 1e-9)
        out.append(random_instance(rng, omega=omega))
    return out


def symmetric_instances(seed: int, count: int, exact: bool = False):
    """OA == OB instances, scale in [0.1, 10] and apex in [-50, 50]^2.

    By default the pose is random, so the two legs differ by rounding.
    With `exact` the pose is axis-aligned with dyadic legs and an integer
    apex, so OA == OB bit for bit.
    """
    rng = make_rng(seed)
    out = []
    for _ in range(count):
        omega = rng.uniform(0.1, math.pi - 0.1)
        leg = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        turn = omega if rng.random() < 0.5 else -omega
        if exact:
            half = 0.5 * (math.pi - omega)
            a = round(leg * math.sin(half) * 2.0**20) / 2.0**20
            h = round(leg * math.cos(half) * 2.0**20) / 2.0**20
            O = Vec2(float(rng.randint(-50, 50)), float(rng.randint(-50, 50)))
            side = math.copysign(a, turn)
            out.append(make_instance(O, O + Vec2(-side, -h), O + Vec2(side, -h)))
            continue
        pose = rng.uniform(-math.pi, math.pi)
        O = Vec2(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))
        alpha = Vec2(math.cos(pose), math.sin(pose))
        beta = Vec2(math.cos(pose + turn), math.sin(pose + turn))
        out.append(make_instance(O, O - alpha * leg, O + beta * leg))
    return out


def rigid_motion(curve: PiecewiseCurve, rotation: float, translation: Vec2) -> PiecewiseCurve:
    """Test helper: rotate then translate every primitive."""
    c, s = math.cos(rotation), math.sin(rotation)

    def mov(p: Vec2) -> Vec2:
        return Vec2(c * p.x - s * p.y + translation.x,
                    s * p.x + c * p.y + translation.y)

    prims = []
    for p in curve.primitives:
        if isinstance(p, Segment):
            prims.append(Segment(mov(p.start), mov(p.end)))
        else:
            prims.append(Arc(mov(p.center), p.radius, p.start_angle + rotation, p.sweep))
    return PiecewiseCurve(prims)


def sample_points(curve: PiecewiseCurve, n: int) -> list[Vec2]:
    """n + 1 points at equal arc-length spacing, both ends included."""
    import numpy as np

    pts, _, _ = sample_arrays(curve, np.linspace(0.0, curve.length, n + 1))
    return [Vec2(x, y) for x, y in pts.tolist()]


def sampled_hausdorff(c1: PiecewiseCurve, c2: PiecewiseCurve, n: int = 400) -> float:
    import numpy as np

    p1, _, _ = sample_arrays(c1, np.linspace(0.0, c1.length, n))
    p2, _, _ = sample_arrays(c2, np.linspace(0.0, c2.length, n))
    d = np.hypot(p1[:, None, 0] - p2[None, :, 0], p1[:, None, 1] - p2[None, :, 1])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))
