import math
import random

import pytest
from hypothesis import assume, strategies as st

from arcline import (
    Arc,
    PathBuilder,
    PiecewiseCurve,
    Segment,
    Vec2,
    arc_radius,
    composite_solve,
    dubins_curve,
    make_instance,
    synthesize,
)
from arcline.errors import IllPosedAngle
from arcline.geometry import KAPPA_MAX, POS_REL
from oracles import random_instance, sample_arrays

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


@st.composite
def accepted_instances(draw, apart: float = 0.0):
    """Instances across the accepted domain.  Legs OA / OB up to 1e4 apart,
    scale 1e-3..1e3, random pose and apex up to 50 scales away; omega
    uniform in (0.1, pi - 0.1), or log-uniform towards 0 or pi from the
    least gap the legs admit (kappa within 1e-6 of KAPPA_MAX, as the
    diameter is at most OA + OB) up to 0.1.  The legs differ by at least
    about `apart` times the shorter leg and the optimal radius
    min(OA, OB) cot(omega / 2)."""
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    spread = draw(st.floats(0.0, 4.0))
    end = draw(st.sampled_from(["zero", "mid", "pi"]))
    if end == "mid":
        omega = draw(st.floats(0.1, math.pi - 0.1))
    else:
        least = POS_REL * (1.0 + 10.0 ** spread) / KAPPA_MAX * (1.0 + 1e-6)
        gap = least * (0.1 / least) ** draw(st.floats(0.0, 1.0))
        omega = gap if end == "zero" else math.pi - gap
    spread = max(spread, math.log10(1.0 + apart * max(1.0, 1.0 / math.tan(0.5 * omega))))
    oa = scale * 10.0 ** (0.5 * spread * draw(st.sampled_from([-1.0, 1.0])))
    ob = scale * scale / oa
    pose = draw(st.floats(-math.pi, math.pi))
    turn = omega * draw(st.sampled_from([-1.0, 1.0]))
    O = Vec2(draw(st.floats(-50.0, 50.0)) * scale, draw(st.floats(-50.0, 50.0)) * scale)
    alpha = Vec2(math.cos(pose), math.sin(pose))
    beta = Vec2(math.cos(pose + turn), math.sin(pose + turn))
    try:
        return make_instance(O, O - alpha * oa, O + beta * ob)
    except IllPosedAngle:
        # a gap at the bound that rounding, or the legs moved apart, push past it
        assume(False)


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


def wide_arc(inst):
    """Arc of radius 1.5 R_a through the whole turning angle from A, then a
    segment: it meets the certificate hypothesis but misses B."""
    ra = arc_radius(inst)
    builder = PathBuilder(inst.A, inst.alpha.angle())
    return builder.arc(1.5 * ra, inst.omega).line(ra * inst.omega).build()


#: composite competitors at these radius pairs, fractions of R_a: the
#: benchmark's evidence pairs and the optimum's own radius
COMPOSITE_FRACTIONS = ((0.6, 0.8), (0.9, 0.7), (1.0, 1.0))


@st.composite
def instance_competitors(draw):
    """(inst, sol, curves): a `random_instance` draw, its optimal solution,
    and the competitor curves the evidence path certifies: the optimum,
    Dubins curves at drawn fractions of R_a and at R_a, the composites at
    COMPOSITE_FRACTIONS, the s-curve (a quarter turn each way at R_a) and
    the wide arc."""
    inst = random_instance(make_rng(draw(st.integers(0, 2**32))))
    sol = synthesize(inst)
    ra = sol.radius
    fractions = draw(st.lists(st.floats(0.2, 1.0), min_size=1, max_size=3)) + [1.0]
    curves = [sol.curve] + [dubins_curve(inst, f * ra).curve for f in fractions]
    for f1, f2 in COMPOSITE_FRACTIONS:
        comp = composite_solve(inst, f1 * ra, f2 * ra)
        if comp is not None:
            curves.append(comp.curve)
    s_curve = PathBuilder(inst.A, inst.alpha.angle()).arc(ra, 0.5 * math.pi)
    curves.append(s_curve.arc(ra, -0.5 * math.pi).build())
    curves.append(wide_arc(inst))
    return inst, sol, curves


def float_bits(value):
    """value with every float replaced by its hex form, through tuples and
    lists, so that == compares floats bit for bit (zero signs included)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [float_bits(v) for v in value]
    return value
