"""Seeded input sets for the benchmark workloads.

Everything here is plain Python on plain numbers: the program under test
only ever sees the JSON objects these functions return.  The same seed
always gives the same inputs.
"""

from __future__ import annotations

import math
import random

#: The mix of instance kinds is fixed by position, not drawn, so every seed
#: gives the same proportions and only the continuous parameters vary
#: (the kinds differ in cost, so a drawn mix would vary the cost by seed).
#: index % 8 == 7: symmetric, OA = OB exactly (see _symmetric)
#: (index // 3) % 3 == 0: turning angle from the wide band [pi/2, pi - 0.1)
#: index % 3 == 1: the {"A","alpha","B","beta"} schema (unless symmetric)
#: index % 2 == 1: negative turning angle, stored reversed
OMEGA_LO, OMEGA_HI = 0.1, math.pi - 0.1
#: OA/OB is log-uniform in [1/RATIO_MAX, RATIO_MAX]
RATIO_MAX = 4.0
#: scene scale is log-uniform in [SCALE_LO, SCALE_HI]; translation uniform in the box
SCALE_LO, SCALE_HI = 0.1, 10.0
TRANSLATION_MAX = 50.0

#: Accepted by validation, but `synthesize` raises InternalError on them: its
#: closure check uses 1e-9 * diameter and ignores coordinate magnitude.  They
#: do not depend on the seed and fail on every call, so each solve-batch round
#: carries them as a fixed share of failed operations.
FAILING_INSTANCES = (
    # a diameter-1 instance translated to (1e8, 1e8)
    {"O": [100000000.5935872, 100000000.00681688],
     "A": [100000000.30313715, 100000000.84122364],
     "B": [100000000.98392946, 100000000.9274867]},
    # turning angle 1e-8
    {"O": [0.0, 0.0], "A": [-0.6, 0.0],
     "B": [0.5, 5e-09]},
)


def _dyadic(x: float) -> float:
    """Round to a multiple of 2**-20 so sums with small integers are exact."""
    return round(x * 1048576.0) / 1048576.0


def _symmetric(rng: random.Random, omega: float, leg: float, reverse: bool) -> dict:
    """Mirror-symmetric instance with OA == OB bit for bit.

    O = t + (0, h), A = t + (-a, 0), B = t + (a, 0) with dyadic a, h and an
    integer translation t, so both leg vectors are exact and equal in norm.
    The pose stays axis-aligned: rotating would make OA and OB differ in
    the last bits.
    """
    half = 0.5 * (math.pi - omega)
    a = _dyadic(leg * math.sin(half))
    h = _dyadic(leg * math.cos(half))
    tx = float(rng.randint(-50, 50))
    ty = float(rng.randint(-50, 50))
    sign = -1.0 if reverse else 1.0  # -1: negative turning, stored reversed
    return {"O": [tx, ty + h], "A": [tx + sign * a, ty], "B": [tx - sign * a, ty]}


def instance_json(rng: random.Random, index: int) -> dict:
    """One accepted instance; its kind follows from `index` (see above)."""
    if (index // 3) % 3 == 0:
        omega = rng.uniform(0.5 * math.pi, OMEGA_HI)
    else:
        omega = rng.uniform(OMEGA_LO, OMEGA_HI)
    scale = math.exp(rng.uniform(math.log(SCALE_LO), math.log(SCALE_HI)))
    if index % 8 == 7:
        return _symmetric(rng, omega, scale, reverse=index % 2 == 1)
    ratio = math.exp(rng.uniform(-math.log(RATIO_MAX), math.log(RATIO_MAX)))
    oa = scale * math.sqrt(ratio)
    ob = scale / math.sqrt(ratio)
    pose = rng.uniform(-math.pi, math.pi)
    turn = -omega if index % 2 == 1 else omega
    ox = rng.uniform(-TRANSLATION_MAX, TRANSLATION_MAX)
    oy = rng.uniform(-TRANSLATION_MAX, TRANSLATION_MAX)
    alpha = [math.cos(pose), math.sin(pose)]
    beta = [math.cos(pose + turn), math.sin(pose + turn)]
    a = [ox - oa * alpha[0], oy - oa * alpha[1]]
    b = [ox + ob * beta[0], oy + ob * beta[1]]
    if index % 3 == 1:
        return {"A": a, "alpha": alpha, "B": b, "beta": beta}
    return {"O": [ox, oy], "A": a, "B": b}


def instance_set(seed: int, count: int, stream: str) -> list[dict]:
    """`count` instances; `stream` keeps the workloads' sets independent."""
    rng = random.Random(f"{stream}:{seed}")
    return [instance_json(rng, i) for i in range(count)]


def demo_radii(seed: int, count: int) -> list[float]:
    """Turn radii for `demo-illposed`, log-uniform in [3, 1e4]."""
    rng = random.Random(f"demo:{seed}")
    return [math.exp(rng.uniform(math.log(3.0), math.log(1e4))) for _ in range(count)]
