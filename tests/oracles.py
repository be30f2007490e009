"""Independent reference implementations the tests check the library against.

Each one computes a quantity the library has in closed form by a
different route: the optimal radius by bisection on two tangency
distances, curvature by finite differences of sampled points, the
composite certificate zeta_0 by building the composite, and the
heading-gap excess by sampling.  Two more restate a library routine in
another form, to be compared with it bit for bit: the turning as a
numpy computation over many samples, and the certificate gap profiles
one point at a time through `evaluate`.  `sample_arrays` packs
`sample_at`'s rows into numpy arrays for the tests that compute on
them.  None of them is used by the library itself, which needs no numpy.
"""

from __future__ import annotations

import math

from arcline import (
    InternalError,
    InvalidInput,
    OutOfRange,
    PathBuilder,
    PiecewiseCurve,
    Point2,
    ProblemInstance,
    Vec2,
    max_curvature,
    oriented_angle,
)
from arcline.geometry import ROUND_REL, normalized, principal_angle, rot90
from arcline.synthesis import canonical_frame


def distance_to_line(p: Point2, origin: Point2, direction: Vec2) -> float:
    """Unsigned distance from p to the line through origin along direction."""
    d = normalized(direction)
    return abs(d.cross(p - origin))


def tangency_oracle(inst: ProblemInstance) -> tuple[float, Point2]:
    """Independent tangency solve for the optimal radius.

    Finds the circle tangent to the boundary line of the nearer endpoint
    at that endpoint and tangent to the other boundary line, by bisecting
    the center position along the interior perpendicular until the two
    line distances agree to 1e-12 relative.  Returns the radius and the
    tangency point on the other line.
    """
    if inst.ob <= inst.oa:
        p, dir_p = inst.B, inst.beta
        other_dir = inst.alpha
        witness = inst.A
    else:
        p, dir_p = inst.A, inst.alpha
        other_dir = inst.beta
        witness = inst.B
    n = rot90(dir_p)
    if (witness - inst.O).dot(n) < 0.0:
        n = -n

    def gap(t: float) -> float:
        # distance to the other line minus the (exact) distance t to this one
        return distance_to_line(p + n * t, inst.O, other_dir) - t

    lo, hi = 0.0, inst.diameter
    tries = 0
    while gap(hi) > 0.0:
        hi *= 2.0
        tries += 1
        if tries > 200:
            raise InternalError("tangency bisection failed to bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= ROUND_REL * hi:
            break
    radius = 0.5 * (lo + hi)
    center = p + n * radius
    u = normalized(other_dir)
    foot = inst.O + u * (center - inst.O).dot(u)
    return radius, foot


def numeric_curvature(points: list[Point2]) -> list[float]:
    """Discrete curvature of a sampled curve from chord headings.

    The turning between consecutive chords, divided by the mean adjacent
    chord length, estimates |curvature| to second order in the spacing;
    the first and last samples reuse the nearest interior estimate.
    """
    m = len(points)
    if m < 3:
        raise InvalidInput("need at least 3 points")
    headings = []
    chords = []
    for p, q in zip(points, points[1:]):
        d = q - p
        n = d.norm()
        if n == 0.0:
            raise InvalidInput("duplicate consecutive sample points")
        headings.append(d.angle())
        chords.append(n)
    kappa = [0.0] * m
    for i in range(1, m - 1):
        dpsi = principal_angle(headings[i] - headings[i - 1])
        kappa[i] = dpsi / (0.5 * (chords[i - 1] + chords[i]))
    kappa[0] = kappa[1]
    kappa[-1] = kappa[-2]
    return kappa


def zeta0_geometric(inst: ProblemInstance, r1: float, r2: float,
                    d1: float, d2: float) -> float:
    """zeta_0 measured on the actually-constructed composite geometry.

    Builds segment d1, arc (r1, Omega/2), segment d2, arc (r2, Omega/2)
    in the canonical frame and projects the final point's offset from
    the endpoint onto the outward normal of the terminal tangent.  The
    composite need not close on B; this is the independent cross-check
    of the closed form.
    """
    if r1 <= 0.0 or r2 <= 0.0:
        raise InvalidInput("arc radii must be positive")
    if d1 < 0.0 or d2 < 0.0:
        raise InvalidInput("segment lengths must be nonnegative")
    frame = canonical_frame(inst)
    om = frame.omega
    builder = PathBuilder()
    builder.line(d1).arc(r1, 0.5 * om).line(d2).arc(r2, 0.5 * om)
    end = builder.point
    return -(end.x - frame.xb) * math.sin(om) + (end.y - frame.yb) * math.cos(om)


def sample_arrays(curve: PiecewiseCurve, svals):
    """`curve.sample_at` as numpy arrays, the same values: points (n, 2),
    tangents (n, 2) and curvatures (n,)."""
    import numpy as np

    rows = curve.sample_at(np.asarray(svals, dtype=float).tolist())
    table = np.array(rows, dtype=float).reshape(-1, 5)
    return table[:, 0:2], table[:, 2:4], table[:, 4]


def turning_at(curve: PiecewiseCurve, svals):
    """`curve.turning` at each sample, vectorized: the same operations,
    so the same value bit for bit, as a numpy array."""
    import numpy as np

    svals = np.asarray(svals, dtype=float)
    if curve._outside(svals.min(initial=0.0), svals.max(initial=0.0)):
        raise OutOfRange("sample arc length outside [0, L]")
    s = np.clip(svals, 0.0, curve.length)
    breaks = np.asarray(curve.breaks)
    idx = np.clip(np.searchsorted(breaks, s, side="right") - 1, 0, len(curve.primitives) - 1)
    sweeps = np.array([p.sweep_angle for p in curve.primitives])
    lengths = np.array([p.length for p in curve.primitives])
    return np.asarray(curve._turn_breaks)[idx] + sweeps[idx] * ((s - breaks[idx]) / lengths[idx])


def frame_gaps_pointwise(inst: ProblemInstance, sol, z, n: int) -> list[tuple[float, float, float]]:
    """(zeta, xhat - x, yhat - y) at the n + 1 samples of `zeta_profile`.

    One point at a time: s = i * (l / n) for i < n, then l, with
    l = min(R_a * Omega, L); z's point from `evaluate` (at L - s in a
    mirrored frame), projected on the canonical frame's axes with `Vec2`,
    and the optimal arc's point (R_a sin phi, R_a (1 - cos phi)) at
    phi = s / R_a in `math` floats.
    """
    ra = sol.radius
    end = min(ra * inst.omega, z.length)
    frame = canonical_frame(inst)
    out = []
    for i in range(n + 1):
        s = end if i == n else i * (end / n)
        point, _, _ = z.evaluate(z.length - s if frame.mirrored else s)
        d = point - frame.origin
        phi = s / ra
        gx = d.dot(frame.x_axis) - ra * math.sin(phi)
        gy = d.dot(frame.y_axis) - ra * (1.0 - math.cos(phi))
        out.append((-gx * math.sin(phi) + gy * math.cos(phi), gx, gy))
    return out


def theta_phi_sampled(inst: ProblemInstance, sol, z, n: int) -> float:
    """The heading-gap excess sampled at n equally spaced s in (0, l].

    The largest of theta(s) - phi(s) - (e - 1/R_a) s at s = l k / n,
    k = 1..n, in the canonical frame, with l = min(R_a * Omega, L):
    the value `theta_phi_bound` computed before it was exact.  It can
    only read low, and it misses the supremum at s -> 0+.
    """
    import numpy as np

    ra = sol.radius
    e = max_curvature(z)
    svals = np.linspace(0.0, min(ra * inst.omega, z.length), n + 1)
    frame = canonical_frame(inst)
    s = z.length - svals if frame.mirrored else svals
    theta = oriented_angle(inst.alpha, z.start_tangent) + turning_at(z, s)
    if frame.mirrored:
        theta = frame.omega - theta
    excess = theta[1:] - svals[1:] / ra - (e - 1.0 / ra) * svals[1:]
    return float(excess.max())
