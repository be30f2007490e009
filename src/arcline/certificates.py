"""Executable optimality certificates.

The optimality proof rests on a handful of checkable quantities:

* the support-line property: an admissible curve never crosses to the
  outward-normal side of any of its tangent lines;
* the normal gap zeta between a competitor and the optimal curve in the
  frame (A, alpha): nonpositive at the end of the optimal arc whenever
  the competitor's max curvature does not exceed 1/R_a, strictly
  negative when it is strictly smaller, zero only for the optimal curve
  itself;
* its closed form for the composite family, affine in the radii and
  segment lengths with all-negative coefficients in the wide-angle
  regime;
* the heading gap bound theta - phi <= (e - 1/R_a) s;
* the tangent-intercept lengths u, v, strictly positive at the end of
  every admissible curve.

All quantities are evaluated in the instance's canonical frame
(`synthesis.canonical_frame`): the optimal arc leaves the origin along
+x, and instances whose optimal curve starts with the segment are
reversed and mirrored into that picture.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .curves import Arc, PiecewiseCurve, heading, max_curvature
from .errors import HypothesisViolated, InvalidInput, UndefinedHeading
from .geometry import ROUND_REL, TWO_PI, normalized, oriented_angle, rot90
from .instance import ProblemInstance
from .synthesis import OptimalSolution, arc_radius, canonical_frame


def _radial_hits(arc: Arc, base: float, angles: list[float]) -> list[tuple[float, float]]:
    """Where the radius of `arc` points along +-e(a), for each a in `angles`.

    Returns (angle, curve arc length) for every such point strictly
    inside the sweep; `base` is the curve arc length at the arc's start.
    """
    sign = 1.0 if arc.sweep > 0 else -1.0
    span = abs(arc.sweep)
    hits = []
    for a in angles:
        for b in (a, a + math.pi):
            u = (sign * (b - arc.start_angle)) % TWO_PI
            if 0.0 < u < span:
                hits.append((b, base + arc.radius * u))
    return hits


def support_min(curve: PiecewiseCurve) -> float:
    """Exact minimum of gamma(s, t) = <X(t) - X(s), rot90(X'(s))> on [0, L]^2.

    gamma is nonnegative everywhere for admissible curves; a clearly
    negative minimum certifies the curve leaves the support half-plane
    of one of its tangents.

    The minimum is taken per ordered primitive pair (i, j), over a
    finite candidate set on that pair's rectangle, with psi the radial
    angle of arc i and phi that of arc j:

    * the ends of i and of j (the corners);
    * psi with e(psi) parallel to X(t0) - c_i for an end t0 of j (the
      minimum over psi along the edge t = t0), and, for an arc j, to
      c_j - c_i (where the interior minimum lies);
    * phi with e(phi) parallel to the normal at an end of i (the
      minimum over phi along the edge s = s0; for a segment i, gamma
      does not depend on s at all), and, for an arc i, to e(psi) for
      each psi above (the interior minimum over phi given psi).

    A segment j needs no interior t: for each s, gamma is linear in t,
    so its minimum over t lies at an end of j.  Every candidate s is
    paired with every candidate t of the pair, so the result is the true
    minimum up to rounding, independent of any sample count.  The curve
    is evaluated once per distinct candidate arc length, in `math`
    floats (`PiecewiseCurve.evaluate_row`), with no numpy.  There are
    O(k^2) candidates for k primitives, built in a Python loop over the
    pairs: cheap for the few primitives of an optimal curve or
    competitor, slower than an n = 512 grid beyond about 20 primitives.
    """
    prims = curve.primitives
    breaks = curve.breaks
    ends = [(p.start_point, p.end_point) for p in prims]
    pairs: list[tuple[list[float], list[float]]] = []
    for i, p in enumerate(prims):
        if isinstance(p, Arc):
            # the normal at either end of an arc is radial
            normals = [p.start_angle, p.start_angle + p.sweep]
        else:
            normals = [p.direction.angle() + 0.5 * math.pi]
        for j, q in enumerate(prims):
            ss = [breaks[i], breaks[i + 1]]
            phis = list(normals)
            if isinstance(p, Arc):
                c = p.center
                dirs = [math.atan2(e.y - c.y, e.x - c.x) for e in ends[j]]
                if isinstance(q, Arc):
                    dirs.append(math.atan2(q.center.y - c.y, q.center.x - c.x))
                for psi, s in _radial_hits(p, breaks[i], dirs):
                    ss.append(s)
                    phis.append(psi)
            ts = [breaks[j], breaks[j + 1]]
            if isinstance(q, Arc):
                ts += [t for _, t in _radial_hits(q, breaks[j], phis)]
            pairs.append((ss, ts))
    at: dict[float, tuple] = {}
    for ss, ts in pairs:
        for v in ss + ts:
            if v not in at:
                at[v] = curve.evaluate_row(v)
    best = math.inf
    for ss, ts in pairs:
        targets = [at[t] for t in ts]
        for s in ss:
            xs, ys, tx, ty, _ = at[s]
            for xt, yt, _, _, _ in targets:
                gamma = (xt - xs) * -ty + (yt - ys) * tx
                if gamma <= best:
                    best = gamma
    return best


def _check_hypothesis(inst: ProblemInstance, z: PiecewiseCurve,
                      ra: float) -> float:
    e = max_curvature(z)
    if e > (1.0 / ra) * (1.0 + ROUND_REL):
        raise HypothesisViolated(
            f"competitor max curvature {e!r} exceeds 1/R_a = {1.0 / ra!r}")
    arc_len = ra * inst.omega
    if z.length < arc_len * (1.0 - ROUND_REL):
        raise HypothesisViolated(
            f"competitor length {z.length!r} shorter than the optimal arc {arc_len!r}")
    return e


def _frame_gaps(inst: ProblemInstance, sol: OptimalSolution, z: PiecewiseCurve,
                n: int) -> list[tuple[float, float, float, float]]:
    """Gaps between z and the optimal arc at n + 1 arc lengths on [0, l].

    Checks n and the certificate hypothesis.  The arc lengths are
    s = i * (l / n) for i < n, then l (the values of np.linspace), and
    phi = s / R_a.  Returns (sin phi, cos phi, xhat - x, yhat - y) per
    sample, with (xhat, yhat) z's point and (x, y) the optimal arc's in
    the canonical frame, in `math` floats.  In a mirrored frame z is
    evaluated backwards, at L - s.
    """
    if n < 1:
        raise InvalidInput(f"need n >= 1 samples, got {n!r}")
    ra = sol.radius
    _check_hypothesis(inst, z, ra)
    end = min(ra * inst.omega, z.length)
    step = end / n
    svals = [i * step for i in range(n)] + [end]
    frame = canonical_frame(inst)
    pts, _, _ = z.sample_at([z.length - s for s in svals] if frame.mirrored else svals)
    ox, oy = frame.origin.x, frame.origin.y
    ex, ey = frame.x_axis, frame.y_axis
    rows = []
    for s, (px, py) in zip(svals, pts.tolist()):
        dx, dy = px - ox, py - oy
        phi = s / ra
        sin, cos = math.sin(phi), math.cos(phi)
        rows.append((sin, cos, dx * ex.x + dy * ex.y - ra * sin,
                     dx * ey.x + dy * ey.y - ra * (1.0 - cos)))
    return rows


def zeta_profile(inst: ProblemInstance, sol: OptimalSolution, z: PiecewiseCurve,
                 n: int = 2048) -> np.ndarray:
    """Normal gap zeta(s) between z and the optimal curve on [0, l].

    l = R_a * Omega is the optimal arc length; the last entry is the
    certificate value zeta_0, nonpositive whenever the hypotheses hold.
    Requires max curvature of z at most 1/R_a and length at least l.
    """
    return np.array([-gx * sin + gy * cos for sin, cos, gx, gy in _frame_gaps(inst, sol, z, n)])


def frame_gap_profiles(inst: ProblemInstance, sol: OptimalSolution, z: PiecewiseCurve,
                       n: int = 2048) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate gaps (xhat - x, yhat - y) between z and the optimal arc.

    Sampled on [0, l] in the canonical frame.  Under the certificate
    hypothesis the first gap is nondecreasing and the second
    nonincreasing whenever the turning angle is below pi/2; both vanish
    identically only for the optimal curve itself.
    """
    rows = _frame_gaps(inst, sol, z, n)
    return np.array([row[2] for row in rows]), np.array([row[3] for row in rows])


def theta_phi_bound(inst: ProblemInstance, sol: OptimalSolution, z: PiecewiseCurve) -> float:
    """Supremum of g(s) = theta(s) - phi(s) - (e - 1/R_a) s on (0, l], exactly.

    theta is z's heading in the canonical frame, phi = s / R_a the
    optimal arc's, e z's max curvature and l = min(R_a * Omega, L).  g is
    linear on each primitive, so its supremum is the largest of: the
    limit at s -> 0+, which is g(0) as the turning is continuous; g at
    each break of z inside (0, l); and g(l).  In a mirrored frame z runs
    backwards from its end: frame arc length s is z's L - s, and the
    heading is omega minus z's.  As theta' = kappa <= e, g never
    increases and the value is g(0+) up to rounding; the breaks are still
    evaluated, so that the rounding shows instead of being assumed away.
    Requires max curvature of z at most 1/R_a and length at least
    R_a * Omega.
    """
    ra = sol.radius
    e = _check_hypothesis(inst, z, ra)
    frame = canonical_frame(inst)
    length = z.length
    end = min(ra * inst.omega, length)
    inner = z.breaks[1:-1]
    # (frame arc length, z's arc length) at 0, at l and at the breaks between
    if frame.mirrored:
        points = [(0.0, length), (end, length - end)]
        points += [(length - b, b) for b in inner if length - b < end]
    else:
        points = [(0.0, 0.0), (end, end)] + [(b, b) for b in inner if b < end]
    theta0 = oriented_angle(inst.alpha, z.start_tangent)
    slope = e - 1.0 / ra
    excess = []
    for s, sz in points:
        theta = theta0 + z.turning(sz)
        if frame.mirrored:
            theta = frame.omega - theta
        excess.append(theta - s / ra - slope * s)
    return max(excess)


def zeta0_coefficients(omega: float) -> tuple[float, float, float, float]:
    """Coefficients (a, b, c, f) of the affine composite certificate.

    All four are strictly negative for omega in [pi/2, pi); a and b
    multiply the radius excesses, c and f the two segment lengths.
    """
    half = 0.5 * omega
    a = math.cos(omega) - math.cos(half)
    b = -1.0 + math.cos(half)
    c = -math.sin(omega)
    f = -math.sin(half)
    return a, b, c, f


def zeta0_closed_form(inst: ProblemInstance, r1: float, r2: float,
                      d1: float, d2: float) -> float:
    """zeta_0 = a(R1 - R_a) + b(R2 - R_a) + c d1 + f d2 for the composite
    family with half-angle sweeps, in the arc-first orientation."""
    ra = arc_radius(inst)
    a, b, c, f = zeta0_coefficients(inst.omega)
    return a * (r1 - ra) + b * (r2 - ra) + c * d1 + f * d2


def tangent_intercepts(curve: PiecewiseCurve, inst: ProblemInstance,
                       s: float) -> tuple[float, float]:
    """Intercept lengths (u, v) of the tangent line at arc length s.

    The tangent at the curve point meets the line through A along alpha
    at a point Q with AQ = u * alpha and Q->point = v * tangent.
    Undefined while the heading is still zero (initial straight run).
    At s = L the pair is (u0, v0), strictly positive for admissible
    curves; for the optimal curve it equals (OA, OB).
    """
    x = normalized(inst.alpha)
    point, _, _ = curve.evaluate(s)
    d = point - inst.A
    px, py = d.dot(x), d.dot(rot90(x))
    phi = heading(curve, inst, s)
    sphi = math.sin(phi)
    if sphi < ROUND_REL:
        raise UndefinedHeading(f"heading {phi!r} at s={s!r} has sin(phi) < {ROUND_REL!r}")
    u = px - py * math.cos(phi) / sphi
    v = py / sphi
    return u, v


class Certificate(NamedTuple):
    """Numerical optimality evidence for a competitor curve."""

    zeta0: float | None
    support_min_residual: float
    theta_phi_max_excess: float | None
    u0: float | None
    v0: float | None
    e: float

    def as_dict(self) -> dict:
        return {
            "zeta0": self.zeta0,
            "supportMinResidual": self.support_min_residual,
            "thetaPhiMaxExcess": self.theta_phi_max_excess,
            "u0": self.u0,
            "v0": self.v0,
            "e": self.e,
        }


def make_certificate(inst: ProblemInstance, sol: OptimalSolution,
                     z: PiecewiseCurve, n: int = 512) -> Certificate:
    """Bundle every certificate quantity for a competitor curve.

    Every quantity is exact up to rounding, so no value depends on n,
    which is accepted and ignored.  zeta_0 is the last entry of every
    zeta profile, the gap at s = l exactly, so it is read from the
    one-step profile.  The zeta and heading-gap entries require max
    curvature at most 1/R_a; they are None when that hypothesis fails
    (the certificate then simply does not apply, which is not an error
    here).
    """
    e = max_curvature(z)
    sup = support_min(z)
    try:
        u0, v0 = tangent_intercepts(z, inst, z.length)
    except UndefinedHeading:
        u0 = v0 = None
    try:
        zeta0 = float(zeta_profile(inst, sol, z, n=1)[-1])
        excess = theta_phi_bound(inst, sol, z)
    except HypothesisViolated:
        zeta0 = None
        excess = None
    return Certificate(zeta0=zeta0, support_min_residual=sup,
                       theta_phi_max_excess=excess, u0=u0, v0=v0, e=e)
