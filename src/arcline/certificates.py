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

All quantities are evaluated in the instance's canonical frame (see
`synthesis.frame_mirrored`): the optimal arc leaves the origin along
+x, and instances whose optimal curve starts with the segment are
reversed and mirrored into that picture.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .curves import Arc, PiecewiseCurve, heading, max_curvature
from .errors import HypothesisViolated, InvalidInput, UndefinedHeading
from .geometry import ROUND_REL, TWO_PI, unit_turn
from .instance import ProblemInstance
from .synthesis import OptimalSolution, arc_radius, frame_mirrored


def support_min(curve: PiecewiseCurve) -> float:
    """Exact minimum of gamma(s, t) = <X(t) - X(s), N(s)> on [0, L]^2.

    N = rot90(X') is the normal.  gamma is nonnegative everywhere for
    admissible curves; a clearly negative minimum certifies the curve
    leaves the support half-plane of one of its tangents.

    On each rectangle of a primitive pair (i, j) gamma has a closed form.
    An arc is X = c + r e(psi), N = -sigma e(psi), with center c, radius
    r, orientation sigma = +-1 and radial angle psi; on a segment N is
    constant and gamma linear in t.  So the minimum is the least of four
    kinds of candidates, each kept only where its angle lies strictly
    inside the arc's sweep:

    * (a) corners, s and t at ends of primitives:
      <X(t) - X(s), N(s)>, from the stored end points and tangents;
    * (b) s at an end, t inside an arc j where e(phi) = -N(s):
      <c_j - X(s), N(s)> - r_j; the angle of -N(s) is psi or psi + pi at
      an arc end and the heading - pi/2 on a segment;
    * (c) t at an end, s inside an arc i where sigma_i e(psi) points
      along X(t) - c_i: sigma_i r_i - |X(t) - c_i|;
    * (d) s and t inside arcs i and j with c_i != c_j, where
      sigma_i e(psi) = e(phi) points along c_j - c_i:
      sigma_i r_i - r_j - |c_j - c_i|.  With equal centers gamma's
      least value given psi does not depend on psi, so the minimum lies
      on an edge, in (b) or (c).

    A segment i needs only the ends of i, since gamma does not depend
    on s there, and a segment j only the ends of j.  The union over all
    pairs is a product over the curve's 2k primitive ends and its arcs,
    so the check takes O(k^2) closed-form terms for k primitives and
    evaluates the curve nowhere; the result is the true minimum up to
    rounding, independent of any sample count.
    """
    ends = []  # (x, y, N, angle of -N) at both ends of every primitive
    arcs = []  # (center x, y, radius, sigma, start angle, |sweep|)
    for p in curve.primitives:
        q, t, u, v = p.start_point, p.start_tangent, p.end_point, p.end_tangent
        if isinstance(p, Arc):
            a0, sweep, c = p.start_angle, p.sweep, p.center
            sign = 1.0 if sweep > 0 else -1.0
            # -N = sigma e(psi): at psi, or at psi + pi on a clockwise arc
            down0 = a0 if sign > 0 else a0 + math.pi
            down1 = down0 + sweep
            arcs.append((c.x, c.y, p.radius, sign, a0, abs(sweep)))
        else:
            d = p.direction  # d.angle(), without the call
            down0 = down1 = math.atan2(d.y, d.x) - 0.5 * math.pi
        ends.append((q.x, q.y, -t.y, t.x, down0))
        ends.append((u.x, u.y, -v.y, v.x, down1))
    # (a), the corners, first: the leading term, an end against itself, then
    # decides the sign of a zero minimum, as min keeps the first of equals
    gammas = [(xt - xs) * nx + (yt - ys) * ny
              for xs, ys, nx, ny, _ in ends for xt, yt, _, _, _ in ends]
    atan2, hypot = math.atan2, math.hypot
    for cx, cy, r, sign, a0, span in arcs:
        for xs, ys, nx, ny, down in ends:
            if 0.0 < (sign * (down - a0)) % TWO_PI < span:
                gammas.append((cx - xs) * nx + (cy - ys) * ny - r)  # (b)
            dx, dy = xs - cx, ys - cy
            if 0.0 < (sign * (atan2(sign * dy, sign * dx) - a0)) % TWO_PI < span:
                gammas.append(sign * r - hypot(dx, dy))  # (c)
        for cxj, cyj, rj, signj, a0j, spanj in arcs:
            dx, dy = cxj - cx, cyj - cy
            if dx == 0.0 and dy == 0.0:
                continue
            if (0.0 < (sign * (atan2(sign * dy, sign * dx) - a0)) % TWO_PI < span
                    and 0.0 < (signj * (atan2(dy, dx) - a0j)) % TWO_PI < spanj):
                gammas.append(sign * r - rj - hypot(dx, dy))  # (d)
    return min(gammas)


def _meets_hypothesis(inst: ProblemInstance, z: PiecewiseCurve, ra: float, e: float) -> bool:
    """True where z, of max curvature e, meets the certificate hypothesis:
    e at most 1/R_a and length at least R_a * Omega, each up to rounding."""
    return (e <= (1.0 / ra) * (1.0 + ROUND_REL)
            and z.length >= ra * inst.omega * (1.0 - ROUND_REL))


def _check_hypothesis(inst: ProblemInstance, z: PiecewiseCurve, ra: float) -> float:
    """z's max curvature e, where z meets the certificate hypothesis;
    HypothesisViolated where it does not."""
    e = max_curvature(z)
    if not _meets_hypothesis(inst, z, ra, e):
        raise HypothesisViolated(
            f"competitor max curvature {e!r} or length {z.length!r} fails the "
            f"hypothesis: at most 1/R_a = {1.0 / ra!r}, at least the optimal arc "
            f"{ra * inst.omega!r}")
    return e


def _frame_gaps(inst: ProblemInstance, sol: OptimalSolution, z: PiecewiseCurve,
                n: int) -> list[tuple[float, float, float, float]]:
    """Gaps between z and the optimal arc at n + 1 arc lengths on [0, l].

    Checks n and the certificate hypothesis.  The arc lengths are
    s = i * (l / n) for i < n, then l, and phi = s / R_a.  Returns
    (sin phi, cos phi, xhat - x, yhat - y) per sample, with (xhat, yhat)
    z's point and (x, y) the optimal arc's in the canonical frame, in
    `math` floats.  In a mirrored frame z is evaluated backwards, at
    L - s.
    """
    if n < 1:
        raise InvalidInput(f"need n >= 1 samples, got {n!r}")
    ra = sol.radius
    _check_hypothesis(inst, z, ra)
    end = min(ra * inst.omega, z.length)
    step = end / n
    svals = [i * step for i in range(n)] + [end]
    # the frame's origin and axes (ex, ey) in world coordinates: B, -beta
    # and rot90(beta), or A, alpha and rot90(alpha)
    if frame_mirrored(inst):
        origin, b = inst.B, inst.beta
        exx, exy, eyx, eyy = -b.x, -b.y, -b.y, b.x
        points = z.sample_at([z.length - s for s in svals])
    else:
        # normalized(alpha), in floats
        origin, a = inst.A, inst.alpha
        norm = math.hypot(a.x, a.y)
        exx, exy = a.x / norm, a.y / norm
        eyx, eyy = -exy, exx
        points = z.sample_at(svals)
    ox, oy = origin.x, origin.y
    rows = []
    for s, (px, py, _, _, _) in zip(svals, points):
        dx, dy = px - ox, py - oy
        phi = s / ra
        sin, cos = math.sin(phi), math.cos(phi)
        rows.append((sin, cos, dx * exx + dy * exy - ra * sin,
                     dx * eyx + dy * eyy - ra * (1.0 - cos)))
    return rows


def zeta_profile(inst: ProblemInstance, sol: OptimalSolution, z: PiecewiseCurve,
                 n: int = 2048) -> list[float]:
    """Normal gap zeta(s) between z and the optimal curve on [0, l].

    l = R_a * Omega is the optimal arc length; the last entry is the
    certificate value zeta_0, nonpositive whenever the hypotheses hold.
    Requires max curvature of z at most 1/R_a and length at least l.
    """
    return [-gx * sin + gy * cos for sin, cos, gx, gy in _frame_gaps(inst, sol, z, n)]


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
    mirrored = frame_mirrored(inst)
    length = z.length
    end = min(ra * inst.omega, length)
    inner = z.breaks[1:-1]
    # (frame arc length, z's arc length) at 0, at l and at the breaks between
    if mirrored:
        points = [(0.0, length), (end, length - end)]
        points += [(length - b, b) for b in inner if length - b < end]
    else:
        points = [(0.0, 0.0), (end, end)] + [(b, b) for b in inner if b < end]
    theta0 = unit_turn(inst.alpha, z.primitives[0].start_tangent)
    slope = e - 1.0 / ra
    excess = []
    for s, sz in points:
        theta = theta0 + z.turning(sz)
        if mirrored:
            theta = inst.omega - theta
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


def _intercepts(curve: PiecewiseCurve, inst: ProblemInstance,
                s: float) -> tuple[float, tuple[float, float] | None]:
    """The heading phi at arc length s and the intercepts (u, v) there,
    or None in their place where sin(phi) < ROUND_REL."""
    # heading checks s first; alpha is unit, as the instance checked where it
    # was built, so normalized(alpha) is (ax, ay)
    phi = heading(curve, inst, s)
    sphi = math.sin(phi)
    if sphi < ROUND_REL:
        return phi, None
    alpha = inst.alpha
    norm = math.hypot(alpha.x, alpha.y)
    ax, ay = alpha.x / norm, alpha.y / norm
    qx, qy, _, _, _ = curve.evaluate_row(s)
    dx, dy = qx - inst.A.x, qy - inst.A.y
    # the point's coordinates from A along alpha and its quarter turn
    px, py = dx * ax + dy * ay, dx * -ay + dy * ax
    return phi, (px - py * math.cos(phi) / sphi, py / sphi)


def tangent_intercepts(curve: PiecewiseCurve, inst: ProblemInstance,
                       s: float) -> tuple[float, float]:
    """Intercept lengths (u, v) of the tangent line at arc length s.

    The tangent at the curve point meets the line through A along alpha
    at a point Q with AQ = u * alpha and Q->point = v * tangent.
    Undefined while the heading is still zero (initial straight run):
    UndefinedHeading.  At s = L the pair is (u0, v0), strictly positive
    for admissible curves; for the optimal curve it equals (OA, OB).
    """
    phi, uv = _intercepts(curve, inst, s)
    if uv is None:
        raise UndefinedHeading(f"heading {phi!r} at s={s!r} has sin(phi) < {ROUND_REL!r}")
    return uv


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
    curvature at most 1/R_a and length at least R_a * Omega; the
    hypothesis is decided once, here, and where it fails both entries
    are None (the certificate then simply does not apply, which is not
    an error here).  Where it holds, `zeta_profile` and `theta_phi_bound`
    confirm it as they do for every caller, from the curve's stored max
    curvature.  u0 and v0 are None where the heading at L leaves them
    undefined, decided without raising `UndefinedHeading`.
    """
    e = max_curvature(z)
    sup = support_min(z)
    u0, v0 = _intercepts(z, inst, z.length)[1] or (None, None)
    zeta0 = excess = None
    if _meets_hypothesis(inst, z, sol.radius, e):
        zeta0 = zeta_profile(inst, sol, z, n=1)[-1]
        excess = theta_phi_bound(inst, sol, z)
    return Certificate(zeta0, sup, excess, u0, v0, e)
