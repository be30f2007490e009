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

All quantities are evaluated in the arc-first orientation; instances
whose optimal curve starts with the segment are reversed and mirrored
internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import PathBuilder, PiecewiseCurve, heading, max_curvature
from .errors import HypothesisViolated, InvalidInput, UndefinedHeading
from .geometry import Frame, oriented_angle, rot90
from .instance import ProblemInstance
from .synthesis import OptimalSolution, arc_radius


#: cells of the (s, t) grid evaluated per block in `support_min`
SUPPORT_BLOCK_CELLS = 1 << 16


def support_min(curve: PiecewiseCurve, n: int = 256) -> float:
    """Most negative normal component over an n x n (s, t) sample grid.

    gamma(s, t) = <X(t) - X(s), rot90(X'(s))> is nonnegative everywhere
    for admissible curves; a clearly negative minimum certifies the
    curve leaves the support half-plane of one of its tangents.

    The grid is swept in blocks of whole rows, about SUPPORT_BLOCK_CELLS
    (2**16) cells each, so memory is O(n): two block buffers of at most
    max(n, 2**16) floats besides the samples.  A NaN sample propagates
    to the result.
    """
    if n < 2:
        raise InvalidInput(f"need n >= 2 samples, got {n!r}")
    svals = np.linspace(0.0, curve.length, n)
    pts, tans, _ = curve.sample_at(svals)
    px, py = pts[:, 0].copy(), pts[:, 1].copy()
    nx, ny = -tans[:, 1], tans[:, 0].copy()
    rows = max(1, SUPPORT_BLOCK_CELLS // n)
    gx = np.empty((min(rows, n), n))
    gy = np.empty_like(gx)
    best = np.inf
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        bx, by = gx[:hi - lo], gy[:hi - lo]
        np.subtract(px, px[lo:hi, None], out=bx)
        np.multiply(bx, nx[lo:hi, None], out=bx)
        np.subtract(py, py[lo:hi, None], out=by)
        np.multiply(by, ny[lo:hi, None], out=by)
        np.add(bx, by, out=bx)
        best = np.minimum(best, bx.min())
    return float(best)


@dataclass(frozen=True)
class _NormalizedCompetitor:
    """Competitor samples in the arc-first normalized frame."""

    xy: np.ndarray
    theta: np.ndarray


def _normalize_samples(inst: ProblemInstance, z: PiecewiseCurve,
                       svals: np.ndarray) -> _NormalizedCompetitor:
    """Frame coordinates and headings of z at the given arc lengths.

    Arc-first instances map through the frame (A, alpha); segment-first
    instances evaluate the reversed curve through the mirrored frame at
    B, which swaps the roles of the endpoints and flips the curvature
    sign twice, landing back in the arc-first picture.
    """
    arc_first = inst.oa <= inst.ob
    theta0 = oriented_angle(inst.alpha, z.start_tangent)
    if arc_first:
        pts, _, _ = z.sample_at(svals)
        frame = Frame(inst.A, inst.alpha)
        d = pts - np.array([inst.A.x, inst.A.y])
        ex, ey = frame.x_axis, frame.y_axis
        xy = np.column_stack([d @ np.array([ex.x, ex.y]), d @ np.array([ey.x, ey.y])])
        theta = theta0 + z.turning_at(svals)
    else:
        rev = z.length - svals
        pts, _, _ = z.sample_at(rev)
        d = pts - np.array([inst.B.x, inst.B.y])
        e1 = -inst.beta
        e2 = rot90(inst.beta)
        xy = np.column_stack([d @ np.array([e1.x, e1.y]), d @ np.array([e2.x, e2.y])])
        theta = inst.omega - (theta0 + z.turning_at(rev))
    return _NormalizedCompetitor(xy=xy, theta=theta)


def _check_hypothesis(inst: ProblemInstance, z: PiecewiseCurve,
                      ra: float) -> float:
    e = max_curvature(z)
    if e > (1.0 / ra) * (1.0 + 1e-12):
        raise HypothesisViolated(
            f"competitor max curvature {e!r} exceeds 1/R_a = {1.0 / ra!r}")
    arc_len = ra * inst.omega
    if z.length < arc_len * (1.0 - 1e-12):
        raise HypothesisViolated(
            f"competitor length {z.length!r} shorter than the optimal arc {arc_len!r}")
    return e


def zeta_profile(inst: ProblemInstance, sol: OptimalSolution, z: PiecewiseCurve,
                 n: int = 2048) -> np.ndarray:
    """Normal gap zeta(s) between z and the optimal curve on [0, l].

    l = R_a * Omega is the optimal arc length; the last entry is the
    certificate value zeta_0, nonpositive whenever the hypotheses hold.
    Requires max curvature of z at most 1/R_a and length at least l.
    """
    if n < 1:
        raise InvalidInput(f"need n >= 1 samples, got {n!r}")
    ra = sol.radius
    _check_hypothesis(inst, z, ra)
    arc_len = ra * inst.omega
    svals = np.linspace(0.0, min(arc_len, z.length), n + 1)
    phi = svals / ra
    x = ra * np.sin(phi)
    y = ra * (1.0 - np.cos(phi))
    comp = _normalize_samples(inst, z, svals)
    return -(comp.xy[:, 0] - x) * np.sin(phi) + (comp.xy[:, 1] - y) * np.cos(phi)


def frame_gap_profiles(inst: ProblemInstance, sol: OptimalSolution, z: PiecewiseCurve,
                       n: int = 2048) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate gaps (xhat - x, yhat - y) between z and the optimal arc.

    Sampled on [0, l] in the normalized frame.  Under the certificate
    hypothesis the first gap is nondecreasing and the second
    nonincreasing whenever the turning angle is below pi/2; both vanish
    identically only for the optimal curve itself.
    """
    if n < 1:
        raise InvalidInput(f"need n >= 1 samples, got {n!r}")
    ra = sol.radius
    _check_hypothesis(inst, z, ra)
    arc_len = ra * inst.omega
    svals = np.linspace(0.0, min(arc_len, z.length), n + 1)
    phi = svals / ra
    comp = _normalize_samples(inst, z, svals)
    return (comp.xy[:, 0] - ra * np.sin(phi),
            comp.xy[:, 1] - ra * (1.0 - np.cos(phi)))


def theta_phi_bound(inst: ProblemInstance, sol: OptimalSolution, z: PiecewiseCurve,
                    n: int = 2048) -> float:
    """Largest excess of theta(s) - phi(s) over (e - 1/R_a) s on (0, l]."""
    if n < 1:
        raise InvalidInput(f"need n >= 1 samples, got {n!r}")
    ra = sol.radius
    e = _check_hypothesis(inst, z, ra)
    arc_len = ra * inst.omega
    svals = np.linspace(0.0, min(arc_len, z.length), n + 1)[1:]
    phi = svals / ra
    comp = _normalize_samples(inst, z, svals)
    excess = comp.theta - phi - (e - 1.0 / ra) * svals
    return float(excess.max())


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


def zeta0_geometric(inst: ProblemInstance, r1: float, r2: float,
                    d1: float, d2: float) -> float:
    """zeta_0 measured on the actually-constructed composite geometry.

    Builds segment d1, arc (r1, Omega/2), segment d2, arc (r2, Omega/2)
    in the normalized frame and projects the final point's offset from
    the endpoint onto the outward normal of the terminal tangent.  The
    composite need not close on B; this is the independent cross-check
    of the closed form.
    """
    if r1 <= 0.0 or r2 <= 0.0:
        raise InvalidInput("arc radii must be positive")
    if d1 < 0.0 or d2 < 0.0:
        raise InvalidInput("segment lengths must be nonnegative")
    om = inst.omega
    ra = arc_radius(inst)
    seg = abs(inst.oa - inst.ob)
    xb = ra * math.sin(om) + seg * math.cos(om)
    yb = ra * (1.0 - math.cos(om)) + seg * math.sin(om)
    builder = PathBuilder()
    builder.line(d1).arc(r1, 0.5 * om).line(d2).arc(r2, 0.5 * om)
    end = builder.point
    return -(end.x - xb) * math.sin(om) + (end.y - yb) * math.cos(om)


def tangent_intercepts(curve: PiecewiseCurve, inst: ProblemInstance,
                       s: float) -> tuple[float, float]:
    """Intercept lengths (u, v) of the tangent line at arc length s.

    The tangent at the curve point meets the line through A along alpha
    at a point Q with AQ = u * alpha and Q->point = v * tangent.
    Undefined while the heading is still zero (initial straight run).
    At s = L the pair is (u0, v0), strictly positive for admissible
    curves; for the optimal curve it equals (OA, OB).
    """
    frame = Frame(inst.A, inst.alpha)
    point, _, _ = curve.evaluate(s)
    p = frame.to_frame(point)
    phi = heading(curve, inst, s)
    sphi = math.sin(phi)
    if sphi < 1e-12:
        raise UndefinedHeading(f"heading {phi!r} at s={s!r} has sin(phi) < 1e-12")
    u = p.x - p.y * math.cos(phi) / sphi
    v = p.y / sphi
    return u, v


@dataclass(frozen=True)
class Certificate:
    """Numerical optimality evidence for a competitor curve."""

    zeta0: float | None
    support_min_residual: float
    theta_phi_max_excess: float | None
    u0: float | None
    v0: float | None
    e: float

    @property
    def uv_positive(self) -> bool:
        return (self.u0 is not None and self.v0 is not None
                and self.u0 > 0.0 and self.v0 > 0.0)

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

    The zeta and heading-gap entries require max curvature at most
    1/R_a; they are None when that hypothesis fails (the certificate
    then simply does not apply, which is not an error here).
    """
    e = max_curvature(z)
    sup = support_min(z, n=n)
    try:
        u0, v0 = tangent_intercepts(z, inst, z.length)
    except UndefinedHeading:
        u0 = v0 = None
    try:
        zeta0 = float(zeta_profile(inst, sol, z, n=n)[-1])
        excess = theta_phi_bound(inst, sol, z, n=n)
    except HypothesisViolated:
        zeta0 = None
        excess = None
    return Certificate(zeta0=zeta0, support_min_residual=sup,
                       theta_phi_max_excess=excess, u0=u0, v0=v0, e=e)
