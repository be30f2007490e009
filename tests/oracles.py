"""Independent reference implementations the tests check the library against.

Each one computes a quantity the library has in closed form by a
different route: the optimal radius by bisection on two tangency
distances, curvature by finite differences of sampled points, the
composite certificate zeta_0 by building the composite, and the
heading-gap excess by sampling, and the support check's minimum from
curve points evaluated at candidate arc lengths, per primitive pair.
More restate a library routine in another form, to be compared with
it bit for bit: the turning as a numpy computation over many samples;
the certificate gap profiles one point at a time through `evaluate`
(`evaluate_row`'s values as `Vec2`s), whose last zeta entry is zeta_0;
and, in `Vec2` arithmetic with the same expressions operand for
operand, the tangent intercepts, the heading-gap bound, the max
curvature as a loop over the primitives and the membership report with
each of its angles computed on its own.  The solve path's earlier
forms are kept too, to be compared with it bit for bit: the two-pass
`to_svg` (bounds, then path data), the `Vec2` `offset` with every arc
from the constructor, the `Vec2` `bezier_min_radius` (and the
parabola's velocity), the `normalized` legs of `make_instance`, the
G1 check that calls atan2 at every joint, the support check with its
terms in their earlier order and the primitives' end data in `Vec2`
arithmetic.  `sample_arrays` packs
`sample_at`'s rows into numpy arrays for the tests that compute on
them.  None of them is used by the
library itself, which needs no numpy.

The helpers only tests need live here too: drawing a random instance,
moving one by a similarity, the admissible-radius predicate, a view of
the canonical frame (omega, R_a, the far endpoint, whether it is
mirrored, and the closing tuple the sweep reads) and its origin and
axes in world coordinates.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from arcline import (
    Arc,
    InternalError,
    InvalidInput,
    MembershipReport,
    OutOfRange,
    PathBuilder,
    OffsetResult,
    PiecewiseCurve,
    Point2,
    ProblemInstance,
    QuadraticBezier,
    Segment,
    UndefinedHeading,
    Vec2,
    arc_radius,
    heading,
    make_instance,
    max_curvature,
    oriented_angle,
)
from arcline.curves import turned_start_angle
from arcline.geometry import (
    ANG_TOL,
    POS_REL,
    ROUND_REL,
    TWO_PI,
    dist,
    principal_angle,
    rot90,
    unit_turn,
)
from arcline.dubins import _closing
from arcline.synthesis import frame_mirrored


def normalized(v: Vec2) -> Vec2:
    """v over its norm, as the library formed unit vectors before it did so
    in floats."""
    n = v.norm()
    if n == 0.0:
        raise InvalidInput("cannot normalize the zero vector")
    return Vec2(v.x / n, v.y / n)


class FrameView(NamedTuple):
    omega: float
    ra: float
    xb: float
    yb: float
    mirrored: bool
    closing: tuple


def canonical_frame(inst: ProblemInstance) -> FrameView:
    """The canonical frame as the library records it: R_a from
    `arc_radius`, the far endpoint (xb, yb) from `dubins._closing` and
    the orientation from `frame_mirrored`."""
    ra = arc_radius(inst)
    closing = _closing(inst, ra)
    return FrameView(inst.omega, ra, closing[0], closing[1], frame_mirrored(inst), closing)


def evaluate(curve: PiecewiseCurve, s: float) -> tuple[Point2, Vec2, float]:
    """Point, unit tangent and signed curvature at arc length s:
    `curve.evaluate_row`'s values as `Vec2`s."""
    x, y, tx, ty, kappa = curve.evaluate_row(s)
    return Vec2(x, y), Vec2(tx, ty), kappa


def is_feasible_radius(inst: ProblemInstance, radius: float) -> bool:
    """True iff a curve of minimum turn radius `radius` is admissible,
    i.e. 0 < radius <= R_a (with relative rounding slack at the boundary)."""
    return 0.0 < radius <= arc_radius(inst) * (1.0 + ROUND_REL)


def similarity_transform(inst: ProblemInstance, rotation: float, scale: float,
                         translation: Vec2) -> ProblemInstance:
    """Rotate, scale and translate an instance.  Omega is unchanged."""
    if scale <= 0.0:
        raise InvalidInput(f"scale must be positive, got {scale!r}")
    c, s = math.cos(rotation), math.sin(rotation)

    def mov(p: Point2) -> Point2:
        return Vec2(scale * (c * p.x - s * p.y) + translation.x,
                    scale * (s * p.x + c * p.y) + translation.y)

    def rot(v: Vec2) -> Vec2:
        return Vec2(c * v.x - s * v.y, s * v.x + c * v.y)

    return ProblemInstance(mov(inst.A), mov(inst.B), mov(inst.O), rot(inst.alpha),
                           rot(inst.beta), inst.omega, inst.symmetric, inst.reversed)


def random_instance(rng, omega: float | None = None) -> ProblemInstance:
    """Draw a valid instance: omega in (0.1, pi - 0.1) unless given,
    leg lengths in [0.5, 2], random pose."""
    if omega is None:
        omega = rng.uniform(0.1 + 1e-6, math.pi - 0.1 - 1e-6)
    if not (ANG_TOL < omega < math.pi - ANG_TOL):
        raise InvalidInput(f"omega {omega!r} outside (0, pi)")
    pose = rng.uniform(-math.pi, math.pi)
    oa = rng.uniform(0.5, 2.0)
    ob = rng.uniform(0.5, 2.0)
    O = Vec2(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    turned = principal_angle(pose + omega)
    alpha = Vec2(math.cos(pose), math.sin(pose))
    beta = Vec2(math.cos(turned), math.sin(turned))
    A = O - alpha * oa
    B = O + beta * ob
    return make_instance(O, A, B)


def frame_axes(inst: ProblemInstance) -> tuple[Point2, Vec2, Vec2]:
    """The canonical frame's origin and axes in world coordinates: A,
    alpha and its quarter turn, or, for a mirrored (segment-first) frame,
    B, -beta and rot90(beta)."""
    if canonical_frame(inst).mirrored:
        return inst.B, -inst.beta, rot90(inst.beta)
    x_axis = normalized(inst.alpha)
    return inst.A, x_axis, rot90(x_axis)


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
    end = PathBuilder().line(d1).arc(r1, 0.5 * om).line(d2).arc(r2, 0.5 * om).build().end_point
    return -(end.x - frame.xb) * math.sin(om) + (end.y - frame.yb) * math.cos(om)


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


def end_data(p) -> list[tuple[Vec2, Vec2]]:
    """(point, unit tangent) at the start and the end of a primitive, in
    `Vec2` arithmetic: a segment's ends and `normalized(end - start)`, an
    arc's center + radius * e(psi) and sigma * rot90(e(psi)) at the
    angles psi of arc length 0 and L."""
    if isinstance(p, Segment):
        d = normalized(p.end - p.start)
        return [(p.start, d), (p.end, d)]
    sign = 1.0 if p.sweep > 0 else -1.0
    out = []
    for s in (0.0, p.length):
        psi = p.start_angle + p.sweep * (s / p.length)
        e = Vec2(math.cos(psi), math.sin(psi))
        out.append((p.center + e * p.radius, rot90(e) * sign))
    return out


def support_min_by_ends(curve: PiecewiseCurve) -> float:
    """`support_min` with its terms in their earlier order: for each
    primitive end, its corner terms (a) and then its (b) terms, and after
    them the (c) and (d) terms arc by arc.  The same candidates and the
    same expressions, so the same minimum bit for bit."""
    ends = []  # (x, y, N, angle of -N) at both ends of every primitive
    arcs = []  # (center x, y, radius, sigma, start angle, |sweep|)
    for p in curve.primitives:
        if isinstance(p, Arc):
            sign = 1.0 if p.sweep > 0 else -1.0
            down0 = p.start_angle if sign > 0 else p.start_angle + math.pi
            down1 = down0 + p.sweep
            arcs.append((p.center.x, p.center.y, p.radius, sign, p.start_angle, abs(p.sweep)))
        else:
            down0 = down1 = p.direction.angle() - 0.5 * math.pi
        q, t = p.start_point, p.start_tangent
        ends.append((q.x, q.y, -t.y, t.x, down0))
        q, t = p.end_point, p.end_tangent
        ends.append((q.x, q.y, -t.y, t.x, down1))
    points = [(x, y) for x, y, _, _, _ in ends]
    gammas = []
    for xs, ys, nx, ny, down in ends:
        gammas += [(xt - xs) * nx + (yt - ys) * ny for xt, yt in points]  # (a)
        for cx, cy, r, sign, a0, span in arcs:
            if 0.0 < (sign * (down - a0)) % TWO_PI < span:
                gammas.append((cx - xs) * nx + (cy - ys) * ny - r)  # (b)
    for cx, cy, r, sign, a0, span in arcs:
        for xt, yt in points:
            dx, dy = xt - cx, yt - cy
            if 0.0 < (sign * (math.atan2(sign * dy, sign * dx) - a0)) % TWO_PI < span:
                gammas.append(sign * r - math.hypot(dx, dy))  # (c)
        for cxj, cyj, rj, signj, a0j, spanj in arcs:
            dx, dy = cxj - cx, cyj - cy
            if dx == 0.0 and dy == 0.0:
                continue
            if (0.0 < (sign * (math.atan2(sign * dy, sign * dx) - a0)) % TWO_PI < span
                    and 0.0 < (signj * (math.atan2(dy, dx) - a0j)) % TWO_PI < spanj):
                gammas.append(sign * r - rj - math.hypot(dx, dy))  # (d)
    return min(gammas)


def support_min_pairs(curve: PiecewiseCurve) -> float:
    """Minimum of gamma(s, t) = <X(t) - X(s), rot90(X'(s))> over candidate points.

    The pairwise form of `support_min`: per ordered primitive pair
    (i, j), with psi the radial angle of arc i and phi that of arc j,
    the candidates are the ends of i and of j; psi along +-(X(t0) - c_i)
    for each end t0 of j and, for an arc j, along +-(c_j - c_i); phi
    along +-N(s0) for each end s0 of i and along +-e(psi) for each psi
    above.  Every candidate s is paired with every candidate t of the
    pair, and the curve is evaluated once per distinct candidate arc
    length through `evaluate_row`, so the value comes from evaluated
    points, not from the closed forms the library uses.
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
    # `turning`'s range test on the extreme samples; a NaN fails it too
    slack = ROUND_REL * curve.length
    lo, hi = svals.min(initial=0.0), svals.max(initial=0.0)
    if not (lo >= -slack and hi <= curve.length + slack):
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
    origin, x_axis, y_axis = frame_axes(inst)
    out = []
    for i in range(n + 1):
        s = end if i == n else i * (end / n)
        point, _, _ = evaluate(z, z.length - s if frame.mirrored else s)
        d = point - origin
        phi = s / ra
        gx = d.dot(x_axis) - ra * math.sin(phi)
        gy = d.dot(y_axis) - ra * (1.0 - math.cos(phi))
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


def max_curvature_loop(curve: PiecewiseCurve) -> float:
    """Largest |curvature| over the chain, by a loop over its primitives."""
    best = 0.0
    for p in curve.primitives:
        if isinstance(p, Arc):
            best = max(best, 1.0 / p.radius)
    return best


def check_membership_vec(curve: PiecewiseCurve, inst: ProblemInstance) -> MembershipReport:
    """`check_membership` with each residual computed on its own: the
    A-tangent residual from the angle of the start tangent to alpha, and
    phi(0) from the angle of alpha to the start tangent."""
    pos_tol = inst.pos_tol
    endpoint_a = dist(curve.start_point, inst.A)
    endpoint_b = dist(curve.end_point, inst.B)
    tangent_a = abs(oriented_angle(curve.start_tangent, inst.alpha))
    tangent_b = abs(oriented_angle(curve.end_tangent, inst.beta))
    curvature_ok = all(p.sweep_angle >= 0.0 for p in curve.primitives)
    phi0 = oriented_angle(inst.alpha, curve.start_tangent)
    phis = [phi0 + t for t in curve._turn_breaks]
    monotone = all(b - a >= -ANG_TOL for a, b in zip(phis, phis[1:]))
    range_ok = min(phis) >= -ANG_TOL and max(phis) <= inst.omega + ANG_TOL
    in_e = (endpoint_a <= pos_tol and endpoint_b <= pos_tol
            and tangent_a <= ANG_TOL and tangent_b <= ANG_TOL
            and curvature_ok and monotone and range_ok)
    return MembershipReport(endpoint_a, endpoint_b, tangent_a, tangent_b,
                            curvature_ok, monotone, range_ok, in_e)


def tangent_intercepts_vec(curve: PiecewiseCurve, inst: ProblemInstance,
                           s: float) -> tuple[float, float]:
    """`tangent_intercepts` in `Vec2` arithmetic: the point from
    `evaluate`, projected with `dot` on alpha and its quarter turn."""
    x = normalized(inst.alpha)
    point, _, _ = evaluate(curve, s)
    d = point - inst.A
    px, py = d.dot(x), d.dot(rot90(x))
    phi = heading(curve, inst, s)
    sphi = math.sin(phi)
    if sphi < ROUND_REL:
        raise UndefinedHeading(f"heading {phi!r} at s={s!r} has sin(phi) < {ROUND_REL!r}")
    return px - py * math.cos(phi) / sphi, py / sphi


def meets_hypothesis(inst: ProblemInstance, sol, z: PiecewiseCurve) -> bool:
    """The certificate hypothesis: max curvature at most 1/R_a and length
    at least R_a * Omega, each up to rounding."""
    ra = sol.radius
    return not (max_curvature_loop(z) > (1.0 / ra) * (1.0 + ROUND_REL)
                or z.length < ra * inst.omega * (1.0 - ROUND_REL))


def theta_phi_bound_vec(inst: ProblemInstance, sol, z: PiecewiseCurve) -> float:
    """`theta_phi_bound` with the frame's orientation and omega read from
    `canonical_frame` and e from `max_curvature_loop`; z must meet the
    hypothesis."""
    ra = sol.radius
    e = max_curvature_loop(z)
    frame = canonical_frame(inst)
    length = z.length
    end = min(ra * inst.omega, length)
    inner = z.breaks[1:-1]
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


def bezier_velocity(bez: QuadraticBezier, t: float) -> Vec2:
    """B'(t) = 2 (1 - t) (p1 - p0) + 2 t (p2 - p1), in `Vec2` arithmetic."""
    return ((bez.p1 - bez.p0) * (2.0 * (1.0 - t))
            + (bez.p2 - bez.p1) * (2.0 * t))


def bezier_min_radius_vec(bez: QuadraticBezier) -> tuple[float, float]:
    """`bezier_min_radius` in `Vec2` arithmetic, the speed from
    `bezier_velocity`."""
    e1 = bez.p1 - bez.p0
    e2 = bez.p2 - bez.p1
    cr = 4.0 * e1.cross(e2)
    if abs(cr) <= ROUND_REL * 4.0 * e1.norm() * e2.norm():
        return math.inf, 0.5
    d = e2 - e1
    denom = d.dot(d)
    t_star = 0.0 if denom == 0.0 else min(max(-e1.dot(d) / denom, 0.0), 1.0)
    speed = bezier_velocity(bez, t_star).norm()
    return speed ** 3 / abs(cr), t_star


def normalized_legs(O: Point2, A: Point2, B: Point2) -> tuple[Vec2, Vec2]:
    """The unit tangents make_instance(O, A, B) stores, from `normalized`:
    normalized(O - A) and normalized(B - O), or, where it reverses the
    traversal, -normalized(B - O) and -normalized(O - A)."""
    alpha, beta = normalized(O - A), normalized(B - O)
    if oriented_angle(alpha, beta) < 0.0:
        return -beta, -alpha
    return alpha, beta


def g1_check_atan2(prims) -> None:
    """The G1 check of `PiecewiseCurve` with pos_tol from every primitive's
    extent and atan2 at every joint; raises InvalidInput as it does."""
    pos_tol = POS_REL * max(max(abs(p.start_point.x), abs(p.start_point.y),
                                abs(p.end_point.x), abs(p.end_point.y), p.length)
                            for p in prims)
    for prev, nxt in zip(prims, prims[1:]):
        gap = dist(prev.end_point, nxt.start_point)
        if gap > pos_tol:
            raise InvalidInput(f"position gap {gap!r} at joint exceeds {pos_tol!r}")
        turn = unit_turn(prev.end_tangent, nxt.start_tangent)
        if abs(turn) > ANG_TOL:
            raise InvalidInput(f"tangent gap {turn!r} rad at joint")


def _offset_arc_constructed(arc: Arc, delta: float):
    """`offsets._offset_arc` with every arc from the `Arc` constructor."""
    r = arc.radius + delta
    if abs(r) <= POS_REL * arc.radius:
        return None
    if r > 0.0:
        return Arc(arc.center, r, arc.start_angle, arc.sweep)
    return Arc(arc.center, -r, turned_start_angle(arc.start_angle, math.pi), arc.sweep)


def offset_vec(curve: PiecewiseCurve, distance: float) -> OffsetResult:
    """`offset` in `Vec2` arithmetic, each segment shifted by
    rot90(direction) * distance and each arc from the constructor; it
    checks the distance's sign only."""
    if not (distance > 0.0):
        raise InvalidInput(f"offset distance must be positive, got {distance!r}")
    left_prims: list = []
    right_prims: list = []
    left_degenerate = right_degenerate = False
    for p in curve.primitives:
        if isinstance(p, Segment):
            shift = rot90(p.direction) * distance
            left_prims.append(Segment(p.start + shift, p.end + shift))
            right_prims.append(Segment(p.start - shift, p.end - shift))
            continue
        ccw = p.sweep > 0
        inner = _offset_arc_constructed(p, -distance)
        outer = _offset_arc_constructed(p, distance)
        if p.radius - distance <= POS_REL * p.radius:
            if ccw:
                left_degenerate = True
            else:
                right_degenerate = True
        inner_side, outer_side = (left_prims, right_prims) if ccw else (right_prims, left_prims)
        if inner is not None:
            inner_side.append(inner)
        outer_side.append(outer)
    left = PiecewiseCurve(left_prims, require_g1=not left_degenerate)
    right = PiecewiseCurve(right_prims, require_g1=not right_degenerate)
    return OffsetResult(left=left, right=right, distance=distance,
                        degenerate=left_degenerate or right_degenerate)


def _fmt(value: float) -> str:
    if value == 0.0:
        return "0"
    return format(value, ".9g")


def _primitive_bounds(p) -> tuple[float, float, float, float]:
    xs = [p.start_point.x, p.end_point.x]
    ys = [p.start_point.y, p.end_point.y]
    if isinstance(p, Arc):
        a0 = p.start_angle
        a1 = p.start_angle + p.sweep
        lo, hi = min(a0, a1), max(a0, a1)
        k = math.ceil(lo / (0.5 * math.pi))
        angle = k * 0.5 * math.pi
        for _ in range(4):
            if angle > hi:
                break
            xs.append(p.center.x + p.radius * math.cos(angle))
            ys.append(p.center.y + p.radius * math.sin(angle))
            angle += 0.5 * math.pi
    return min(xs), min(ys), max(xs), max(ys)


def _path_data(curve: PiecewiseCurve) -> str:
    start = curve.start_point
    parts = [f"M {_fmt(start.x)} {_fmt(-start.y)}"]
    for p in curve.primitives:
        end = p.end_point
        if isinstance(p, Segment):
            parts.append(f"L {_fmt(end.x)} {_fmt(-end.y)}")
        else:
            large = 1 if abs(p.sweep) > math.pi else 0
            sweep_flag = 1 if p.sweep < 0 else 0
            parts.append(
                f"A {_fmt(p.radius)} {_fmt(p.radius)} 0 {large} {sweep_flag} "
                f"{_fmt(end.x)} {_fmt(-end.y)}")
    return " ".join(parts)


def to_svg_two_pass(curves: list[PiecewiseCurve]) -> str:
    """`to_svg` in two passes: the bounds of every primitive, then the
    path data of every curve, each number through a formatting function."""
    palette = ("#000000", "#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b")
    if not curves:
        return ('<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1">'
                "</svg>\n")
    xmin = ymin = math.inf
    xmax = ymax = -math.inf
    for curve in curves:
        for p in curve.primitives:
            x0, y0, x1, y1 = _primitive_bounds(p)
            xmin, ymin = min(xmin, x0), min(ymin, y0)
            xmax, ymax = max(xmax, x1), max(ymax, y1)
    span = max(xmax - xmin, ymax - ymin)
    margin = 0.05 * span
    vb = (xmin - margin, -ymax - margin,
          (xmax - xmin) + 2.0 * margin, (ymax - ymin) + 2.0 * margin)
    stroke_width = _fmt(0.004 * span)
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(vb[0])} {_fmt(vb[1])} {_fmt(vb[2])} {_fmt(vb[3])}">'
    ]
    for i, curve in enumerate(curves):
        lines.append(
            f'  <path d="{_path_data(curve)}" fill="none" '
            f'stroke="{palette[i % len(palette)]}" stroke-width="{stroke_width}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
