"""Output checkers, computed apart from the program.

Nothing here imports arcline.  Every check rebuilds what it needs from
the instance JSON with its own plane geometry (the optimal radius from
the bisector construction, the parabola's minimum radius from dense
sampling, offsets as parallel / concentric primitives) and compares the
program's output against it, or tests a property the output must have.
A failed check raises CheckError.

Curves are handled in the program's JSON primitive schema:
{"type": "segment", "start": [x, y], "end": [x, y]} or
{"type": "arc", "center": [x, y], "radius": r, "startAngle": a, "sweep": w}.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass

#: position tolerance, relative to the scene diameter
POS_REL = 1e-9
#: position slack for rounding in large coordinates, relative to max |coordinate|
COORD_REL = 1e-14
#: angle tolerance (radians)
ANG_TOL = 1e-9
#: relative tolerance on radii and curvatures
RAD_REL = 1e-9
#: sweep report: grid bounds used by the program's default sweep
SWEEP_R_LO, SWEEP_R_HI = 0.2, 3.0
#: demo-illposed default boundary data (the CLI's built-in example)
DEMO_A, DEMO_ALPHA, DEMO_B, DEMO_BETA = (0.0, 0.0), (1.0, 0.0), (2.0, 1.0), (0.0, -1.0)

SVG_NS = "{http://www.w3.org/2000/svg}"


class CheckError(Exception):
    """An output failed an independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# --- plane geometry on (x, y) tuples ---------------------------------------

def add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def mul(p, s):
    return (p[0] * s, p[1] * s)


def dot(p, q):
    return p[0] * q[0] + p[1] * q[1]


def cross(p, q):
    return p[0] * q[1] - p[1] * q[0]


def norm(p):
    return math.hypot(p[0], p[1])


def dist(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


def unit(p):
    n = norm(p)
    return (p[0] / n, p[1] / n)


def rot90(p):
    return (-p[1], p[0])


def polar(angle, radius=1.0):
    return (radius * math.cos(angle), radius * math.sin(angle))


def angle_between(u, v) -> float:
    return abs(math.atan2(cross(u, v), dot(u, v)))


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# --- instances --------------------------------------------------------------

@dataclass(frozen=True)
class Geometry:
    """Boundary data as given (caller orientation) and normalized."""

    O: tuple
    A: tuple          # caller orientation
    B: tuple
    alpha: tuple
    beta: tuple
    reversed: bool    # the caller's turning angle is negative
    omega: float      # |turning angle|
    An: tuple         # normalized: counterclockwise traversal
    Bn: tuple
    alpha_n: tuple
    beta_n: tuple
    oa: float         # |O An|, |O Bn|
    ob: float
    diameter: float
    ra: float         # optimal radius, bisector construction
    coord_max: float  # largest coordinate magnitude

    @property
    def pos_tol(self) -> float:
        return POS_REL * self.diameter + COORD_REL * self.coord_max


def geometry(obj: dict) -> Geometry:
    A, B = tuple(obj["A"]), tuple(obj["B"])
    if "O" in obj:
        O = tuple(obj["O"])
        alpha, beta = unit(sub(O, A)), unit(sub(B, O))
    else:
        alpha, beta = tuple(obj["alpha"]), tuple(obj["beta"])
        t = cross(sub(B, A), beta) / cross(alpha, beta)
        O = add(A, mul(alpha, t))
    turn = math.atan2(cross(alpha, beta), dot(alpha, beta))
    rev = turn < 0.0
    An, Bn, an, bn = (B, A, mul(beta, -1.0), mul(alpha, -1.0)) if rev else (A, B, alpha, beta)
    oa, ob = dist(O, An), dist(O, Bn)
    # circle tangent to the nearer leg at its endpoint: its center lies on
    # the bisector of the legs at O
    ea, eb = unit(sub(An, O)), unit(sub(Bn, O))
    u = unit(rot90(sub(eb, ea)))  # no cancellation when the legs are nearly opposite
    if dot(u, add(ea, eb)) < 0.0:
        u = mul(u, -1.0)
    near, leg, e_near = (An, oa, ea) if oa <= ob else (Bn, ob, eb)
    center = add(O, mul(u, leg / dot(u, e_near)))
    return Geometry(O=O, A=A, B=B, alpha=alpha, beta=beta, reversed=rev,
                    omega=abs(turn), An=An, Bn=Bn, alpha_n=an, beta_n=bn,
                    oa=oa, ob=ob, diameter=max(oa, ob, dist(A, B)),
                    ra=dist(center, near), coord_max=max(map(abs, O + A + B)))


def optimal_curve(geo: Geometry, caller_orientation: bool) -> list[dict]:
    """The arc+segment optimum built from the bisector construction."""
    n = rot90(geo.alpha_n)
    seg = abs(geo.oa - geo.ob)
    prims: list[dict] = []
    if geo.oa <= geo.ob:
        start = geo.An
    else:
        start = add(geo.An, mul(geo.alpha_n, seg))
        prims.append(segment(geo.An, start))
    center = add(start, mul(n, geo.ra))
    a0 = math.atan2(start[1] - center[1], start[0] - center[0])
    prims.append(arc(center, geo.ra, a0, geo.omega))
    if geo.oa <= geo.ob and seg > geo.pos_tol:
        prims.append(segment(end_point(prims[-1]), geo.Bn))
    return reverse(prims) if caller_orientation and geo.reversed else prims


# --- primitives --------------------------------------------------------------

def segment(p, q) -> dict:
    return {"type": "segment", "start": list(p), "end": list(q)}


def arc(center, radius, start_angle, sweep) -> dict:
    return {"type": "arc", "center": list(center), "radius": radius,
            "startAngle": start_angle, "sweep": sweep}


def is_arc(p: dict) -> bool:
    return p["type"] == "arc"


def start_point(p):
    if is_arc(p):
        return add(tuple(p["center"]), polar(p["startAngle"], p["radius"]))
    return tuple(p["start"])


def end_point(p):
    if is_arc(p):
        return add(tuple(p["center"]), polar(p["startAngle"] + p["sweep"], p["radius"]))
    return tuple(p["end"])


def _arc_tangent(p, angle):
    t = rot90(polar(angle))
    return t if p["sweep"] > 0 else mul(t, -1.0)


def start_tangent(p):
    if is_arc(p):
        return _arc_tangent(p, p["startAngle"])
    return unit(sub(tuple(p["end"]), tuple(p["start"])))


def end_tangent(p):
    if is_arc(p):
        return _arc_tangent(p, p["startAngle"] + p["sweep"])
    return unit(sub(tuple(p["end"]), tuple(p["start"])))


def length(p) -> float:
    return p["radius"] * abs(p["sweep"]) if is_arc(p) else dist(start_point(p), end_point(p))


def point_at(p, u: float):
    """Point at fraction u in [0, 1] of the primitive."""
    if is_arc(p):
        return add(tuple(p["center"]), polar(p["startAngle"] + u * p["sweep"], p["radius"]))
    return add(start_point(p), mul(sub(end_point(p), start_point(p)), u))


def reverse(prims: list[dict]) -> list[dict]:
    out = []
    for p in reversed(prims):
        if is_arc(p):
            out.append(arc(p["center"], p["radius"], p["startAngle"] + p["sweep"], -p["sweep"]))
        else:
            out.append(segment(p["end"], p["start"]))
    return out


def max_curvature(prims: list[dict]) -> float:
    return max((1.0 / p["radius"] for p in prims if is_arc(p)), default=0.0)


def prims_of(curve) -> list[dict]:
    """Plain primitives of a program curve object, read field by field."""
    out = []
    for p in curve.primitives:
        if hasattr(p, "radius"):
            out.append(arc((p.center.x, p.center.y), p.radius, p.start_angle, p.sweep))
        else:
            out.append(segment((p.start.x, p.start.y), (p.end.x, p.end.y)))
    return out


def offset_prims(prims: list[dict], d: float) -> list[dict]:
    """Parallel curve on the rot90(tangent) side (d < 0: the other side)."""
    out = []
    for p in prims:
        if is_arc(p):
            r = p["radius"] - d if p["sweep"] > 0 else p["radius"] + d
            out.append(arc(p["center"], r, p["startAngle"], p["sweep"]))
        else:
            shift = mul(rot90(start_tangent(p)), d)
            out.append(segment(add(tuple(p["start"]), shift), add(tuple(p["end"]), shift)))
    return out


def distance_to_primitive(q, p) -> float:
    if is_arc(p):
        c = tuple(p["center"])
        rel = math.atan2(q[1] - c[1], q[0] - c[0]) - p["startAngle"]
        swept = (rel if p["sweep"] > 0 else -rel) % (2.0 * math.pi)
        if swept <= abs(p["sweep"]):
            return abs(dist(q, c) - p["radius"])
        return min(dist(q, start_point(p)), dist(q, end_point(p)))
    a, b = start_point(p), end_point(p)
    ab = sub(b, a)
    t = min(max(dot(sub(q, a), ab) / dot(ab, ab), 0.0), 1.0)
    return dist(q, add(a, mul(ab, t)))


# --- checks ---------------------------------------------------------------------

def check_chain(prims: list[dict], start, t_start, end, t_end, turn_sign: float,
                pos_tol: float) -> None:
    """Endpoints and end tangents, G1 joints, curvature of one sign."""
    require(len(prims) >= 1, "curve has no primitives")
    require(dist(start_point(prims[0]), start) <= pos_tol,
            f"curve starts {dist(start_point(prims[0]), start)!r} away from its start point")
    require(dist(end_point(prims[-1]), end) <= pos_tol,
            f"curve ends {dist(end_point(prims[-1]), end)!r} away from its end point")
    require(angle_between(start_tangent(prims[0]), t_start) <= ANG_TOL, "wrong start tangent")
    require(angle_between(end_tangent(prims[-1]), t_end) <= ANG_TOL, "wrong end tangent")
    for prev, nxt in zip(prims, prims[1:]):
        require(dist(end_point(prev), start_point(nxt)) <= pos_tol, "position gap at a joint")
        require(angle_between(end_tangent(prev), start_tangent(nxt)) <= ANG_TOL,
                "tangent gap at a joint")
    for p in prims:
        require(not is_arc(p) or p["sweep"] * turn_sign > 0.0, "curvature changes sign")


def check_solution(geo: Geometry, payload: dict, caller_orientation: bool) -> None:
    """Optimal curve: from A to B with the tangents alpha / beta, G1, one
    arc tangent to both boundary lines with radius R_a, and one segment
    of length |OA - OB|."""
    prims = payload["curve"]["primitives"]
    if caller_orientation:
        check_chain(prims, geo.A, geo.alpha, geo.B, geo.beta,
                    -1.0 if geo.reversed else 1.0, geo.pos_tol)
        require(payload["reversed"] == geo.reversed, "wrong reversed flag")
    else:
        check_chain(prims, geo.An, geo.alpha_n, geo.Bn, geo.beta_n, 1.0, geo.pos_tol)
    require(close(payload["R_a"], geo.ra, RAD_REL), f"R_a {payload['R_a']!r} != {geo.ra!r}")
    arcs = [p for p in prims if is_arc(p)]
    require(len(arcs) == 1, f"expected one arc, got {len(arcs)}")
    a = arcs[0]
    require(close(a["radius"], geo.ra, RAD_REL), "arc radius is not R_a")
    require(abs(abs(a["sweep"]) - geo.omega) <= ANG_TOL, "arc sweep is not the turning angle")
    require(abs(payload["arcSweep"] - geo.omega) <= ANG_TOL, "arcSweep is not the turning angle")
    c = tuple(a["center"])
    require(dist(c, tuple(payload["arcCenter"])) <= geo.pos_tol, "arcCenter is not the arc's center")
    for direction in (geo.alpha, geo.beta):
        gap = abs(cross(direction, sub(c, geo.O))) - geo.ra
        require(abs(gap) <= geo.pos_tol, f"arc circle misses a boundary line by {gap!r}")
    require(close(max_curvature(prims), 1.0 / geo.ra, RAD_REL), "max curvature is not 1/R_a")
    require(close(payload["maxCurvature"], 1.0 / geo.ra, RAD_REL), "maxCurvature is not 1/R_a")
    seg = abs(geo.oa - geo.ob)
    seg_total = sum(length(p) for p in prims if not is_arc(p))
    require(abs(seg_total - seg) <= geo.pos_tol, "segment length is not |OA - OB|")
    require(abs(payload["segmentLength"] - seg) <= geo.pos_tol, "segmentLength is not |OA - OB|")
    require(abs(payload["length"] - (geo.ra * geo.omega + seg)) <= geo.pos_tol, "wrong length")
    if seg > geo.pos_tol:
        require(payload["arcFirst"] == (geo.oa < geo.ob), "arc on the wrong leg")


def _bezier_radius(p0, p1, p2, t: float) -> float:
    v = add(mul(sub(p1, p0), 2.0 * (1.0 - t)), mul(sub(p2, p1), 2.0 * t))
    acc = mul(add(sub(p0, mul(p1, 2.0)), p2), 2.0)
    return norm(v) ** 3 / abs(cross(v, acc))


def bezier_min_radius(p0, p1, p2, samples: int = 1024) -> float:
    """Smallest radius of curvature of the quadratic Bezier, by dense
    sampling refined with a golden-section search around the best sample
    (the radius is unimodal in t: |B'|^2 is a convex quadratic)."""
    values = [_bezier_radius(p0, p1, p2, i / samples) for i in range(samples + 1)]
    k = min(range(samples + 1), key=values.__getitem__)
    lo, hi = max(k - 1, 0) / samples, min(k + 1, samples) / samples
    g = (math.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > 1e-13:
        m1, m2 = hi - g * (hi - lo), lo + g * (hi - lo)
        if _bezier_radius(p0, p1, p2, m1) <= _bezier_radius(p0, p1, p2, m2):
            hi = m2
        else:
            lo = m1
    return min(values[k], _bezier_radius(p0, p1, p2, 0.5 * (lo + hi)))


def check_comparison(geo: Geometry, report: dict) -> None:
    """Parabola baseline: minimum radius from dense sampling, ratio >= 1."""
    r_min = bezier_min_radius(geo.A, geo.O, geo.B)
    require(close(report["bezierMinRadius"], r_min, RAD_REL),
            f"parabola min radius {report['bezierMinRadius']!r} != sampled {r_min!r}")
    require(close(report["optimalMinRadius"], geo.ra, RAD_REL), "optimalMinRadius is not R_a")
    ratio = report["improvementRatio"]
    require(close(ratio, geo.ra / r_min, RAD_REL), "improvementRatio is not R_a / parabola radius")
    require(ratio >= 1.0 - RAD_REL, f"parabola beats the optimum ({ratio!r})")


def check_offsets(base: list[dict], left: list[dict], right: list[dict], d: float,
                  pos_tol: float, samples: int = 5) -> None:
    """Each offset starts at distance d on its side and stays at distance d."""
    p0, n0 = start_point(base[0]), rot90(start_tangent(base[0]))
    for side, prims in ((1.0, left), (-1.0, right)):
        require(dist(start_point(prims[0]), add(p0, mul(n0, side * d))) <= pos_tol,
                "offset starts on the wrong side or at the wrong distance")
        for p in prims:
            for i in range(samples):
                q = point_at(p, i / (samples - 1))
                gap = min(distance_to_primitive(q, b) for b in base) - d
                require(abs(gap) <= pos_tol, f"offset point is {gap!r} off distance {d!r}")


def _svg_numbers(tokens: list[str], count: int) -> list[float]:
    require(len(tokens) >= count, "truncated path command")
    try:
        return [float(t) for t in tokens[:count]]
    except ValueError as exc:
        raise CheckError(f"bad number in path data: {exc}") from exc


def check_svg(text: str, curves: list[list[dict]]) -> None:
    """Well-formed SVG with one path per curve and one command per primitive,
    each ending where its primitive ends (y flipped, 9 significant digits)."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckError(f"SVG does not parse: {exc}") from exc
    require(root.tag == SVG_NS + "svg", f"root element is {root.tag!r}")
    paths = root.findall(SVG_NS + "path")
    require(len(paths) == len(curves), f"{len(paths)} paths for {len(curves)} curves")
    span = max(max(abs(c) for p in prims for c in start_point(p) + end_point(p))
               for prims in curves)
    tol = 1e-8 * max(span, 1e-300)
    for path, prims in zip(paths, curves):
        tokens = path.get("d", "").split()
        require(tokens[:1] == ["M"], "path does not start with M")
        x, y = _svg_numbers(tokens[1:], 2)
        require(dist((x, -y), start_point(prims[0])) <= tol, "path starts off the curve")
        tokens = tokens[3:]
        for p in prims:
            want = "A" if is_arc(p) else "L"
            require(tokens[:1] == [want], f"expected {want} command, got {tokens[:1]}")
            nums = _svg_numbers(tokens[1:], 7 if is_arc(p) else 2)
            if is_arc(p):
                require(abs(nums[0] - p["radius"]) <= tol, "arc command has the wrong radius")
            require(dist((nums[-2], -nums[-1]), end_point(p)) <= tol,
                    "path command ends off the curve")
            tokens = tokens[1 + len(nums):]
        require(not tokens, f"{len(tokens)} extra path tokens")


def check_sweep(geo: Geometry, report: dict, grid_n: int) -> None:
    """No grid curve beats 1/R_a; the best one sits within a grid step of R_a."""
    bound = 1.0 / geo.ra
    best = report["minMaxCurvature"]
    require(best >= bound * (1.0 - 1e-6), f"sweep beat the bound: {best!r} < {bound!r}")
    rmin = min(report["argmin"]["R1"], report["argmin"]["R2"])
    require(close(best, 1.0 / rmin, RAD_REL), "minMaxCurvature is not 1/min(R1, R2)")
    spacing = (SWEEP_R_HI - SWEEP_R_LO) * geo.ra / (grid_n - 1)
    require(abs(rmin - geo.ra) <= spacing * (1.0 + 1e-9),
            f"argmin radius {rmin!r} is more than a grid step from R_a {geo.ra!r}")
    require(abs(report["margin"] - (best - bound)) <= RAD_REL * bound, "wrong margin")
    require(report["gridSize"] == [grid_n, grid_n], "wrong gridSize")


def check_membership(geo: Geometry, report: dict, expect_in: bool) -> None:
    require(report["inE"] == expect_in, f"membership inE is {report['inE']}, expected {expect_in}")
    if expect_in:
        for key in ("endpointA_residual", "endpointB_residual"):
            require(report[key] <= geo.pos_tol, f"{key} too large")


def check_certificate(geo: Geometry, cert: dict, prims: list[dict], kind: str) -> None:
    """kind: "optimum", "admissible" (in E, any radius) or "s-curve"."""
    e = max_curvature(prims)
    require(close(cert["e"], e, 1e-12), f"e {cert['e']!r} != max curvature {e!r}")
    total = sum(length(p) for p in prims)
    too_curved = e > (1.0 / geo.ra) * (1.0 + 1e-9) or total < geo.ra * geo.omega * (1.0 - 1e-9)
    within = e <= (1.0 / geo.ra) * (1.0 + 1e-13) and total >= geo.ra * geo.omega
    if too_curved:
        require(cert["zeta0"] is None and cert["thetaPhiMaxExcess"] is None,
                "zeta entries present although the hypothesis fails")
    elif within:
        require(cert["zeta0"] is not None and cert["thetaPhiMaxExcess"] is not None,
                "zeta entries null although the hypothesis holds")
    tol = geo.pos_tol
    if kind == "s-curve":
        require(cert["supportMinResidual"] < -1e-3 * geo.diameter,
                f"S-curve passes the support check ({cert['supportMinResidual']!r})")
        return
    require(cert["supportMinResidual"] >= -tol,
            f"admissible curve fails the support check ({cert['supportMinResidual']!r})")
    require(cert["u0"] is not None and cert["v0"] is not None
            and cert["u0"] > 0.0 and cert["v0"] > 0.0, "tangent intercepts not positive")
    if kind == "optimum":
        require(abs(cert["zeta0"]) <= tol, f"zeta0 of the optimum is {cert['zeta0']!r}")
        require(cert["thetaPhiMaxExcess"] <= ANG_TOL, "heading gap bound exceeded")
        require(abs(cert["u0"] - geo.oa) <= tol and abs(cert["v0"] - geo.ob) <= tol,
                "(u0, v0) of the optimum is not (OA, OB)")


def check_demo(prims: list[dict], radius: float) -> None:
    """demo-illposed on the default data: from A to B with the given
    tangents, counterclockwise, every arc of the requested radius."""
    check_chain(prims, DEMO_A, DEMO_ALPHA, DEMO_B, DEMO_BETA, 1.0, POS_REL * max(1.0, radius))
    arcs = [p for p in prims if is_arc(p)]
    require(arcs and all(close(p["radius"], radius, 1e-12) for p in arcs), "wrong demo radius")
    require(abs(sum(p["sweep"] for p in arcs) - 1.5 * math.pi) <= ANG_TOL, "wrong demo sweep")
