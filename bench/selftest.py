"""Self-test of the benchmark's output checkers.

    python3 bench/selftest.py

Run from the repository root.  Each checker must accept the program's
right answers and reject deliberately wrong ones: a radius off by 1e-6
relative, an offset at the wrong distance, a curve that misses B,
malformed SVG, and a few more.  Exits 1 if any checker lets a wrong
answer through or refuses a right one.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys

import checks
import inputs
from run import CERT_N, OFFSET_FRACTION, load_program

failures: list[str] = []
counts = {"accepted": 0, "rejected": 0}


def accepts(label: str, fn, *args) -> None:
    try:
        fn(*args)
    except checks.CheckError as exc:
        failures.append(f"{label}: right answer refused: {exc}")
    else:
        counts["accepted"] += 1


def rejects(label: str, fn, *args) -> None:
    try:
        fn(*args)
    except checks.CheckError:
        counts["rejected"] += 1
    else:
        failures.append(f"{label}: wrong answer accepted")


def scaled(payload: dict, key: str, factor: float) -> dict:
    out = copy.deepcopy(payload)
    out[key] *= factor
    return out


def offsets_at(offsets, curve, d: float) -> tuple:
    res = offsets.offset(curve, d)
    return res.left, res.right


def main() -> int:
    m = load_program()
    instance, synthesis, offsets, svg = m["instance"], m["synthesis"], m["offsets"], m["svg"]
    dubins, certificates = m["dubins"], m["certificates"]
    objs = inputs.instance_set(0, 12, "selftest")
    for k, obj in enumerate(objs):
        geo = checks.geometry(obj)
        inst = instance.instance_from_json(obj)
        sol = synthesis.synthesize(inst)
        payload = json.loads(json.dumps(sol.as_dict()))
        prims = payload["curve"]["primitives"]
        tag = f"instance {k}"

        accepts(f"{tag} solve", checks.check_solution, geo, payload, False)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            m["cli"].main(["solve", "--input", json.dumps(obj)])
        cli_payload = json.loads(sink.getvalue())
        accepts(f"{tag} cli solve", checks.check_solution, geo, cli_payload, True)
        rejects(f"{tag} cli solve, wrong orientation", checks.check_solution, geo,
                dict(cli_payload, reversed=not cli_payload["reversed"]), True)
        rejects(f"{tag} R_a * (1 + 1e-6)", checks.check_solution, geo,
                scaled(payload, "R_a", 1 + 1e-6), False)
        wrong = copy.deepcopy(payload)
        for p in wrong["curve"]["primitives"]:
            if p["type"] == "arc":
                p["radius"] *= 1 + 1e-6
        rejects(f"{tag} arc radius * (1 + 1e-6)", checks.check_solution, geo, wrong, False)
        wrong = copy.deepcopy(payload)
        last = wrong["curve"]["primitives"][-1]
        if last["type"] == "arc":
            last["sweep"] *= 1 - 1e-6
        else:
            last["end"] = [c + 1e-6 * geo.diameter for c in last["end"]]
        rejects(f"{tag} curve misses B", checks.check_solution, geo, wrong, False)

        report = m["baselines"].compare_report(inst).as_dict()
        accepts(f"{tag} compare", checks.check_comparison, geo, report)
        rejects(f"{tag} parabola radius * (1 + 1e-6)", checks.check_comparison, geo,
                scaled(report, "bezierMinRadius", 1 + 1e-6))

        d = OFFSET_FRACTION * sol.radius
        off = offsets.offset(sol.curve, d)
        left, right = checks.prims_of(off.left), checks.prims_of(off.right)
        accepts(f"{tag} offsets", checks.check_offsets, prims, left, right, d, geo.pos_tol)
        bad = offsets.offset(sol.curve, d * (1 + 1e-6))
        rejects(f"{tag} offset at d * (1 + 1e-6)", checks.check_offsets, prims,
                checks.prims_of(bad.left), checks.prims_of(bad.right), d, geo.pos_tol)
        rejects(f"{tag} offsets swapped", checks.check_offsets, prims, right, left, d, geo.pos_tol)

        doc = svg.to_svg([sol.curve, off.left, off.right])
        curves = [prims, left, right]
        accepts(f"{tag} svg", checks.check_svg, doc, curves)
        rejects(f"{tag} svg truncated", checks.check_svg, doc[:-8], curves)
        rejects(f"{tag} svg path missing", checks.check_svg,
                svg.to_svg([sol.curve, off.left]), curves)
        rejects(f"{tag} svg offset at 1.001 d", checks.check_svg,
                svg.to_svg([sol.curve, *offsets_at(offsets, sol.curve, 1.001 * d)]), curves)
        rejects(f"{tag} svg extra command", checks.check_svg,
                doc.replace('" fill', ' L 0 0" fill', 1), curves)

        grid = 60
        sweep = dubins.family_sweep(inst, grid_n=grid).as_dict()
        accepts(f"{tag} sweep", checks.check_sweep, geo, sweep, grid)
        rejects(f"{tag} sweep beats 1/R_a", checks.check_sweep, geo,
                scaled(sweep, "minMaxCurvature", 1 - 1e-3), grid)

        cert = certificates.make_certificate(inst, sol, sol.curve, n=CERT_N).as_dict()
        accepts(f"{tag} certificate", checks.check_certificate, geo, cert, prims, "optimum")
        rejects(f"{tag} u0 * (1 + 1e-6)", checks.check_certificate, geo,
                scaled(cert, "u0", 1 + 1e-6), prims, "optimum")
        rejects(f"{tag} zeta null on the optimum", checks.check_certificate, geo,
                dict(cert, zeta0=None, thetaPhiMaxExcess=None), prims, "optimum")
        tight = dubins.dubins_curve(inst, 0.5 * sol.radius).curve
        tight_cert = certificates.make_certificate(inst, sol, tight, n=CERT_N).as_dict()
        accepts(f"{tag} tight certificate", checks.check_certificate, geo, tight_cert,
                checks.prims_of(tight), "admissible")
        rejects(f"{tag} zeta present above 1/R_a", checks.check_certificate, geo,
                dict(tight_cert, zeta0=0.0, thetaPhiMaxExcess=0.0), checks.prims_of(tight),
                "admissible")
        rejects(f"{tag} S-curve passes support", checks.check_certificate, geo,
                dict(cert, supportMinResidual=0.0), prims, "s-curve")
        rejects(f"{tag} support violated", checks.check_certificate, geo,
                dict(cert, supportMinResidual=-1e-6 * geo.diameter), prims, "optimum")

    radius = 100.0
    vec = synthesis.Vec2
    demo = synthesis.illposed_demo(vec(*checks.DEMO_A), vec(*checks.DEMO_ALPHA),
                                   vec(*checks.DEMO_B), vec(*checks.DEMO_BETA), radius)
    demo_prims = checks.prims_of(demo)
    accepts("demo", checks.check_demo, demo_prims, radius)
    rejects("demo radius * (1 + 1e-6)", checks.check_demo, demo_prims, radius * (1 + 1e-6))

    for line in failures:
        print(f"selftest: FAIL {line}", file=sys.stderr)
    print(f"selftest: {counts['rejected']} wrong answers rejected, "
          f"{counts['accepted']} right answers accepted, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
