"""Regenerate the golden CLI corpus, cli.json, from the current program.

    PYTHONPATH=src python tests/golden/make_corpus.py [OUTPUT]

OUTPUT defaults to cli.json next to this script; CI writes the corpus to
a temporary file and compares it with the committed one, so a generator
edited without regenerating the corpus fails there.

The inputs are the benchmark's seeded CLI instances
(`bench/inputs.instance_set(seed, 8, "cli")`, seeds 1-5: both schemas,
reversed, segment-first and exactly symmetric instances) with the
`demo-illposed` radii of the same seeds, plus hand-picked cases: the
worked instance, Dubins competitors at 0.7 R_a, wide-arc competitors
whose zeta_0 is not rounding noise, an S-curve whose certificate entries
are null, validation errors, the benchmark's two failing instances
(one fails validation, the other `synthesize`), two instances either side
of the accepted domain's edge (kappa at KAPPA_MAX times 1 -/+ 1e-6), the
worked instance scaled by 1e-12 (the "tiny/" family: no
tolerance has an absolute floor), and sweeps on the benchmark's fine grid
(300) and the README's grid (2000) for the worked, arc-first and two
seeded instances (reversed and mirrored; exactly symmetric).  Every input is written into the
corpus literally, so the test that replays it needs nothing but the
program.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench"),
                os.path.dirname(HERE)]

import checks  # noqa: E402
import inputs  # noqa: E402
from test_golden import SVG_ARG, run_case  # noqa: E402

import arcline  # noqa: E402

SEEDS = range(1, 6)
PER_SEED = 8
#: offsets are drawn at this fraction of R_a, as in the benchmark
OFFSET_FRACTION = 0.25

WORKED = {"A": [0.5, -0.5], "O": [0.0, 0.0], "B": [0.0, -0.5]}
ARC_FIRST = {"O": [0.0, 0.0], "A": [0.0, 1.0], "B": [2.0, 0.0]}
TINY_WORKED = {key: [1e-12 * c for c in point] for key, point in WORKED.items()}
#: larger sweep grids, and the seeded instances (seed 1) swept on them
SWEEP_GRIDS = (300, 2000)
SWEEP_SEEDED = (3, 7)


def kappa_edge(factor: float) -> dict:
    """OA = 1, OB = 2 and a small turning angle whose kappa = pos_tol /
    (min(OA, OB) sin omega) is factor * KAPPA_MAX: the diameter is |AB| = 3."""
    geometry = arcline.geometry
    omega = math.asin(geometry.POS_REL * 3.0 / (geometry.KAPPA_MAX * factor))
    return {"O": [0.0, 0.0], "A": [-1.0, 0.0], "B": [2.0 * math.cos(omega), 2.0 * math.sin(omega)]}


def instance_cases(name: str, obj: dict) -> list[tuple[str, list[str]]]:
    """solve (with SVG and offsets), verify on the optimum, sweep, compare
    and export for one instance."""
    geo = checks.geometry(obj)
    d = repr(OFFSET_FRACTION * geo.ra)
    inst = json.dumps(obj)
    curve = json.dumps({"primitives": checks.optimal_curve(geo, caller_orientation=True)})
    return [
        (f"solve/{name}", ["solve", "--input", inst, "--svg", SVG_ARG, "--offset", d]),
        (f"verify/{name}",
         ["verify", "--input", f'{{"instance": {inst}, "curve": {curve}}}']),
        (f"sweep/{name}", ["sweep", "--input", inst]),
        (f"compare/{name}", ["compare", "--input", inst]),
        (f"export/{name}", ["export", "--input", curve, "--offset", d]),
    ]


def verify_case(name: str, obj: dict, curve) -> tuple[str, list[str]]:
    payload = {"instance": obj, "curve": arcline.curve_to_json(curve)}
    return f"verify/{name}", ["verify", "--input", json.dumps(payload)]


def s_curve(obj: dict):
    """Right turn then left turn from A, tighter than R_a: not admissible,
    no heading change at the end, so every zeta and (u, v) entry is null."""
    inst = arcline.instance_from_json(obj)
    r = 0.5 * arcline.arc_radius(inst)
    builder = arcline.PathBuilder(inst.A, inst.alpha.angle())
    return builder.arc(r, -math.pi / 3.0).arc(r, math.pi / 3.0).build()


def wide_arc(obj: dict):
    """Arc of radius 1.5 R_a through the whole turning angle from A, then a
    segment: curvature below 1/R_a, so zeta_0 is defined, and it is far
    from zero because the curve misses B."""
    inst = arcline.instance_from_json(obj)
    ra = arcline.arc_radius(inst)
    builder = arcline.PathBuilder(inst.A, inst.alpha.angle())
    return builder.arc(1.5 * ra, inst.omega).line(ra * inst.omega).build()


def all_cases() -> list[tuple[str, list[str]]]:
    cases = []
    for seed in SEEDS:
        for k, obj in enumerate(inputs.instance_set(seed, PER_SEED, "cli")):
            cases += instance_cases(f"s{seed}i{k}", obj)
        for k, radius in enumerate(inputs.demo_radii(seed, PER_SEED)):
            cases.append((f"demo-illposed/s{seed}i{k}",
                          ["demo-illposed", "--radius", repr(radius)]))
    cases += instance_cases("worked", WORKED)
    for name, obj in (("worked", WORKED), ("arc-first", ARC_FIRST)):
        inst = arcline.instance_from_json(obj)
        dubins = arcline.dubins_curve(inst, 0.7 * arcline.arc_radius(inst)).curve
        cases.append(verify_case(f"dubins-0.7/{name}", obj, dubins))
        cases.append(verify_case(f"wide-arc/{name}", obj, wide_arc(obj)))
    cases.append(verify_case("s-curve/worked", WORKED, s_curve(WORKED)))
    cases += [
        ("error/missing-point", ["solve", "--input", '{"A": [0, 0], "O": [1, 1]}']),
        ("error/collinear",
         ["solve", "--input", '{"A": [0, 0], "B": [1, 0], "O": [0.5, 0]}']),
        ("error/unknown-primitive",
         ["export", "--input", '{"primitives": [{"type": "spline"}]}']),
    ]
    for k, obj in enumerate(inputs.FAILING_INSTANCES):
        cases.append((f"failing/{k}", ["solve", "--input", json.dumps(obj)]))
    for name, factor in (("below", 1.0 - 1e-6), ("above", 1.0 + 1e-6)):
        cases.append((f"kappa-edge/{name}", ["solve", "--input", json.dumps(kappa_edge(factor))]))
    cases += [(f"tiny/{name}", argv) for name, argv in instance_cases("worked", TINY_WORKED)]
    seeded = inputs.instance_set(1, PER_SEED, "cli")
    swept = [("worked", WORKED), ("arc-first", ARC_FIRST)] + \
        [(f"s1i{k}", seeded[k]) for k in SWEEP_SEEDED]
    for grid in SWEEP_GRIDS:
        cases += [(f"sweep-{grid}/{name}",
                   ["sweep", "--input", json.dumps(obj), "--grid", str(grid)])
                  for name, obj in swept]
    return cases


def main(out_path: str) -> None:
    corpus = []
    with tempfile.TemporaryDirectory() as tmp:
        svg_path = os.path.join(tmp, "out.svg")
        for name, argv in all_cases():
            corpus.append({"name": name, "argv": argv, **run_case(argv, svg_path)})
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"cases": corpus}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(corpus)} cases")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else os.path.join(HERE, "cli.json"))
