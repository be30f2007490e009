"""The package and the CLI load submodules only on demand, and run without numpy.

No subcommand loads numpy or `dataclasses`: the library computes in
`math` floats, and the value types are plain `__slots__` classes and
named tuples.  With numpy made unimportable, every subcommand and the
sampling entry points still succeed.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import arcline
from arcline import curve_to_json, instance_from_json, synthesize

WORKED = {"A": [0.5, -0.5], "O": [0.0, 0.0], "B": [0.0, -0.5]}

PUBLIC_NAMES = [
    "Arc", "ArclineError", "Certificate", "ComparisonReport", "CompositeCurve",
    "DegenerateInput", "DubinsCurve", "HypothesisViolated", "IllPosedAngle",
    "InternalError", "InvalidInput", "MembershipReport", "NoAdmissibleCurve",
    "OffsetResult", "OptimalSolution", "OutOfRange", "PathBuilder", "PiecewiseCurve",
    "Point2", "ProblemInstance", "QuadraticBezier", "RadiusNotAdmissible", "Segment",
    "SweepReport", "UndefinedHeading", "Vec2", "arc_radius", "bezier_min_radius",
    "check_membership", "compare_report", "composite_solve", "curve_from_json",
    "curve_to_json", "dubins_curve", "family_sweep", "heading",
    "illposed_demo", "instance_from_json", "instance_from_tangents", "instance_to_json",
    "is_feasible_radius", "make_certificate", "make_instance", "max_curvature",
    "offset", "oriented_angle", "principal_angle", "random_instance", "rot90",
    "similarity_transform", "support_min", "synthesize", "tangent_intercepts",
    "theta_phi_bound", "to_svg", "zeta0_closed_form", "zeta0_coefficients",
    "zeta_profile",
]

#: runs one CLI invocation, then reports which of the heavy modules it loaded
CHILD = """
import json, sys
from arcline.cli import main
code = main(sys.argv[1:])
heavy = [m for m in ("numpy", "arcline.certificates", "dataclasses") if m in sys.modules]
sys.stderr.write(json.dumps({"code": code, "loaded": heavy}) + "\\n")
"""


#: blocks numpy, runs every CLI invocation given, then certifies and samples
#: the worked optimum, and reports each step's result
NO_NUMPY_CHILD = """
import json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from arcline import instance_from_json, make_certificate, synthesize, zeta_profile
from arcline.cli import main
argvs, worked = json.loads(sys.argv[1])
report = {"codes": [main(argv) for argv in argvs]}
inst = instance_from_json(worked)
sol = synthesize(inst)
report["zeta0"] = make_certificate(inst, sol, sol.curve).zeta0
rows = sol.curve.sample_at([0.0, 0.5 * sol.curve.length, sol.curve.length])
report["rows"] = [[type(v).__name__ for v in row] for row in rows]
report["zeta"] = [type(v).__name__ for v in zeta_profile(inst, sol, sol.curve, n=4)]
sys.stderr.write(json.dumps(report) + "\\n")
"""


def run_child(code, args):
    src = os.path.dirname(os.path.dirname(arcline.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.strip().splitlines()[-1])


def cli_argv(tmp_path):
    inst = json.dumps(WORKED)
    curve = json.dumps(curve_to_json(synthesize(instance_from_json(WORKED)).curve))
    out = str(tmp_path / "out")
    return {
        "solve": ["solve", "--input", inst, "--output", out,
                  "--svg", str(tmp_path / "solve.svg"), "--offset", "0.05"],
        "compare": ["compare", "--input", inst, "--output", out],
        "export": ["export", "--input", curve, "--offset", "0.05", "--output", out],
        "demo-illposed": ["demo-illposed", "--radius", "5", "--output", out],
        "sweep": ["sweep", "--input", inst, "--grid", "8", "--output", out],
        "verify": ["verify", "--input", json.dumps({"instance": WORKED, "curve": json.loads(curve)}),
                   "--output", out],
    }


@pytest.mark.parametrize("command", ["solve", "compare", "export", "demo-illposed", "sweep"])
def test_subcommand_does_not_load_numpy(tmp_path, command):
    report = run_child(CHILD, cli_argv(tmp_path)[command])
    assert report == {"code": 0, "loaded": []}


def test_verify_still_loads_certificates(tmp_path):
    report = run_child(CHILD, cli_argv(tmp_path)["verify"])
    assert report == {"code": 0, "loaded": ["arcline.certificates"]}
    payload = json.loads((tmp_path / "out").read_text())
    assert payload["membership"]["inE"] is True


def test_runs_with_numpy_blocked(tmp_path):
    argvs = list(cli_argv(tmp_path).values())
    report = run_child(NO_NUMPY_CHILD, [json.dumps([argvs, WORKED])])
    assert report["codes"] == [0] * 6
    assert abs(report["zeta0"]) <= 1e-12
    assert report["rows"] == [["float"] * 5] * 3
    assert report["zeta"] == ["float"] * 5


def test_package_surface():
    assert arcline.__all__ == PUBLIC_NAMES
    for name in arcline.__all__:
        module = importlib.import_module(f"arcline.{arcline._EXPORTS[name]}")
        assert getattr(arcline, name) is getattr(module, name)
    assert set(dir(arcline)) >= set(arcline.__all__)
    with pytest.raises(AttributeError):
        arcline.no_such_name
    namespace = {}
    exec("from arcline import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)

