import contextlib
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

import arcline
from arcline import dubins, instance_from_json
from arcline.cli import main

WORKED = '{"A": [0.5, -0.5], "O": [0.0, 0.0], "B": [0.0, -0.5]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_stdout(capsys):
    code, out, err = run(capsys, "solve", "--input", WORKED)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["R_a"] == pytest.approx((math.sqrt(2) - 1) / 2, abs=1e-12)
    assert payload["segmentLength"] == pytest.approx((math.sqrt(2) - 1) / 2, abs=1e-12)
    assert payload["arcFirst"] is False
    assert payload["reversed"] is False
    assert len(payload["curve"]["primitives"]) == 2


def test_solve_deterministic(capsys):
    _, out1, _ = run(capsys, "solve", "--input", WORKED)
    _, out2, _ = run(capsys, "solve", "--input", WORKED)
    assert out1 == out2


def test_solve_files_and_svg(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(WORKED)
    out = tmp_path / "sol.json"
    svg = tmp_path / "sol.svg"
    code, stdout, _ = run(capsys, "solve", "--input", str(inst),
                          "--output", str(out), "--svg", str(svg))
    assert code == 0 and stdout == ""
    payload = json.loads(out.read_text())
    assert payload["R_a"] == pytest.approx(0.20710678118654752)
    ET.fromstring(svg.read_text())


def test_solve_invalid_offset_writes_nothing(tmp_path, capsys):
    # the SVG, which checks --offset, is rendered before any output
    svg = tmp_path / "sol.svg"
    code, out, err = run(capsys, "solve", "--input", WORKED, "--svg", str(svg),
                         "--offset", "-1")
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "InvalidInput"
    assert not svg.exists()


def test_solve_offset_requires_svg(capsys):
    code, out, err = run(capsys, "solve", "--input", WORKED, "--offset", "0.1")
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "UsageError" and "--svg" in error["message"]


def test_solve_unreverses_output(capsys):
    # swapped endpoints: the library normalizes, the CLI reports the curve
    # back in the caller's orientation (clockwise arcs)
    swapped = '{"A": [0.0, -0.5], "O": [0.0, 0.0], "B": [0.5, -0.5]}'
    code, out, _ = run(capsys, "solve", "--input", swapped)
    assert code == 0
    payload = json.loads(out)
    assert payload["reversed"] is True
    arcs = [p for p in payload["curve"]["primitives"] if p["type"] == "arc"]
    assert arcs and all(p["sweep"] < 0 for p in arcs)
    start = payload["curve"]["primitives"][0]
    assert start["type"] == "arc"
    # the reported curve starts at the caller's A = (0, -0.5)
    sa = start["startAngle"]
    x = start["center"][0] + start["radius"] * math.cos(sa)
    y = start["center"][1] + start["radius"] * math.sin(sa)
    assert (x, y) == pytest.approx((0.0, -0.5), abs=1e-9)


def test_verify_closure(capsys):
    code, out, _ = run(capsys, "solve", "--input", WORKED)
    sol = json.loads(out)
    combined = json.dumps({"instance": json.loads(WORKED), "curve": sol["curve"]})
    code, out, err = run(capsys, "verify", "--input", combined)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["membership"]["inE"] is True
    assert abs(payload["certificate"]["zeta0"]) <= 1e-9
    assert payload["certificate"]["e"] == pytest.approx(1.0 / sol["R_a"])


def test_verify_reversed_instance(capsys):
    code, out, _ = run(capsys, "solve", "--input", WORKED)
    curve = json.loads(out)["curve"]
    swapped = {"A": [0.0, -0.5], "O": [0.0, 0.0], "B": [0.5, -0.5]}
    code, out, _ = run(capsys, "solve", "--input", json.dumps(swapped))
    rev_curve = json.loads(out)["curve"]
    combined = json.dumps({"instance": swapped, "curve": rev_curve})
    code, out, err = run(capsys, "verify", "--input", combined)
    assert code == 0, err
    assert json.loads(out)["membership"]["inE"] is True


def test_verify_certificate_not_applicable(capsys):
    # a competitor with max curvature above 1/R_a gets null zeta entries
    inst = arcline.instance_from_json(json.loads(WORKED))
    tight = arcline.dubins_curve(inst, 0.4 * arcline.arc_radius(inst))
    combined = json.dumps({"instance": json.loads(WORKED),
                           "curve": arcline.curve_to_json(tight.curve)})
    code, out, _ = run(capsys, "verify", "--input", combined)
    assert code == 0
    payload = json.loads(out)
    assert payload["membership"]["inE"] is True
    assert payload["certificate"]["zeta0"] is None
    assert payload["certificate"]["thetaPhiMaxExcess"] is None
    assert payload["certificate"]["u0"] > 0


def test_verify_rejects_one_sample(capsys):
    code, out, _ = run(capsys, "solve", "--input", WORKED)
    combined = json.dumps({"instance": json.loads(WORKED),
                           "curve": json.loads(out)["curve"]})
    # no output depends on a sample count, so the flag is gone
    code, out, err = run(capsys, "verify", "--input", combined, "--samples", "1")
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "UsageError"


def test_sweep_report(capsys):
    code, out, _ = run(capsys, "sweep", "--input", WORKED, "--grid", "30")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"minMaxCurvature", "argmin", "margin", "gridSize"}
    assert payload["gridSize"] == [30, 30]
    assert payload["margin"] >= -1e-6


def test_sweep_grid_bound(capsys):
    # the closed form decides the largest accepted grid at once; one more
    # radius is rejected, naming the grid and the bound
    code, out, _ = run(capsys, "sweep", "--input", WORKED, "--grid", str(dubins.MAX_GRID))
    assert code == 0
    assert json.loads(out)["gridSize"] == [dubins.MAX_GRID, dubins.MAX_GRID]
    code, out, err = run(capsys, "sweep", "--input", WORKED, "--grid", str(dubins.MAX_GRID + 1))
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "InvalidInput"
    assert str(dubins.MAX_GRID) in error["message"]
    assert str(dubins.MAX_GRID + 1) in error["message"]


def test_sweep_never_counts_feasible_cells(monkeypatch):
    # no subcommand reads feasible_count, and the corpus sweeps take the
    # closed form: with the count and the row scan and single-arc list it
    # sums made to raise, their stdout is still the corpus's, byte for byte
    def refuse(self):
        raise AssertionError("the sweep counted")

    for name in ("count", "scan", "singles"):
        monkeypatch.setattr(dubins._CompositeGrid, name, refuse)
    corpus = os.path.join(os.path.dirname(__file__), "golden", "cli.json")
    with open(corpus, encoding="utf-8") as fh:
        cases = [c for c in json.load(fh)["cases"] if c["argv"][0] == "sweep"]
    assert len(cases) > 40
    for case in cases:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(case["argv"]) == case["exit"] == 0
        assert out.getvalue() == "".join(case["stdout"])


@st.composite
def far_thin_instances(draw):
    """Instance JSON with omega down to 6e-5, where validation accepts
    every draw (the legs are at most 4 apart, so kappa <= 5e-9 / omega),
    legs equal or differing by down to 1e-6 of their length, scale
    1e-3..1e3, random pose, and the apex up to 1e6 diameters from the
    origin."""
    omega = draw(st.one_of(st.floats(6e-5, 1e-3), st.floats(1e-3, math.pi - 1e-3)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    ratio = draw(st.one_of(st.just(1.0), st.floats(1e-6, 1e-3).map(lambda d: 1.0 + d),
                           st.floats(0.25, 4.0)))
    oa, ob = scale, scale * ratio
    if draw(st.booleans()):
        oa, ob = ob, oa
    pose = draw(st.floats(-math.pi, math.pi))
    turn = omega * draw(st.sampled_from([-1.0, 1.0]))
    far = 10.0 ** draw(st.floats(0.0, 6.0)) * 2.0 * max(oa, ob)
    heading = draw(st.floats(-math.pi, math.pi))
    ox, oy = far * math.cos(heading), far * math.sin(heading)
    return {"O": [ox, oy],
            "A": [ox - oa * math.cos(pose), oy - oa * math.sin(pose)],
            "B": [ox + ob * math.cos(pose + turn), oy + ob * math.sin(pose + turn)]}


def run_quiet(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=150)
@given(far_thin_instances())
def test_solve_verify_round_trip_is_in_e(obj):
    # the curve solve prints is the curve it built, float for float, so
    # wherever solve succeeds, verify accepts that curve as a member of E
    code, out, _ = run_quiet("solve", "--input", json.dumps(obj))
    if code != 0:
        return
    code, out, err = run_quiet("verify", "--input", json.dumps(
        {"instance": obj, "curve": json.loads(out)["curve"]}))
    assert code == 0, err
    assert json.loads(out)["membership"]["inE"] is True


def test_solve_verify_round_trip_examples():
    # both lost a bit in the curve's last printed digit at 15 significant
    # digits: a tangent gap at a joint, 2e4 and 1e5 from the origin
    for obj in ({"A": [21315.8552869162, 12127.0082756634],
                 "O": [21316.5865270651, 12126.3261555533],
                 "B": [21317.3219723548, 12125.6431453377]},
                {"A": [100000.5, 99999.5], "O": [100000, 100000], "B": [100000, 99999.3]}):
        code, out, _ = run_quiet("solve", "--input", json.dumps(obj))
        assert code == 0
        code, out, err = run_quiet("verify", "--input", json.dumps(
            {"instance": obj, "curve": json.loads(out)["curve"]}))
        assert code == 0, err
        assert json.loads(out)["membership"]["inE"] is True


def test_compare_report(capsys):
    code, out, _ = run(capsys, "compare", "--input", WORKED)
    assert code == 0
    payload = json.loads(out)
    assert payload["bezierMinRadius"] == pytest.approx(math.sqrt(5) / 25)
    assert payload["improvementRatio"] == pytest.approx(2.3155, abs=1e-4)


def test_export_with_offsets(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "--input", WORKED)
    curve = json.loads(out)["curve"]
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(curve))
    code, out, _ = run(capsys, "export", "--input", str(path), "--offset", "0.1")
    assert code == 0
    root = ET.fromstring(out)
    assert len([el for el in root if el.tag.endswith("path")]) == 3
    code, out, _ = run(capsys, "export", "--input", str(path))
    assert len([el for el in ET.fromstring(out) if el.tag.endswith("path")]) == 1


def export_process(start_angle: str):
    """`arcline export` of one unit arc in a new process, killed after 60 s."""
    curve = ('{"primitives": [{"type": "arc", "center": [0, 0], "radius": 1, '
             f'"startAngle": {start_angle}, "sweep": 1}}]}}')
    src = os.path.dirname(os.path.dirname(arcline.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "arcline.cli", "export", "--input", curve],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))


@pytest.mark.parametrize("angle", ["Infinity", "-Infinity", "NaN"])
def test_export_rejects_non_finite_start_angle(angle):
    proc = export_process(angle)
    assert proc.returncode == 1 and proc.stdout == ""
    error = json.loads(proc.stderr)["error"]
    assert error["type"] == "InvalidInput" and "start angle" in error["message"]


@pytest.mark.parametrize("angle", ["1e17", "-1e300"])
def test_export_huge_start_angle_returns(angle):
    # at 1e17 one unit in the last place is 16 rad and a + 1 == a: the arc
    # would run from a point to itself, so it is rejected, and promptly
    proc = export_process(angle)
    assert proc.returncode == 1 and proc.stdout == ""
    error = json.loads(proc.stderr)["error"]
    assert error["type"] == "InvalidInput" and "start angle" in error["message"]


@pytest.mark.parametrize("radius, sweep", [(1e-300, 1e-100), (1e308, 6.0)])
def test_export_rejects_arc_length_out_of_range(capsys, radius, sweep):
    # the length radius * |sweep| underflows to 0, or overflows to infinity
    curve = json.dumps({"primitives": [{"type": "arc", "center": [0, 0], "radius": radius,
                                        "startAngle": 0, "sweep": sweep}]})
    code, out, err = run(capsys, "export", "--input", curve)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "InvalidInput"
    assert all(f"{name} {value!r}" in error["message"]
               for name, value in (("radius", radius), ("sweep", sweep),
                                   ("length", radius * sweep)))


def test_export_offset_past_the_start_angle_bound(capsys):
    # the offset through the center turns the start angle by pi, past 2**23
    curve = ('{"primitives": [{"type": "arc", "center": [0, 0], "radius": 1, '
             '"startAngle": 8388607.5, "sweep": 1}]}')
    code, out, err = run(capsys, "export", "--input", curve, "--offset", "1.5")
    assert code == 0 and err == ""
    assert len([el for el in ET.fromstring(out) if el.tag.endswith("path")]) == 3


def test_verify_reversed_instance_past_the_start_angle_bound(capsys):
    # a clockwise instance: verify reverses the curve, whose arc would then
    # start at start + sweep = -8388608.5
    inst = '{"A": [0.0, -0.5], "O": [0.0, 0.0], "B": [0.5, -0.5]}'
    curve = ('{"primitives": [{"type": "arc", "center": [0, 0], "radius": 1, '
             '"startAngle": -8388607.5, "sweep": -1}]}')
    assert instance_from_json(json.loads(inst)).reversed
    code, out, err = run(capsys, "verify", "--input",
                         f'{{"instance": {inst}, "curve": {curve}}}')
    assert code == 0 and err == ""
    assert json.loads(out)["membership"]["inE"] is False


def test_demo_illposed(capsys):
    code, out, _ = run(capsys, "demo-illposed", "--radius", "10")
    assert code == 0
    payload = json.loads(out)
    kinds = [p["type"] for p in payload["primitives"]]
    assert kinds == ["segment", "arc", "segment"]
    arc = payload["primitives"][1]
    assert arc["radius"] == 10.0
    assert arc["sweep"] == pytest.approx(1.5 * math.pi)
    # the same data is rejected by instance construction
    data = '{"A": [0.0, 0.0], "alpha": [1.0, 0.0], "B": [2.0, 1.0], "beta": [0.0, -1.0]}'
    code, out, err = run(capsys, "solve", "--input", data)
    assert code == 1
    assert json.loads(err)["error"]["type"] == "NoAdmissibleCurve"


def test_demo_illposed_requires_radius(capsys):
    code, _, err = run(capsys, "demo-illposed")
    assert code == 1
    assert "radius" in json.loads(err)["error"]["message"]


def test_validation_errors_exit_1(capsys):
    code, _, err = run(capsys, "solve", "--input", '{"A": [0, 0]}')
    assert code == 1
    assert json.loads(err)["error"]["type"] == "InvalidInput"
    code, _, err = run(capsys, "solve", "--input", "{broken json")
    assert code == 1
    code, _, err = run(capsys, "solve", "--input", "/nonexistent/path.json")
    assert code == 1
    code, _, err = run(capsys, "solve",
                       "--input", '{"A": [0, 0], "B": [1, 0], "O": [0.5, 0]}')
    assert code == 1
    assert json.loads(err)["error"]["type"] == "IllPosedAngle"


def test_unknown_flags_rejected(capsys):
    code, _, err = run(capsys, "solve", "--input", WORKED, "--bogus", "1")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "UsageError"
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_missing_input_rejected(capsys):
    code, _, err = run(capsys, "solve")
    assert code == 1
    assert "input" in json.loads(err)["error"]["message"]


def test_seed_flag_rejected(capsys):
    code, out, err = run(capsys, "solve", "--input", WORKED, "--seed", "7")
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "UsageError"
