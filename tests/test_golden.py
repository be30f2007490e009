"""Golden CLI corpus: every case in golden/cli.json reproduces byte for byte.

Each case holds an argument vector and the exit code, stdout, stderr and,
for `solve --svg`, the SVG file that the CLI produced for it.  The inputs
are literal, so this test depends on nothing but the program.  After a
change meant to alter the output, regenerate the corpus with
`PYTHONPATH=src python tests/golden/make_corpus.py` and name the changed
fields in the change's description.
"""

import contextlib
import io
import json
import os

from arcline.cli import main

CORPUS = os.path.join(os.path.dirname(__file__), "golden", "cli.json")
#: argument standing for the path the SVG is written to
SVG_ARG = "{svg}"


def run_case(argv: list[str], svg_path: str) -> dict:
    """Run the CLI in-process and return what the corpus records for it.

    Text is stored as a list of lines (ends kept), so a corpus diff shows
    the changed lines only.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([svg_path if a == SVG_ARG else a for a in argv])
    result = {"exit": code,
              "stdout": out.getvalue().splitlines(keepends=True),
              "stderr": err.getvalue().splitlines(keepends=True)}
    if SVG_ARG in argv:
        result["svg"] = None  # not written: the command failed
        if os.path.exists(svg_path):
            with open(svg_path, "rb") as fh:
                result["svg"] = fh.read().decode("utf-8").splitlines(keepends=True)
            os.remove(svg_path)
    return result


def test_golden_cli_corpus(tmp_path):
    with open(CORPUS, encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    svg_path = str(tmp_path / "out.svg")
    mismatched = []
    for case in cases:
        got = run_case(case["argv"], svg_path)
        want = {key: value for key, value in case.items() if key not in ("name", "argv")}
        if got != want:
            mismatched.append((case["name"], got))
    assert not mismatched, (
        f"{len(mismatched)} of {len(cases)} cases differ, first {mismatched[0][0]}: "
        f"{mismatched[0][1]}")
