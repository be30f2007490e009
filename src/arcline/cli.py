"""Command-line front end: solve, verify, sweep, compare, export, demo-illposed.

JSON in, JSON or SVG out.  Exit codes: 0 success, 1 validation error,
2 internal error.  Errors are written to stderr as one JSON object.
All numeric JSON output is rounded to 15 significant digits and keys
are sorted, so identical inputs give byte-identical outputs.

Each subcommand imports the modules it needs when it runs, so a process
loads only its own subcommand's code: the certificate module is
imported by ``verify`` alone.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ArclineError, InternalError, InvalidInput
from .instance import instance_from_json, point_from_json

_DEMO_DATA = {"A": [0.0, 0.0], "alpha": [1.0, 0.0],
              "B": [2.0, 1.0], "beta": [0.0, -1.0]}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise _UsageError(message)


def _round_floats(obj):
    if isinstance(obj, float):
        return float(format(obj, ".15g"))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


def _dump_json(payload: dict) -> str:
    return json.dumps(_round_floats(payload), sort_keys=True, indent=2) + "\n"


def _load_json(source: str) -> dict:
    """Accept inline JSON (leading '{') or a file path."""
    text = source
    if not source.lstrip().startswith("{"):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidInput("top-level JSON value must be an object")
    return obj


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _svg_with_offsets(curve, distance: float | None) -> str:
    """The curve as SVG, with both its offsets at `distance` when given."""
    from .offsets import offset
    from .svg import to_svg

    curves = [curve]
    if distance is not None:
        result = offset(curve, distance)
        curves += [result.left, result.right]
    return to_svg(curves)


def _cmd_solve(args) -> None:
    from .curves import curve_to_json
    from .synthesis import synthesize

    inst = instance_from_json(_load_json(args.input))
    sol = synthesize(inst)
    # rendered first: an invalid --offset fails before anything is written
    svg = None if args.svg is None else _svg_with_offsets(sol.curve, args.offset)
    payload = sol.as_dict()
    payload["symmetric"] = inst.symmetric
    payload["reversed"] = inst.reversed
    if inst.reversed:
        # report the curve in the caller's traversal direction
        payload["curve"] = curve_to_json(sol.curve.reversed_copy())
    _write(_dump_json(payload), args.output)
    if svg is not None:
        _write(svg, args.svg)


def _cmd_verify(args) -> None:
    from .certificates import make_certificate
    from .curves import check_membership, curve_from_json
    from .synthesis import synthesize

    obj = _load_json(args.input)
    if "instance" not in obj or "curve" not in obj:
        raise InvalidInput('verify input needs "instance" and "curve" members')
    inst = instance_from_json(obj["instance"])
    z = curve_from_json(obj["curve"])
    if inst.reversed:
        z = z.reversed_copy()
    sol = synthesize(inst)
    report = check_membership(z, inst)
    cert = make_certificate(inst, sol, z)
    _write(_dump_json({"membership": report.as_dict(),
                       "certificate": cert.as_dict()}), args.output)


def _cmd_sweep(args) -> None:
    from .dubins import family_sweep

    inst = instance_from_json(_load_json(args.input))
    report = family_sweep(inst, grid_n=args.grid)
    _write(_dump_json(report.as_dict()), args.output)


def _cmd_compare(args) -> None:
    from .baselines import compare_report

    inst = instance_from_json(_load_json(args.input))
    _write(_dump_json(compare_report(inst).as_dict()), args.output)


def _cmd_export(args) -> None:
    from .curves import curve_from_json

    _write(_svg_with_offsets(curve_from_json(_load_json(args.input)), args.offset),
           args.output)


def _cmd_demo_illposed(args) -> None:
    from .curves import curve_to_json
    from .synthesis import illposed_demo

    if args.radius is None:
        raise InvalidInput("demo-illposed requires --radius")
    data = _load_json(args.input) if args.input else dict(_DEMO_DATA)
    A, alpha, B, beta = (point_from_json(data, key) for key in ("A", "alpha", "B", "beta"))
    curve = illposed_demo(A, alpha, B, beta, args.radius)
    _write(_dump_json(curve_to_json(curve)), args.output)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="arcline",
                     description="Planar min-max-curvature curve synthesis")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="path or inline JSON")
    common.add_argument("--output", help="output path (stdout when omitted)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[common],
                       help="instance JSON -> optimal-curve JSON")
    p.add_argument("--svg", help="also write the curve as SVG to this path")
    p.add_argument("--offset", type=float,
                   help="include offsets at this distance in the SVG (needs --svg)")
    p.set_defaults(func=_cmd_solve, needs_input=True)

    p = sub.add_parser("verify", parents=[common],
                       help="instance+curve JSON -> membership and certificate")
    p.set_defaults(func=_cmd_verify, needs_input=True)

    p = sub.add_parser("sweep", parents=[common],
                       help="instance JSON -> min-max sweep report")
    p.add_argument("--grid", type=int, default=60, help="radius grid size")
    p.set_defaults(func=_cmd_sweep, needs_input=True)

    p = sub.add_parser("compare", parents=[common],
                       help="instance JSON -> parabola comparison report")
    p.set_defaults(func=_cmd_compare, needs_input=True)

    p = sub.add_parser("export", parents=[common],
                       help="curve JSON -> SVG")
    p.add_argument("--offset", type=float,
                   help="also draw both offsets at this distance")
    p.set_defaults(func=_cmd_export, needs_input=True)

    p = sub.add_parser("demo-illposed", parents=[common],
                       help="curve meeting constraints that admit no instance")
    p.add_argument("--radius", type=float, help="arbitrary minimum turn radius")
    p.set_defaults(func=_cmd_demo_illposed, needs_input=False)
    return parser


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps(
        {"error": {"type": kind, "message": message}}, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve" and args.offset is not None and args.svg is None:
            parser.error("--offset requires --svg")
    except _UsageError as exc:
        _emit_error("UsageError", str(exc))
        return 1
    try:
        if args.needs_input and args.input is None:
            raise InvalidInput(f"{args.command} requires --input")
        args.func(args)
        return 0
    except InternalError as exc:
        _emit_error("InternalError", str(exc))
        return 2
    except (ArclineError, OSError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 1
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit 2
        _emit_error(type(exc).__name__, str(exc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
