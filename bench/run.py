"""arcline benchmark: three workloads, one closed-loop client, checked outputs.

    python3 bench/run.py --workload {solve-batch,evidence,cli-cold} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1 (a separate traced run; see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import checks  # noqa: E402  (bench/ is sys.path[0] when run as a script)
import inputs  # noqa: E402
from spans import Tracer  # noqa: E402

#: runs stop after this multiple of --seconds even below their minimum op count
RUN_CAP = 2.0
#: child processes timed for setup_s
SETUP_PROBES = 7
#: evidence: radius grids of the two sweeps (the CLI default, and a fine one)
SWEEP_GRIDS = (60, 300)
#: evidence: dubins competitors at these fractions of R_a
DUBINS_FRACTIONS = (0.5, 0.9)
#: evidence: composite competitors at these radius pairs (fractions of R_a).
#: The equal pair (0.5, 0.5) is left out: composite_solve raises
#: InvalidInput on about 2% of instances there (a rounding-length segment).
COMPOSITE_PAIRS = ((0.6, 0.8), (0.9, 0.7))
#: certificate sample counts: the CLI default, and the library's n = 2048
CERT_N, CERT_N_LARGE = 512, 2048
#: support_min builds five n x n float64 arrays: diff_x, diff_y, two products, gamma
SUPPORT_ARRAYS = 5
#: offsets are drawn at this fraction of R_a (inside every arc: no cusps)
OFFSET_FRACTION = 0.25
CLI_SUBCOMMANDS = ("solve", "verify", "sweep", "compare", "export", "demo-illposed")


class OpFailed(Exception):
    """A CLI operation exited non-zero; `kind` is the error type it printed."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def load_program():
    """Import arcline from ./src, never from anywhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import arcline

    if not os.path.realpath(arcline.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"bench: arcline imported from {arcline.__file__}, not from ./src")
    from arcline import (baselines, certificates, cli, curves, dubins, instance, offsets,
                         svg, synthesis)
    return {"baselines": baselines, "certificates": certificates, "cli": cli,
            "curves": curves, "dubins": dubins, "instance": instance,
            "offsets": offsets, "svg": svg, "synthesis": synthesis}


# --- workloads ------------------------------------------------------------------

class SolveBatch:
    """Library pipeline per instance: parse -> synthesize -> serialize ->
    compare -> offset -> SVG, run over a batch of instances per operation.
    Each round ends with the fixed instances that fail today, one per
    operation."""

    name = "solve-batch"
    tail_pct = 99
    min_ops = 2000
    child_cpu_ns = 0
    child_maxrss_kb = 0
    #: Instances per operation.  One instance takes about 0.3 ms, less than
    #: the machine's speed modes last, so the median of single instances
    #: jumps between modes; a batch spans several mode switches.
    BATCH = 8

    def __init__(self, seed: int, count: int = 96):
        self.items = inputs.instance_set(seed, count, "solve") + list(inputs.FAILING_INSTANCES)
        self.n_seeded = count
        self.batches = [range(k, k + self.BATCH) for k in range(0, count, self.BATCH)]
        self.batches += [range(k, k + 1) for k in range(count, len(self.items))]
        self.round_len = len(self.batches)
        self.tracer: Tracer | None = None
        self.reference: dict[int, tuple] = {}

    def setup(self) -> None:
        self.m = load_program()
        self.geos = [checks.geometry(obj) for obj in self.items]
        for i in range(self.round_len):  # warm-up: every operation once, unchecked
            with contextlib.suppress(Exception):
                self.run_op(0, i)

    def expect_failure(self, i: int) -> bool:
        return self.batches[i][0] >= self.n_seeded

    def op_name(self, rnd: int, i: int) -> str:
        return self.name

    def run_op(self, rnd: int, i: int):
        return [(k, self._piece(k)) for k in self.batches[i]]

    def _piece(self, k: int):
        m, tr = self.m, self.tracer
        inst = m["instance"].instance_from_json(self.items[k])
        sol = m["synthesis"].synthesize(inst)
        span = tr.begin("curves.serialize") if tr else None
        text = json.dumps(sol.as_dict(), sort_keys=True)
        if tr:
            tr.finish(span)
        report = m["baselines"].compare_report(inst)
        off = m["offsets"].offset(sol.curve, OFFSET_FRACTION * sol.radius)
        doc = m["svg"].to_svg([sol.curve, off.left, off.right])
        return text, report, off, doc

    def check(self, rnd: int, i: int, out) -> None:
        for k, piece in out:
            self._check_piece(k, piece)

    def _check_piece(self, k: int, piece) -> None:
        text, report, off, doc = piece
        left, right = checks.prims_of(off.left), checks.prims_of(off.right)
        fingerprint = (text, doc, repr(report.as_dict()), repr(left), repr(right))
        if k in self.reference:
            checks.require(fingerprint == self.reference[k], "output differs from an earlier round")
            return
        geo = self.geos[k]
        payload = json.loads(text)
        checks.check_solution(geo, payload, caller_orientation=False)
        checks.check_comparison(geo, report.as_dict())
        base = payload["curve"]["primitives"]
        checks.check_offsets(base, left, right, off.distance, geo.pos_tol)
        checks.check_svg(doc, [base, left, right])
        self.reference[k] = fingerprint


class Evidence:
    """Optimality evidence per instance: two family sweeps, competitor
    curves, membership and certificates at n = 512 and n = 2048."""

    name = "evidence"
    tail_pct = 90
    min_ops = 100
    child_cpu_ns = 0
    child_maxrss_kb = 0

    def __init__(self, seed: int, count: int = 16):
        self.items = inputs.instance_set(seed, count, "evidence")
        self.round_len = count
        self.tracer: Tracer | None = None
        self.ops = self.cells = self.feasible = self.certs = self.nulls = 0

    def setup(self) -> None:
        self.m = load_program()
        self.geos = [checks.geometry(obj) for obj in self.items]
        with contextlib.suppress(Exception):  # warm-up; failures count in the run
            self.run_op(0, 0)

    def expect_failure(self, i: int) -> bool:
        return False

    def op_name(self, rnd: int, i: int) -> str:
        return self.name

    def run_op(self, rnd: int, i: int):
        m = self.m
        dubins, certificates, curves = m["dubins"], m["certificates"], m["curves"]
        inst = m["instance"].instance_from_json(self.items[i])
        sol = m["synthesis"].synthesize(inst)
        ra = sol.radius
        sweeps = [(g, dubins.family_sweep(inst, grid_n=g)) for g in SWEEP_GRIDS]
        comps = [("optimum", sol.curve)]
        comps += [("admissible", dubins.dubins_curve(inst, f * ra).curve) for f in DUBINS_FRACTIONS]
        for r1, r2 in COMPOSITE_PAIRS:
            comp = dubins.composite_solve(inst, r1 * ra, r2 * ra)
            if comp is not None:
                comps.append(("admissible", comp.curve))
        s_curve = curves.PathBuilder(inst.A, inst.alpha.angle())
        comps.append(("s-curve", s_curve.arc(ra, 0.5 * math.pi).arc(ra, -0.5 * math.pi).build()))
        members = [curves.check_membership(z, inst) for _, z in comps]
        certs = [(kind, z, certificates.make_certificate(inst, sol, z, n=CERT_N))
                 for kind, z in comps]
        certs.append(("optimum", sol.curve,
                      certificates.make_certificate(inst, sol, sol.curve, n=CERT_N_LARGE)))
        return sweeps, comps, members, certs

    def check(self, rnd: int, i: int, out) -> None:
        sweeps, comps, members, certs = out
        geo = self.geos[i]
        for grid, report in sweeps:
            checks.check_sweep(geo, report.as_dict(), grid)
            self.cells += grid * grid + grid
            self.feasible += report.feasible_count
        for (kind, _), member in zip(comps, members):
            checks.check_membership(geo, member.as_dict(), kind != "s-curve")
        for kind, z, cert in certs:
            checks.check_certificate(geo, cert.as_dict(), checks.prims_of(z), kind)
            self.nulls += cert.zeta0 is None
        self.certs += len(certs)
        self.ops += 1


class CliCold:
    """One new `python -m arcline.cli` process per operation."""

    name = "cli-cold"
    tail_pct = 75
    min_ops = 40
    #: one round; mostly solve / compare / export / demo-illposed
    MIX = ("solve", "compare", "export", "solve", "demo-illposed",
           "compare", "export", "solve", "verify", "sweep")

    def __init__(self, seed: int, count: int = 5):
        self.items = inputs.instance_set(seed, count, "cli")
        self.radii = inputs.demo_radii(seed, count)
        self.round_len = len(self.MIX)
        self.child_cpu_ns = 0
        self.child_maxrss_kb = 0
        self.reference: dict[tuple, tuple] = {}
        self.tracer: Tracer | None = None

    def setup(self) -> None:
        os.makedirs(OUT, exist_ok=True)
        self.svg_path = os.path.join(OUT, "cli-solve.svg")
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.geos = [checks.geometry(obj) for obj in self.items]
        self.argv = [self._argv(k) for k in range(len(self.items))]
        # warm-up: fills the page cache and the bytecode cache
        with contextlib.suppress(OpFailed):
            self.run_op(0, 0)

    def _argv(self, k: int) -> dict[str, list[str]]:
        geo, obj = self.geos[k], self.items[k]
        d = repr(OFFSET_FRACTION * geo.ra)
        inst = json.dumps(obj)
        curve = {"primitives": checks.optimal_curve(geo, caller_orientation=True)}
        return {
            "solve": ["solve", "--input", inst, "--svg", self.svg_path, "--offset", d],
            "compare": ["compare", "--input", inst],
            "export": ["export", "--input", json.dumps(curve), "--offset", d],
            "demo-illposed": ["demo-illposed", "--radius", repr(self.radii[k])],
            "verify": ["verify", "--input", json.dumps({"instance": obj, "curve": curve})],
            "sweep": ["sweep", "--input", inst],
        }

    def expect_failure(self, i: int) -> bool:
        return False

    def op_name(self, rnd: int, i: int) -> str:
        return self.MIX[i]

    def run_op(self, rnd: int, i: int):
        sub = self.MIX[i]
        argv = self.argv[rnd % len(self.items)][sub]
        proc = subprocess.Popen([sys.executable, "-m", "arcline.cli", *argv], cwd=ROOT,
                                env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out = proc.stdout.read()
        err = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_cpu_ns += int((usage.ru_utime + usage.ru_stime) * 1e9)
        self.child_maxrss_kb = max(self.child_maxrss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            try:
                kind = json.loads(err)["error"]["type"]
            except (ValueError, KeyError, TypeError):
                kind = f"exit{proc.returncode}"
            raise OpFailed(kind, err.decode(errors="replace").strip())
        svg_doc = b""
        if sub == "solve":
            with open(self.svg_path, "rb") as fh:
                svg_doc = fh.read()
        return out, svg_doc

    def check(self, rnd: int, i: int, out) -> None:
        sub, k = self.MIX[i], rnd % len(self.items)
        key = (sub, k)
        if key in self.reference:
            checks.require(out == self.reference[key], f"{sub}: output differs between calls")
            return
        stdout, svg_doc = out
        geo = self.geos[k]
        d = OFFSET_FRACTION * geo.ra
        if sub == "solve":
            checks.check_solution(geo, json.loads(stdout), caller_orientation=True)
            base = checks.optimal_curve(geo, caller_orientation=False)
            checks.check_svg(svg_doc.decode(), [base, checks.offset_prims(base, d),
                                                 checks.offset_prims(base, -d)])
        elif sub == "compare":
            checks.check_comparison(geo, json.loads(stdout))
        elif sub == "export":
            curve = checks.optimal_curve(geo, caller_orientation=True)
            checks.check_svg(stdout.decode(), [curve, checks.offset_prims(curve, d),
                                               checks.offset_prims(curve, -d)])
        elif sub == "demo-illposed":
            checks.check_demo(json.loads(stdout)["primitives"], self.radii[k])
        elif sub == "verify":
            report = json.loads(stdout)
            checks.check_membership(geo, report["membership"], True)
            checks.check_certificate(geo, report["certificate"],
                                     checks.optimal_curve(geo, caller_orientation=False),
                                     "optimum")
        else:
            checks.check_sweep(geo, json.loads(stdout), SWEEP_GRIDS[0])
        self.reference[key] = out


WORKLOADS = {w.name: w for w in (SolveBatch, Evidence, CliCold)}


# --- measurement ------------------------------------------------------------------

class Phase:
    """Outcome of one measured phase of a workload."""

    def __init__(self, workload: str):
        self.workload = workload
        # compact arrays, so that peak RSS does not grow with the op count
        self.latencies_ns = array("q")   # successful operations only
        self.by_name: dict[str, array] = {}
        self.busy_ns = 0
        self.cpu_ns = 0
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.problems: list[str] = []
        self.first_op = self.end_op = 0

    @property
    def ops_per_s(self) -> float:
        return ratio(len(self.latencies_ns), self.busy_ns * 1e-9)


def measure(wl, seconds: float, tracer: Tracer | None = None, next_op: int = 0,
            max_ops: int | None = None, min_ops: int | None = None) -> Phase:
    """Closed loop, one client: whole rounds until `seconds` have passed and
    at least `min_ops` (default `wl.min_ops`) operations succeeded, or until
    `max_ops` were attempted.  Only the operations are timed; checking
    happens between them."""
    min_ops = wl.min_ops if min_ops is None else min_ops
    ph = Phase(wl.name)
    ph.first_op = next_op
    wl.tracer = tracer
    t_begin = time.perf_counter()
    rnd = 0
    while True:
        for i in range(wl.round_len):
            if max_ops is not None and ph.attempted >= max_ops:
                break
            if tracer:
                tracer.op_id = next_op
                root = tracer.begin("op." + wl.op_name(rnd, i))
            next_op += 1
            k0 = wl.child_cpu_ns
            c0 = time.process_time_ns()
            t0 = time.perf_counter_ns()
            try:
                out = wl.run_op(rnd, i)
                err = None
            except Exception as exc:  # noqa: BLE001 - every failure is counted by class
                err = exc
            t1 = time.perf_counter_ns()
            c1 = time.process_time_ns()
            if tracer:
                tracer.finish(root)
            ph.busy_ns += t1 - t0
            ph.cpu_ns += (c1 - c0) + (wl.child_cpu_ns - k0)
            ph.attempted += 1
            if err is not None:
                kind = getattr(err, "kind", type(err).__name__)
                ph.failed += 1
                ph.errors[kind] += 1
                if not wl.expect_failure(i):
                    ph.problems.append(f"{wl.name} op {i}: unexpected {kind}: {err}")
                continue
            ph.latencies_ns.append(t1 - t0)
            ph.by_name.setdefault(wl.op_name(rnd, i), array("q")).append(t1 - t0)
            try:
                wl.check(rnd, i, out)
            except checks.CheckError as exc:
                ph.problems.append(f"{wl.name} op {i} round {rnd}: {exc}")
        rnd += 1
        elapsed = time.perf_counter() - t_begin
        if max_ops is not None and ph.attempted >= max_ops:
            break
        if (elapsed >= seconds and len(ph.latencies_ns) >= min_ops) or elapsed >= RUN_CAP * seconds:
            break
    wl.tracer = None
    ph.end_op = next_op
    return ph


def combine(phases: list[Phase]) -> Phase:
    """One phase from consecutive phases of the same workload."""
    out = Phase(phases[0].workload)
    out.first_op, out.end_op = phases[0].first_op, phases[-1].end_op
    for ph in phases:
        out.latencies_ns.extend(ph.latencies_ns)
        for name, values in ph.by_name.items():
            out.by_name.setdefault(name, array("q")).extend(values)
        out.busy_ns += ph.busy_ns
        out.cpu_ns += ph.cpu_ns
        out.attempted += ph.attempted
        out.failed += ph.failed
        out.errors += ph.errors
        out.problems += ph.problems
    return out


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; NaN when no operation succeeded."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    return ordered[max(math.ceil(pct / 100.0 * len(ordered)) - 1, 0)]


def ratio(num: float, den: float) -> float:
    """num / den, NaN when nothing was counted."""
    return num / den if den else math.nan


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from launching a fresh benchmark process to the point
    where its first timed operation would start."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--workload", workload,
                                 "--seed", str(seed), "--setup-probe"],
                                cwd=ROOT, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line != b"ready\n":
            sys.exit(f"bench: setup probe for {workload} failed")
        times.append(t1 - t0)
    return statistics.median(times)


def end_to_end(wl, ph: Phase, setup_s: float) -> dict:
    n = len(ph.latencies_ns)
    if n < 10 * 100 / (100 - wl.tail_pct):
        print(f"bench: only {n} samples; p{wl.tail_pct} has fewer than ten beyond it",
              file=sys.stderr)
    rss_kb = wl.child_maxrss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": ph.ops_per_s, "unit": "op/s"},
        "op_p50_ms": {"value": percentile(ph.latencies_ns, 50) / 1e6, "unit": "ms"},
        "op_tail_ms": {"value": percentile(ph.latencies_ns, wl.tail_pct) / 1e6, "unit": "ms"},
        "cpu_ms_per_op": {"value": ph.cpu_ns / 1e6 / ph.attempted, "unit": "ms"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }


# --- traced run --------------------------------------------------------------------

#: (module key, attribute, span name); callers resolve these at call time
TRACED = (
    ("instance", "instance_from_json", "instance.instance_from_json"),
    ("synthesis", "synthesize", "synthesis.synthesize"),
    ("baselines", "compare_report", "baselines.compare_report"),
    ("offsets", "offset", "offsets.offset"),
    ("svg", "to_svg", "svg.to_svg"),
    ("dubins", "family_sweep", "dubins.family_sweep"),
    ("dubins", "dubins_curve", "dubins.dubins_curve"),
    ("dubins", "composite_solve", "dubins.composite_solve"),
    ("certificates", "make_certificate", "certificates.make_certificate"),
    ("certificates", "support_min", "certificates.support_min"),
    ("certificates", "zeta_profile", "certificates.zeta_profile"),
    ("certificates", "theta_phi_bound", "certificates.theta_phi_bound"),
    ("curves", "check_membership", "curves.check_membership"),
)

#: per-layer metric -> spans whose mean duration it reports
SPAN_METRICS = {
    "instance.parse_us": ("instance.instance_from_json",),
    "synthesis.synthesize_us": ("synthesis.synthesize",),
    "baselines.compare_report_us": ("baselines.compare_report",),
    "offsets.offset_us": ("offsets.offset",),
    "svg.to_svg_us": ("svg.to_svg",),
    "curves.serialize_us": ("curves.serialize",),
    "dubins.family_sweep_us": ("dubins.family_sweep",),
    "dubins.competitor_build_us": ("dubins.dubins_curve", "dubins.composite_solve"),
    "certificates.make_certificate_us": ("certificates.make_certificate",),
    "certificates.support_min_us": ("certificates.support_min",),
    "certificates.zeta_profile_us": ("certificates.zeta_profile",),
    "certificates.theta_phi_bound_us": ("certificates.theta_phi_bound",),
    "curves.sample_at_us": ("curves.sample_at",),
    "curves.check_membership_us": ("curves.check_membership",),
}

#: operations run, traced, for the layers of the workloads not under test
#: (one round of solve-batch: 12 batches of 8 and the 2 failing instances)
COVERAGE_OPS = {"solve-batch": 14, "evidence": 4}
CLI_PROBES = 10
CLI_WARM_CALLS = 20


def install(tracer: Tracer, m: dict) -> None:
    for key, attr, name in TRACED:
        tracer.wrap(m[key], attr, name)
    tracer.wrap(m["curves"].PiecewiseCurve, "sample_at", "curves.sample_at")


def cli_probes(cli_wl: CliCold, m: dict) -> tuple[dict, list[str]]:
    """Cold-start floor and import cost (child processes), then argument
    parsing and each subcommand warm in this process."""
    def spawn_ms(code: str) -> float:
        t0 = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=cli_wl.env, check=True)
        return (time.perf_counter_ns() - t0) / 1e6

    # alternate the two probes so that drift in machine load hits both alike
    pairs = [(spawn_ms("pass"), spawn_ms("import arcline.cli")) for _ in range(CLI_PROBES)]
    interp = statistics.median(p for p, _ in pairs)
    imported = statistics.median(i for _, i in pairs)
    cli = m["cli"]
    parser_ns = []
    for _ in range(CLI_WARM_CALLS * 10):
        t0 = time.perf_counter_ns()
        cli.build_parser()
        parser_ns.append(time.perf_counter_ns() - t0)
    metrics = {
        "cli.interp_ms": {"value": interp, "unit": "ms"},
        "cli.import_ms": {"value": imported - interp, "unit": "ms"},
        "cli.build_parser_us": {"value": statistics.median(parser_ns) / 1e3, "unit": "us"},
    }
    problems = []
    for sub in CLI_SUBCOMMANDS:
        argv = cli_wl.argv[0][sub]
        times = []
        for _ in range(CLI_WARM_CALLS):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = time.perf_counter_ns()
                code = cli.main(list(argv))
                times.append(time.perf_counter_ns() - t0)
            if code != 0:
                problems.append(f"cli.main({sub}) returned {code}")
        metrics[f"cli.main_us.{sub}"] = {"value": statistics.median(times) / 1e3, "unit": "us"}
    return metrics, problems


def traced_run(name: str, seed: int, seconds: float) -> tuple[dict, list[Phase], list[str]]:
    wl = WORKLOADS[name](seed)
    wl.setup()
    others = {n: WORKLOADS[n](seed) for n in COVERAGE_OPS if n != name}
    for o in others.values():
        o.setup()
    cli_wl = wl if isinstance(wl, CliCold) else CliCold(seed)
    if cli_wl is not wl:
        cli_wl.setup()
    m = load_program()

    # alternate untraced and traced rounds, so that drift in machine speed
    # does not read as tracing overhead
    tracer = Tracer()
    untraced_rounds, traced_rounds = [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        untraced_rounds.append(measure(wl, 0.0, max_ops=wl.round_len))
        install(tracer, m)
        try:
            traced_rounds.append(measure(wl, 0.0, tracer, traced_rounds[-1].end_op
                                         if traced_rounds else 0, max_ops=wl.round_len))
        finally:
            tracer.unwrap_all()
    untraced, traced = combine(untraced_rounds), combine(traced_rounds)
    install(tracer, m)
    try:
        coverage = []
        for n, o in others.items():
            coverage.append(measure(o, 0.0, tracer, coverage[-1].end_op if coverage
                                    else traced.end_op, max_ops=COVERAGE_OPS[n]))
    finally:
        tracer.unwrap_all()
    cli_metrics, cli_problems = cli_probes(cli_wl, m)

    metrics = {}
    by_name = tracer.durations()
    for metric, names in SPAN_METRICS.items():
        d = [x for n in names for x in by_name.get(n, ())]
        metrics[metric] = {"value": ratio(sum(d), len(d)) / 1e3, "unit": "us"}
    ev = wl if isinstance(wl, Evidence) else others["evidence"]
    ev_phase = traced if ev is wl else next(p for p in coverage if p.workload == "evidence")
    ev_ops = range(ev_phase.first_op, ev_phase.end_op)
    sample_calls = len(tracer.durations(ev_ops).get("curves.sample_at", ()))
    metrics.update({
        "curves.sample_at_calls": {"value": ratio(sample_calls, len(ev_phase.latencies_ns)),
                                   "unit": "count"},
        "dubins.sweep_cells": {"value": ratio(ev.cells, ev.ops), "unit": "count"},
        "dubins.sweep_feasible_ratio": {"value": ratio(ev.feasible, ev.cells), "unit": "ratio"},
        "certificates.hypothesis_null_ratio": {"value": ratio(ev.nulls, ev.certs),
                                               "unit": "ratio"},
        "certificates.support_bytes_computed": {
            "value": float(SUPPORT_ARRAYS * 8 * CERT_N_LARGE ** 2), "unit": "bytes"},
        "trace.overhead_pct": {"value": (untraced.ops_per_s / traced.ops_per_s - 1.0) * 100.0,
                               "unit": "%"},
    })
    metrics.update(cli_metrics)

    ops = range(traced.first_op, traced.end_op)
    self_ns = tracer.self_time_by_layer(ops)
    summary = {
        "workload": name,
        "seed": seed,
        "untraced_ops_per_s": untraced.ops_per_s,
        "traced_ops_per_s": traced.ops_per_s,
        "traced_ops": len(traced.latencies_ns),
        "self_ms_per_op": {k: v / 1e6 / traced.attempted for k, v in sorted(self_ns.items())},
        "self_share": {k: v / traced.busy_ns for k, v in sorted(self_ns.items())},
        "metrics": metrics,
    }
    if isinstance(wl, CliCold):
        summary["cold_p50_ms_by_subcommand"] = {
            k: statistics.median(v) / 1e6 for k, v in sorted(traced.by_name.items())}
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"spans-{name}.csv"))
    with open(os.path.join(OUT, f"trace-{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    print(f"self time per layer, {name}, {len(traced.latencies_ns)} traced ops "
          f"(tracing overhead {metrics['trace.overhead_pct']['value']:.1f}%):", file=sys.stderr)
    for layer, share in sorted(summary["self_share"].items(), key=lambda kv: -kv[1]):
        print(f"  {layer:14s} {summary['self_ms_per_op'][layer]:10.4f} ms/op {100 * share:6.1f}%",
              file=sys.stderr)
    if isinstance(wl, CliCold):
        floor = metrics["cli.interp_ms"]["value"] + metrics["cli.import_ms"]["value"]
        parse = metrics["cli.build_parser_us"]["value"] / 1e3
        print(f"cold start per subcommand: interpreter + import {floor:.1f} ms, "
              f"parser {parse:.2f} ms, then the subcommand warm:", file=sys.stderr)
        for sub, cold in summary["cold_p50_ms_by_subcommand"].items():
            warm = metrics[f"cli.main_us.{sub}"]["value"] / 1e3
            print(f"  {sub:14s} cold p50 {cold:8.1f} ms   warm main {warm:8.2f} ms",
                  file=sys.stderr)
    problems = [p for ph in (untraced, traced, *coverage) for p in ph.problems]
    problems += cli_problems
    return metrics, [untraced, traced], problems


# --- entry point -------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "arcline", "__init__.py")):
        print(f"bench: no program source at {os.path.relpath(SRC)}/arcline; "
              "run from the repository root of a full checkout", file=sys.stderr)
        return 2

    if args.setup_probe:
        WORKLOADS[args.workload](args.seed).setup()
        print("ready", flush=True)
        return 0

    if args.trace:
        metrics, phases, problems = traced_run(args.workload, args.seed, args.seconds)
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        wl = WORKLOADS[args.workload](args.seed)
        wl.setup()
        ph = measure(wl, args.seconds)
        metrics, phases, problems = end_to_end(wl, ph, setup_s), [ph], ph.problems

    errors = sum((ph.errors for ph in phases), Counter())
    if errors:
        print(f"bench: failed operations by error class: {dict(errors)}", file=sys.stderr)
    for p in problems[:20]:
        print(f"bench: CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
