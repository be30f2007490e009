"""Steadiness check: sets of benchmark runs, spread of each metric vs its bound.

    python3 bench/steady.py [--workloads solve-batch,evidence,cli-cold]
                            [--runs 10] [--sets 2] [--first-seed 1]

Run from the repository root.  Each run uses its own seed.  For every
end-to-end metric the table gives, per set, the median and the spread
(distance between the first and third quartile, as a share of the
median), and with two sets the change of the second median against the
first in the metric's worse direction.  A spread above the metric's
bound, or a shift worse than it, is marked "!" (setup_s is held to the
shift alone).  The failed share of attempted operations must be equal in
every set.  Raw results go to bench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"steady: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]

    results: dict = {}
    ok = True
    for name in names:
        sets = []
        for s in range(args.sets):
            runs = []
            for r in range(args.runs):
                seed = args.first_seed + s * args.runs + r
                runs.append(run_once(spec, name, seed))
                print(f"{name} set {s + 1} seed {seed}: {json.dumps(runs[-1])}", file=sys.stderr)
            sets.append(runs)
        results[name] = sets
        print(f"\n{name}: {args.sets} set(s) of {args.runs} runs")
        shares = {f"{r['failed']}/{r['attempted']}" for runs in sets for r in runs}
        ratios = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        same = len(ratios) == 1 and all(r["correct"] for runs in sets for r in runs)
        ok &= same
        print(f"  correct in every run, failed share equal: {'yes' if same else 'NO !'}"
              f" ({len(ratios)} distinct share(s), e.g. {sorted(shares)[0]})")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            cols = []
            medians = []
            for runs in sets:
                values = [r["metrics"][key]["value"] for r in runs]
                med, sp = statistics.median(values), spread(values)
                medians.append(med)
                flag = "!" if sp > bound and key != "setup_s" else " "
                ok &= flag == " "
                cols.append(f"median {med:12.6g} spread {100 * sp:5.1f}%{flag}")
            line = f"  {key:14s} bound {100 * bound:4.1f}%  " + "  ".join(cols)
            if len(medians) > 1:
                worse = (medians[-1] - medians[0]) / medians[0]
                if metric["better"] == "higher":
                    worse = -worse
                flag = "!" if worse > bound else " "
                ok &= flag == " "
                line += f"  shift {100 * worse:+5.1f}%{flag}"
            print(line)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
