"""Run one workload k times and print each metric's spread against its bound.

    python3 bench/spread.py --workload tq-n5 --runs 10 [--first-seed 0]

Runs the command of BENCHMARK.json with seeds first-seed .. first-seed+k-1
and ``--trace 0``, then prints, per end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median and the metric's bound, and the failed share of every
run.  A spread above a third of its bound is marked; the exit code is 1 if
a spread exceeds its bound, if a run is not correct, or if the failed share
is not the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values, shares = {}, []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append((result["failed"], result["attempted"], result["correct"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']}, "
              f"correct {result['correct']}", flush=True)

    bad = len({(f, a) for f, a, _ in shares}) != 1 or not all(c for _, _, c in shares)
    print(f"\n{'metric':14s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} {'bound':>6s}")
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med)
        mark = ""
        if spread > m["bound"] / 3:
            mark = " over a third of the bound"
        if spread > m["bound"]:
            mark, bad = " OVER THE BOUND", True
        print(f"{m['name']:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{m['bound']:6.3f}{mark}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
