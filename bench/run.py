"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs the workload in a child process (``worker.py``) with one BLAS thread,
fixed in the environment before numpy loads; without tracing, two
set-up-only children run before it and two after it, and ``setup_s`` is
the median of the five set-up times.  The op count is fixed by
``--seconds`` alone: the run attempts ``round(seconds / round_seconds)``
whole rounds (at least one), where ``round_seconds`` is the workload's
nominal round time on the reference machine, so every run with the same
``--seconds`` attempts the same ops and no run is cut by a clock.

Lists the failed ops on stderr, each once with its count, and prints as the
last line of stdout one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  Exits non-zero,
printing no result, if the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170
TAIL_BEYOND = 10
SETUPS_AROUND = 2

# nominal time of one round of each workload on the reference machine (README)
WORKLOADS = {"basis-n5": 16.0, "scalar-n5": 5.6, "tq-n5": 2.5, "identities": 1.5}

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def round_tail(times):
    """The slowest op with TAIL_BEYOND ops of the round beyond it."""
    return sorted(times)[max(0, len(times) - 1 - TAIL_BEYOND)]


def end_to_end(raw, setup_s):
    times = raw["op_times"]
    n = len(times)
    per_round = n // raw["rounds"]
    tails = [round_tail(times[i:i + per_round]) for i in range(0, n, per_round)]
    digits = raw["digits"]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        # median over the rounds of each round's tail, so that a brief
        # slowdown of the machine moves one round's tail, not the metric
        "op_tail_s": (statistics.median(tails), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "digits_p50": (statistics.median(digits), "digits"),
        "digits_p10": (statistics.quantiles(digits, n=10)[0], "digits"),
    }


def run_worker(args, rounds, deadline, spans=None):
    """One worker process; its raw result, with ``setup_s`` filled in.

    ``setup_s`` runs from the process start to the end of the workload's
    setup: interpreter, imports and precomputation.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--rounds", str(rounds), "--trace", str(args.trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd, env={**os.environ, **PINNED_ENV}, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        sys.exit(f"{args.workload}: no result within {TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"{args.workload}: worker exited with code {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    raw["setup_s"] = raw["imported_at"] - spawned_at + raw["setup_time"]
    return raw


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    rounds = max(1, round(args.seconds / WORKLOADS[args.workload]))
    deadline = time.monotonic() + TIMEOUT_S
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        raw = run_worker(args, rounds, deadline,
                         out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        # setup_s is the median of five set-ups: SETUPS_AROUND set-up-only
        # processes before the measured one, the measured one, and as many
        # after it
        setups = [run_worker(args, 0, deadline)["setup_s"] for _ in range(SETUPS_AROUND)]
        raw = run_worker(args, rounds, deadline)
        setups += [raw["setup_s"]]
        setups += [run_worker(args, 0, deadline)["setup_s"] for _ in range(SETUPS_AROUND)]
        setup_s = statistics.median(setups)

    for line, count in Counter(raw["failures"]).items():
        print(f"failed {count}x: {line}", file=sys.stderr)
    metrics = raw["per_layer"] if args.trace else end_to_end(raw, setup_s)
    correct = raw["unexpected"] == 0 and raw.get("repeatable", True)
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
