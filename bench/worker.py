"""One benchmark run of one workload, in a process of its own.

Started by ``run.py`` with the BLAS thread count already fixed in the
environment.  Imports ``openxxz`` from the ``src`` directory of the checkout
that holds this file, and no other copy.  Prints one JSON line of raw
measurements for ``run.py`` to summarize.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import openxxz  # noqa: E402

if not Path(openxxz.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"openxxz imported from {openxxz.__file__}, not from {ROOT / 'src'}")

from workloads import WORKLOADS  # noqa: E402
from spans import Tracer  # noqa: E402

IMPORTED_AT = time.monotonic()
DIGITS_CAP = 16.0


def digits(residual):
    """-log10 of a relative disagreement, capped at DIGITS_CAP and at 0."""
    if residual <= 0:
        return DIGITS_CAP
    if not math.isfinite(residual):
        return 0.0
    return min(DIGITS_CAP, max(0.0, -math.log10(residual)))


def is_kept(workload, inp, err):
    """Whether a failed op is on the workload's list of kept faults.

    An op that raised is never one: every kept fault is a wrong number.
    """
    return err is None and workload.kept_fault(inp)


def run_op(workload, state, inp, tracer=None):
    """Time one op, then check it with the tracer paused.

    Returns (seconds, residual, passed, error); an op that raises fails.
    """
    if tracer is not None:
        tracer.start()
    t0 = time.perf_counter()
    try:
        out = workload.run(state, inp)
        err = None
    except Exception as exc:
        err = exc
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.stop()
    if err is not None:
        return t1 - t0, float("inf"), False, err
    try:
        residual, passed = workload.check(state, inp, out)
    except Exception as exc:
        return t1 - t0, float("inf"), False, exc
    return t1 - t0, residual, passed, None


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", help="file for the spans of a traced run")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.prepare()
        if hasattr(workload, "wrap_sampler"):
            workload.wrap_sampler = tracer.counting_rng
        tracer.start()
    t0 = time.perf_counter()
    state = workload.setup()
    result = {"imported_at": IMPORTED_AT, "setup_time": time.perf_counter() - t0}
    if tracer is not None:
        tracer.stop()
    if args.rounds == 0:  # a set-up-only process, timed by run.py
        print(json.dumps(result))
        return

    warm = next(iter(workload.inputs(state, args.seed, 1)))
    workload.run(state, warm)

    times, digit_list, failures = [], [], []

    def record(inp, op):
        seconds, residual, passed, err = op
        times.append(seconds)
        digit_list.append(digits(residual))
        if not passed:
            failures.append((workload.label(inp), is_kept(workload, inp, err), residual, err))

    inputs = workload.inputs(state, args.seed, args.rounds)
    if tracer is None:
        for inp in inputs:
            record(inp, run_op(workload, state, inp))
    else:
        # each op untraced, then traced from a fresh copy of its input, so
        # both runs of an op see the same state of the machine
        untraced_s = traced_s = 0.0
        repeatable = True
        for inp, again in zip(inputs, workload.inputs(state, args.seed, args.rounds)):
            op = run_op(workload, state, inp)
            record(inp, op)
            op_traced = run_op(workload, state, again, tracer)
            untraced_s += op[0]
            traced_s += op_traced[0]
            repeatable = repeatable and op[1:3] == op_traced[1:3]
        result["per_layer"] = tracer.metrics()
        result["per_layer"]["trace.overhead"] = (traced_s / untraced_s - 1.0, "ratio")
        result["repeatable"] = repeatable
        if args.spans:
            tracer.write(args.spans)

    result.update({
        "op_times": times,
        "digits": digit_list,
        "rounds": args.rounds,
        "attempted": len(times),
        "failed": len(failures),
        "unexpected": sum(not kept for _, kept, _, _ in failures),
        "failures": [f"{label}: residual {r:.3e}"
                     + (f" ({type(err).__name__}: {err})" if err else "")
                     for label, _, r, err in failures],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result))


if __name__ == "__main__":
    main()
