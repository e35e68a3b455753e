"""Smoke test of the benchmark itself: every check can fail.

    python3 bench/selfcheck.py

For each workload: runs its first few ops and requires that none fails
outside the workload's kept faults, then hands each check a perturbed
result (a relative change of 1e-6, or a value that must be zero made
non-zero) and requires the check to reject it as a new fault.  Runs every
op on the workload's list of kept faults and requires it to fail, and
requires that an op that raises never counts as a kept fault.  Exits 1 on
any surprise.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from itertools import islice

from run import PINNED_ENV

os.environ.update(PINNED_ENV)  # before numpy loads

from worker import is_kept, run_op  # noqa: E402  (puts the checkout's src on the path)
from openxxz import TrigPoly  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OPS = 7
DELTA = 1e-6


class _PerturbedBasis:
    """A basis whose second left state is off by DELTA."""

    def __init__(self, basis):
        self._basis = basis

    def left_states(self, eps):
        out = self._basis.left_states(eps).copy()
        out[1] *= 1 + DELTA
        return out

    def right_states(self, eps):
        return self._basis.right_states(eps)


def perturbations(workload, state, inp, out):
    """(description, perturbed result) pairs that a sound check rejects."""
    name = workload.name
    if name == "basis-n5":
        basis, taus = out
        tau0 = dataclasses.replace(taus[0], coeffs=(taus[0].coeffs[0] * (1 + DELTA),)
                                   + tuple(taus[0].coeffs[1:]))
        return [("Gram matrix", (_PerturbedBasis(basis), taus)),
                ("one tau", (basis, [tau0] + list(taus[1:])))]
    if name == "scalar-n5":
        d, s, t, flag = out
        if flag:
            scale = workload.zero_scale(state, inp)
            return [("zero thm52 value", (d, s, 1.0, flag)),
                    ("zero contraction", (d + DELTA * scale, s, t, flag))]
        return [("contraction", (d * (1 + DELTA), s, t, flag)),
                ("thm52 value", (d, s, t * (1 + DELTA), flag))]
    if name == "tq-n5":
        roots = (out.q.roots[0] * (1 + DELTA),) + out.q.roots[1:]
        return [("one Q root", dataclasses.replace(out, q=TrigPoly(roots=roots)))]
    res, lhs, rhs = out[0]
    return [("one side of D1", [(res, lhs * (1 + DELTA), rhs)] + out[1:]),
            ("residual of E3", out[:-1] + [(DELTA, None, None)])]


class _Raising:
    """A workload whose op raises, as a broken program's would."""

    def __init__(self, workload):
        self._workload = workload

    def run(self, state, inp):
        raise RuntimeError("op raised")

    def check(self, state, inp, out):
        return self._workload.check(state, inp, out)


def main():
    surprises = 0

    def report(ok, line):
        nonlocal surprises
        print(line + ("" if ok else "  <- SURPRISE"))
        surprises += not ok

    for name, cls in WORKLOADS.items():
        workload = cls()
        state = workload.setup()
        for inp in islice(workload.inputs(state, 0, 1), OPS):
            out = workload.run(state, inp)
            residual, passed = workload.check(state, inp, out)
            kept = is_kept(workload, inp, None)
            status = "ok" if passed else ("kept fault" if kept else "FAILED")
            report(passed or kept, f"{name}: {workload.label(inp)}: residual {residual:.2e} {status}")
            if not passed:
                continue
            # a passing op is off the kept list, so a rejected result is a new fault
            if kept:
                report(False, "    passes, but is on the kept list")
            for what, bad in perturbations(workload, state, inp, out):
                _, accepted = workload.check(state, inp, bad)
                report(not accepted, f"    perturbed {what}: {'ACCEPTED' if accepted else 'rejected'}")

        round_ = list(workload.inputs(state, 0, 1))
        listed = [inp for inp in round_ if workload.kept_fault(inp)]
        still = sum(not run_op(workload, state, inp)[2] for inp in listed)
        report(still == len(listed), f"{name}: {still} of {len(listed)} kept faults fail")

        inp = (listed or round_)[0]
        err = run_op(_Raising(workload), state, inp)[3]
        report(err is not None and not is_kept(workload, inp, err),
               f"{name}: an op that raises on {workload.label(inp)} is a new fault: "
               f"{not is_kept(workload, inp, err)}")

    print("selfcheck:", "ok" if surprises == 0 else f"{surprises} surprises")
    sys.exit(1 if surprises else 0)


if __name__ == "__main__":
    main()
