"""Command line entry points for the verification suites."""

from __future__ import annotations

import argparse
import json
import math
import sys

from .report import VerificationReport
from .suites import SUITE_ORDER, RunConfig, homog_sweep, run_suite

EXIT_OK = 0
EXIT_NUMERICAL_FAILURE = 1
EXIT_CONFIG_ERROR = 2


def _complex_from(value):
    if isinstance(value, (list, tuple)):
        return complex(value[0], value[1])
    return complex(value)


def _boundary_from_config(d):
    from .trig import BoundaryParams, reparam_boundary
    import numpy as np

    tau = _complex_from(d.get("tau", 0))
    if "sigma" in d and "kappa" in d:
        return reparam_boundary(_complex_from(d["sigma"]), _complex_from(d["kappa"]), tau)
    if "alpha" in d and "beta" in d:
        alpha = _complex_from(d["alpha"])
        beta = _complex_from(d["beta"])
        ratio = -np.sinh(alpha + beta) / np.sinh(alpha - beta)
        sigma = np.log(ratio + 0j) / 2
        kappa = np.exp(sigma) / (2 * np.sinh(alpha + beta))
        return BoundaryParams(sigma=complex(sigma), kappa=complex(kappa), tau=tau,
                              alpha=alpha, beta=beta)
    raise ValueError("boundary needs (sigma, kappa) or (alpha, beta)")


def load_config(path, overrides) -> RunConfig:
    data = {}
    if path:
        with open(path) as fh:
            data = json.load(fh)
    params = None
    if "model" in data:
        from .trig import ModelParams

        m = data["model"]
        params = ModelParams(
            N=int(m["n_sites"]),
            eta=_complex_from(m["eta"]),
            xi=tuple(_complex_from(x) for x in m["xi"]),
            boundary_minus=_boundary_from_config(m["boundary_minus"]),
            boundary_plus=_boundary_from_config(m["boundary_plus"]),
        )
    seed = overrides.get("seed")
    if seed is None:
        seed = data.get("seed", 0)
    n_sites = overrides.get("n_sites") or data.get("n_sites", 3)
    suites = overrides.get("suites") or tuple(data.get("suites", SUITE_ORDER))
    return RunConfig(
        n_sites=int(n_sites),
        seed=int(seed),
        suites=tuple(suites),
        tolerances=dict(data.get("tolerances", {})),
        params=params,
        identity_instances=int(data.get("identity_instances", 25)),
    )


def _emit(report: VerificationReport, args) -> int:
    if args.out:
        report.emit(args.out, fmt=args.format)
    for suite, (total, passed, worst, case) in sorted(report.suite_rows().items()):
        status = "pass" if passed == total else "FAIL"
        print(f"{suite:12s} {passed:3d}/{total:<3d} {status}  "
              f"worst residual/tolerance = {worst:.3e} ({case})")
    return EXIT_OK if report.all_passed() else EXIT_NUMERICAL_FAILURE


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--seed", type=int, help="seed override")
    common.add_argument("--sites", type=int, help="chain length override")
    common.add_argument("--suite", action="append",
                        help="restrict to one or more suites (repeatable)")
    common.add_argument("--out", help="write the report to this path")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    parser = argparse.ArgumentParser(
        prog="openxxz",
        description="Verification suites for the open XXZ SoV construction")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", parents=[common],
                   help="run every suite in dependency order")
    sub.add_parser("spectrum", parents=[common], help="spectrum and T-Q suites")
    sub.add_parser("scalar", parents=[common], help="scalar-product suites")
    sub.add_parser("identities", parents=[common],
                   help="determinant-identity suites")
    homog = sub.add_parser("homog", parents=[common],
                           help="homogeneous-limit sweep")
    homog.add_argument("--epsilons", default="1e-1,1e-2,1e-3")

    args = parser.parse_args(argv)
    overrides = {"seed": args.seed, "n_sites": args.sites,
                 "suites": tuple(args.suite) if args.suite else None}
    try:
        config = load_config(args.config, overrides)
        if args.command == "spectrum":
            config = _restrict(config, ("lattice", "gauge", "sovbasis", "spectrum"))
        elif args.command == "scalar":
            config = _restrict(config, ("scalarprod",))
        elif args.command == "identities":
            config = _restrict(config, ("identities",))
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    if args.command == "homog":
        epsilons = tuple(float(x) for x in args.epsilons.split(","))
        rows = homog_sweep(config, epsilons)
        header = f"{'epsilon':>10s} {'value':>34s} {'rel_diff':>12s} {'sov_cond':>12s}"
        print(header)
        lines = [header]
        for row in rows:
            flag = "  [non-generic]" if row["flagged"] else ""
            line = (f"{row['epsilon']:10.1e} {row['value']!s:>34s} "
                    f"{row['rel_diff']:12.3e} {row['sov_conditioning']:12.3e}{flag}")
            print(line)
            lines.append(line)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        for row in rows:
            if row["error"]:
                print(f"homog: epsilon {row['epsilon']:.1e}: {row['error']}", file=sys.stderr)
        unchecked = sum(math.isnan(r["rel_diff"]) for r in rows)
        if unchecked:
            print(f"homog: {unchecked} of {len(rows)} rows unchecked", file=sys.stderr)
            return EXIT_NUMERICAL_FAILURE
        failed = [r for r in rows if r["rel_diff"] >= 1e-6]
        for row in failed:
            print(f"homog: epsilon {row['epsilon']:.1e}: rel_diff {row['rel_diff']:.3e} "
                  f"not below 1e-6", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE if failed else EXIT_OK

    report = run_suite(config)
    return _emit(report, args)


def _restrict(config: RunConfig, suites) -> RunConfig:
    from dataclasses import replace

    return replace(config, suites=tuple(s for s in suites if s in config.suites)
                   or tuple(suites))


if __name__ == "__main__":
    sys.exit(main())
