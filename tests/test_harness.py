import dataclasses
import json

import numpy as np
import pytest

from openxxz import suites
from openxxz.report import CheckRecord, VerificationReport, params_digest
from openxxz.suites import RunConfig, _Recorder, homog_sweep, run_suite
from openxxz.cli import _emit, load_config, main
from openxxz.trig import random_params


def make_report():
    r = VerificationReport()
    r.add(CheckRecord(suite="s", case="b", residual=1e-12, tolerance=1e-9,
                      passed=True, seed=3, n_sites=2, params_digest="abc",
                      elapsed_ms=1.5))
    r.add(CheckRecord(suite="s", case="a", residual=2e-9, tolerance=1e-9,
                      passed=False, seed=3, n_sites=2, params_digest="abc",
                      elapsed_ms=0.7))
    return r


def test_report_round_trip():
    r = make_report()
    text = r.to_jsonl()
    r2 = VerificationReport.from_jsonl(text)
    assert r2.to_jsonl() == text
    assert [rec.case for rec in r2.sorted_records()] == ["a", "b"]


def test_report_pass_consistency():
    r = make_report()
    assert not r.all_passed()
    total, passed, worst = r.summary()["s"]
    assert (total, passed) == (2, 1)
    assert worst == pytest.approx(2.0)


def test_report_schema_fields():
    r = make_report()
    for line in r.to_jsonl().strip().splitlines():
        d = json.loads(line)
        assert set(d) == {"suite", "case", "residual", "tolerance", "passed",
                          "seed", "n_sites", "params_digest", "elapsed_ms", "error"}


def test_report_reads_lines_without_error_field():
    line = json.dumps({"suite": "s", "case": "a", "residual": 1e-12, "tolerance": 1e-9,
                       "passed": True, "seed": 3, "n_sites": 2, "params_digest": "abc",
                       "elapsed_ms": 0.0})
    (rec,) = VerificationReport.from_jsonl(line + "\n").records
    assert rec.error == "" and rec.passed


def test_guard_records_the_exception():
    def raises():
        raise ValueError("zero SoV eigenvector: inadmissible tau")

    rec = _Recorder("spectrum", 7, random_params(2, seed=7), 1e-8)
    rec.guard("broken", raises)
    rec.guard("fine", lambda: 1e-12)
    broken, fine = rec.records
    assert not broken.passed and broken.residual == float("inf")
    assert broken.error == "ValueError: zero SoV eigenvector: inadmissible tau"
    assert fine.passed and fine.error == ""
    text = VerificationReport(list(rec.records)).to_jsonl()
    assert VerificationReport.from_jsonl(text).to_jsonl() == text
    assert json.loads(text.splitlines()[0])["error"] == broken.error


def test_non_finite_residual_fails_with_a_named_error():
    rec = _Recorder("scalarprod", 0, random_params(2, seed=7), 1e-8)
    rec.add("nan", float("nan"))
    rec.add("inf", float("inf"))
    rec.guard("raises", lambda: 1 / 0)
    nan, inf, raises = rec.records
    assert not nan.passed and nan.error == "non-finite residual"
    assert not inf.passed and inf.error == "non-finite residual"
    assert raises.error == "ZeroDivisionError: division by zero"
    # a NaN after a finite value survives the reduction
    assert np.isnan(suites._worst(1e-10, float("nan")))


def test_nan_from_a_route_fails_its_record(monkeypatch):
    # the builtin max drops a NaN that follows a finite residual, so both
    # records would pass with one route returning NaN
    monkeypatch.setattr(suites, "sp_thm52", lambda *args, **kwargs: (complex("nan"), False))
    monkeypatch.setattr(suites, "sp_slavnov_gen", lambda *args: complex("nan"))
    report = run_suite(RunConfig(n_sites=3, seed=0, suites=("scalarprod",)))
    records = {r.case: r for r in report.records}
    for case in ("fourway-same-n1", "fourway-same-n3", "fourway-same-n5",
                 "slavnov-gaudin-onshell"):
        assert not records[case].passed, case
        assert records[case].error == "non-finite residual", case


def test_cli_summary_names_the_worst_case(capsys):
    import argparse

    r = make_report()
    for case, residual, tol in (("z", 0.0, 1e-9), ("y", 0.0, 1e-9), ("x", 5.0, 0.0)):
        r.add(CheckRecord(suite="t", case=case, residual=residual, tolerance=tol,
                          passed=True, seed=3, n_sites=2, params_digest="abc"))
    for case, residual in (("q", 1e-10), ("p", float("inf")), ("o", 3e-10)):
        r.add(CheckRecord(suite="u", case=case, residual=residual, tolerance=1e-9,
                          passed=residual < 1e-9, seed=3, n_sites=2, params_digest="abc"))
    csv_before, jsonl_before = r.to_csv(), r.to_jsonl()
    assert _emit(r, argparse.Namespace(out=None, format="json")) == 1
    assert capsys.readouterr().out.splitlines() == [
        "s              1/2   FAIL  worst residual/tolerance = 2.000e+00 (a)",
        "t              3/3   pass  worst residual/tolerance = 0.000e+00 (x)",
        "u              2/3   FAIL  worst residual/tolerance = inf (p)",
    ]
    assert r.summary() == {"s": (2, 1, 2e-9 / 1e-9), "t": (3, 3, 0.0),
                           "u": (3, 2, float("inf"))}
    assert r.to_csv() == csv_before == (
        "suite,total,passed,failed,worst_residual_ratio\n"
        "s,2,1,1,2.000000e+00\n"
        "t,3,3,0,0.000000e+00\n"
        "u,3,2,1,inf\n")
    assert r.to_jsonl() == jsonl_before


def test_params_digest_stable():
    p = random_params(2, seed=5)
    assert params_digest(p) == params_digest(p)
    assert params_digest(p) != params_digest(random_params(2, seed=6))


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(n_sites=9)
    with pytest.raises(ValueError):
        RunConfig(suites=("nonsense",))
    with pytest.raises(ValueError):
        RunConfig(tolerances={"lattice": -1.0})
    # an explicit model sets N, and the 1..7 cap applies to it
    assert RunConfig(n_sites=3, params=random_params(2, seed=5)).n_sites == 2
    with pytest.raises(ValueError, match="1..7"):
        RunConfig(n_sites=3, params=random_params(10))


def test_run_suite_detid_isolated():
    # the identities suite never constructs a chain operator
    config = RunConfig(n_sites=2, seed=4, suites=("identities",),
                       identity_instances=3)
    report = run_suite(config)
    assert report.all_passed()
    assert {r.suite for r in report.records} == {"identities"}


def _onshell_record(n_sites):
    report = run_suite(RunConfig(n_sites=n_sites, seed=0, suites=("scalarprod",)))
    (rec,) = [r for r in report.records if r.case == "slavnov-gaudin-onshell"]
    return rec


def test_onshell_record_at_one_site():
    # a single-site chain has on-shell states with one root
    rec = _onshell_record(1)
    assert rec.passed and rec.error == ""


def test_onshell_record_without_a_solution_carries_the_error(monkeypatch):
    solve = suites.solve_tq
    monkeypatch.setattr(suites, "solve_tq", lambda *args: dataclasses.replace(
        solve(*args), residual=1.0))
    rec = _onshell_record(2)
    assert not rec.passed and rec.error.startswith("ValueError: ")


def test_run_suite_deterministic():
    config = RunConfig(n_sites=2, seed=9, suites=("lattice", "gauge"))
    t1 = run_suite(config).to_jsonl()
    t2 = run_suite(config).to_jsonl()
    assert t1 == t2


def test_tampered_tolerance_reports_failures():
    config = RunConfig(n_sites=2, seed=9, suites=("lattice",),
                       tolerances={"lattice": 1e-20})
    report = run_suite(config)
    assert not report.all_passed()
    # residuals preserved, just measured against the absurd tolerance
    for rec in report.records:
        assert rec.residual >= 0


def test_full_pipeline_small():
    config = RunConfig(n_sites=2, seed=1, identity_instances=3)
    report = run_suite(config)
    assert report.all_passed(), [r for r in report.records if not r.passed]


def test_homog_sweep():
    config = RunConfig(n_sites=3, seed=13)
    rows = homog_sweep(config, (1e-1, 1e-2, 1e-3))
    assert rows[-1]["rel_diff"] < 1e-6
    conds = [r["sov_conditioning"] for r in rows]
    assert conds[0] < conds[1] < conds[2]
    # values are Cauchy across the decades
    d1 = abs(rows[1]["value"] - rows[0]["value"])
    d2 = abs(rows[2]["value"] - rows[1]["value"])
    assert d2 < d1


def test_cli_exit_codes(tmp_path):
    out = tmp_path / "report.jsonl"
    code = main(["verify", "--sites", "2", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert out.exists()
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"tolerances": {"lattice": -1}}))
    assert main(["verify", "--config", str(cfg)]) == 2
    cfg2 = tmp_path / "tight.json"
    cfg2.write_text(json.dumps({"tolerances": {"lattice": 1e-20}}))
    assert main(["verify", "--sites", "2", "--suite", "lattice",
                 "--config", str(cfg2)]) == 1


def test_cli_homog_without_oracle_fails(capsys):
    # at xi = 0 the referee's Gram constant vanishes with V(xi): the row is
    # unchecked, which is no pass, and its exception goes to stderr, naming
    # the cause, in place of a traceback
    for sites in ("3", "4"):
        code = main(["homog", "--sites", sites, "--seed", "13", "--epsilons", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert "unchecked" in err and "ZeroDivisionError" in err
        assert "Vhat(xi) = 0, the inhomogeneities coincide" in err


def test_cli_homog_checks_past_three_sites():
    for sites in ("4", "7"):
        assert main(["homog", "--sites", sites, "--seed", "13"]) == 0


def test_cli_homog_checks_every_row(monkeypatch, capsys):
    # the first row off by 1e-3, the last one exact
    sp_thm52, calls = suites.sp_thm52, []

    def off_first(*args, **kwargs):
        value, flag = sp_thm52(*args, **kwargs)
        calls.append(None)
        return value * (1 + 1e-3 * (len(calls) == 1)), flag

    monkeypatch.setattr(suites, "sp_thm52", off_first)
    assert main(["homog", "--sites", "3", "--seed", "13"]) == 1
    err = capsys.readouterr().err
    assert "epsilon 1.0e-01: rel_diff 1.0" in err and "epsilon 1.0e-02" not in err


def test_cli_seed_from_flag_then_config(tmp_path, monkeypatch):
    cfg = tmp_path / "seed.json"
    cfg.write_text(json.dumps({"seed": 3}))
    # the environment has no say
    monkeypatch.setenv("OPENXXZ_SEED", "7")
    assert load_config(str(cfg), {"seed": 5}).seed == 5
    assert load_config(str(cfg), {}).seed == 3
    assert load_config(None, {}).seed == 0


def test_cli_explicit_model(tmp_path):
    for n_sites, expected in ((2, 0), (8, 2)):
        assert _verify_model(tmp_path, random_params(n_sites, seed=5)) == expected


def _verify_model(tmp_path, p):
    """Exit code of the lattice suite on an explicit model written as JSON."""
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({
        "model": {
            "n_sites": p.N,
            "eta": [p.eta.real, p.eta.imag],
            "xi": [[x.real, x.imag] for x in p.xi],
            "boundary_minus": {
                "sigma": [p.boundary_minus.sigma.real, p.boundary_minus.sigma.imag],
                "kappa": [p.boundary_minus.kappa.real, p.boundary_minus.kappa.imag],
                "tau": [p.boundary_minus.tau.real, p.boundary_minus.tau.imag]},
            "boundary_plus": {
                "alpha": [p.boundary_plus.alpha.real, p.boundary_plus.alpha.imag],
                "beta": [p.boundary_plus.beta.real, p.boundary_plus.beta.imag],
                "tau": [p.boundary_plus.tau.real, p.boundary_plus.tau.imag]},
        }}))
    return main(["verify", "--suite", "lattice", "--config", str(cfg)])


def test_boundary_alpha_beta_round_trip():
    from openxxz.cli import _boundary_from_config
    p = random_params(2, seed=5).boundary_plus
    rebuilt = _boundary_from_config({
        "alpha": [p.alpha.real, p.alpha.imag],
        "beta": [p.beta.real, p.beta.imag],
        "tau": [p.tau.real, p.tau.imag]})
    assert rebuilt.reparam_residual() < 1e-11
    assert abs(np.sinh(rebuilt.sigma) / (2 * rebuilt.kappa)
               - np.sinh(p.sigma) / (2 * p.kappa)) < 1e-11
