"""Seeded verification suites over every layer of the construction.

Each suite draws its spectral points from a counter-based generator keyed by
(seed, suite, case), so records are reproducible regardless of execution
order.  Numerical failures become failing records; only configuration
errors raise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .trig import ModelParams, TrigPoly, random_params, rng_for
from .lattice import (
    AuxOp,
    kmat_generic,
    r6v,
    rel_residual,
    reflection_residual,
    transfer,
    transfer_alt,
    u_minus,
    yang_baxter_residual,
)
from .gauge import (
    GaugeParams,
    gauge_is_safe,
    k_plus_hat,
    r_sos,
    s_chain,
    solve_gauge,
    t_sos,
    transfer_from_tilde,
    u_sos,
    u_tilde,
    verify_sos_algebra,
    vertex_irf2_residual,
    vertex_irf_residual,
)
from .sov import (
    ADMISSIBLE_EPS,
    SovBasis,
    gram_matrix,
    identity_resolution_residual,
    resolution_weights,
    verify_sov_actions,
)
from .spectrum import (
    brute_spectrum,
    constrain_boundary,
    eigen_residual,
    f_frak,
    solve_tq,
    sov_eigenvector,
    tau_leading_coeff,
    tau_special_values,
    verify_tau,
)
from .scalar import (
    SeparateStateSpec,
    aset_ratio_residual,
    build_aset,
    gaudin_norm,
    onshell_roots,
    separate_state,
    sp_direct,
    sp_slavnov,
    sp_slavnov_gen,
    sov_matrix,
    sp_sov,
    sp_thm52,
)
from .detid import (
    balanced_g_handle,
    check_identity_D,
    check_identity_E,
    generic_point_set,
    onshell_handle_family,
    random_fn_handle,
)
from .report import CheckRecord, VerificationReport, params_digest

DEFAULT_TOLS = {
    "lattice": 1e-11,
    "gauge": 1e-9,
    "sovbasis": 1e-9,
    "spectrum": 1e-8,
    "scalarprod": 1e-8,
    "identities": 1e-9,
}

# the sign branches the suites check: the first, and a second for the mixed pairs
EPS_CHOICES = ADMISSIBLE_EPS[:2]

SUITE_ORDER = ("lattice", "gauge", "sovbasis", "spectrum", "scalarprod", "identities")


@dataclass
class RunConfig:
    n_sites: int = 3
    seed: int = 0
    suites: tuple = SUITE_ORDER
    tolerances: dict = field(default_factory=dict)
    params: ModelParams | None = None
    identity_instances: int = 25

    def __post_init__(self):
        if self.params is not None:
            self.n_sites = self.params.N
        if self.n_sites < 1 or self.n_sites > 7:
            raise ValueError(f"n_sites must lie in 1..7, got {self.n_sites}")
        bad = [s for s in self.suites if s not in SUITE_ORDER]
        if bad:
            raise ValueError(f"unknown suites: {bad}")
        for k, v in self.tolerances.items():
            if v <= 0:
                raise ValueError(f"tolerance for {k!r} must be positive")

    def tol(self, suite: str) -> float:
        return self.tolerances.get(suite, DEFAULT_TOLS[suite])

    def model(self) -> ModelParams:
        if self.params is not None:
            return self.params
        return random_params(self.n_sites, seed=self.seed)


class _Recorder:
    def __init__(self, suite, seed, params, tol):
        self.records = []
        self.suite = suite
        self.seed = seed
        self.n = params.N
        self.digest = params_digest(params)
        self.tol = tol
        self._t0 = time.perf_counter()

    def add(self, case, residual, tol=None, error=""):
        t1 = time.perf_counter()
        tol = self.tol if tol is None else tol
        residual = float(residual)
        if not error and not np.isfinite(residual):
            error = "non-finite residual"
        self.records.append(CheckRecord(
            suite=self.suite, case=case, residual=residual, tolerance=tol,
            passed=bool(residual <= tol), seed=self.seed, n_sites=self.n,
            params_digest=self.digest, elapsed_ms=(t1 - self._t0) * 1e3, error=error))
        self._t0 = t1

    def guard(self, case, fn, tol=None):
        try:
            self.add(case, fn(), tol)
        except Exception as exc:
            self.add(case, float("inf"), tol, f"{type(exc).__name__}: {exc}")


def _worst(*residuals) -> float:
    """The largest residual, NaN if any is NaN (the builtin max drops a later NaN)."""
    return float(np.max(residuals))


def _rand_lam(rng):
    return complex(rng.uniform(0.15, 1.25), rng.uniform(-0.45, 0.45))


def _gauge(params: ModelParams) -> GaugeParams:
    """The (+1, +1) gauge branch, falling back to (-1, -1) where it is unsafe."""
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    if not gauge_is_safe(gauge, params):
        gauge = solve_gauge(params.boundary_plus, -1, -1, params.eta)
    return gauge


def _setup(config: RunConfig):
    params = config.model()
    return params, _gauge(params)


# ---------------------------------------------------------------------------
# Suites.
# ---------------------------------------------------------------------------

def suite_lattice(config: RunConfig) -> list:
    params = config.model()
    rec = _Recorder("lattice", config.seed, params, config.tol("lattice"))
    rng = rng_for(config.seed, "lattice")
    b = params.boundary_minus

    rec.guard("yang-baxter", lambda: _worst(*(
        yang_baxter_residual(_rand_lam(rng), _rand_lam(rng), params.eta)
        for _ in range(5))), 1e-12)
    def r_at(x):
        return r6v(x, params.eta)

    def k_at(x):
        return AuxOp.from_scalar_matrix(kmat_generic(x, b.sigma, b.kappa, b.tau, params.eta), 1)

    rec.guard("k-reflection", lambda: _worst(*(
        reflection_residual(_rand_lam(rng), _rand_lam(rng), params.eta, r_at, k_at)
        for _ in range(5))), 1e-12)
    rec.guard("u-reflection", lambda: reflection_residual(
        _rand_lam(rng), _rand_lam(rng), params.eta, r_at, lambda x: u_minus(x, params)))

    def commuting():
        worst = 0.0
        for n in (2, 3, 4):
            p = random_params(n, seed=config.seed, eta=params.eta)
            for _ in range(7):
                lam, mu = _rand_lam(rng), _rand_lam(rng)
                t1, t2 = transfer(lam, p), transfer(mu, p)
                worst = _worst(worst, np.linalg.norm(t1 @ t2 - t2 @ t1)
                               / (np.linalg.norm(t1) * np.linalg.norm(t2)))
        return worst
    rec.guard("commuting-family", commuting)

    rec.guard("trace-forms", lambda: _worst(*(
        rel_residual(transfer(lam, params), transfer_alt(lam, params))
        for lam in (_rand_lam(rng), _rand_lam(rng)))))

    eye = np.eye(2 ** params.N)
    rec.guard("special-values", lambda: _worst(*(
        rel_residual(transfer(lam, params), val * eye)
        for lam, val in tau_special_values(params))), 1e-12)

    def asymptotics():
        coef = tau_leading_coeff(params) / 4 ** (params.N + 2)
        return _worst(*(rel_residual(transfer(lam, params)
                                     * np.exp(-2 * (params.N + 2) * abs(lam)),
                                     coef * eye) for lam in (25.0, -25.0)))
    rec.guard("asymptotics", asymptotics, 1e-6)

    def hamiltonian_consistency():
        from .lattice import hamiltonian, traceless
        p = random_params(3, seed=config.seed, eta=params.eta).with_xi((0, 0, 0))
        return rel_residual(traceless(hamiltonian(p, "direct")),
                            traceless(hamiltonian(p, "from_transfer")))
    rec.guard("hamiltonian-traceless", hamiltonian_consistency, 1e-7)
    return rec.records


def suite_gauge(config: RunConfig) -> list:
    params, gauge = _setup(config)
    rec = _Recorder("gauge", config.seed, params, config.tol("gauge"))
    rng = rng_for(config.seed, "gauge")

    rec.guard("vertex-irf", lambda: _worst(*(
        _worst(vertex_irf_residual(_rand_lam(rng), _rand_lam(rng),
                                   complex(rng.uniform(0.4, 1.2), rng.uniform(-0.3, 0.3)),
                                   gauge.alpha, params.eta),
               vertex_irf2_residual(_rand_lam(rng), _rand_lam(rng),
                                    complex(rng.uniform(0.4, 1.2), rng.uniform(-0.3, 0.3)),
                                    gauge.alpha, params.eta))
        for _ in range(5))), 1e-12)

    def k_hat_diagonal():
        worst = 0.0
        for _ in range(5):
            k = k_plus_hat(_rand_lam(rng), params, gauge)
            worst = _worst(worst, _worst(abs(k[0, 1]), abs(k[1, 0])) / np.linalg.norm(k))
        return worst
    rec.guard("k-hat-diagonal", k_hat_diagonal, 1e-11)

    def conjugation():
        lam = _rand_lam(rng)
        t_direct = transfer(lam, params)
        r1 = rel_residual(transfer_from_tilde(lam, params, gauge), t_direct)
        s = s_chain(params, gauge.beta, gauge.alpha)
        ts = t_sos(lam, params, gauge)
        r2 = rel_residual(s @ ts @ np.linalg.inv(s), t_direct)
        return _worst(r1, r2)
    rec.guard("gauge-transfer", conjugation, 1e-10)

    def spectrum_match():
        lam = _rand_lam(rng)
        ev1 = np.sort_complex(np.linalg.eigvals(transfer(lam, params)))
        ev2 = np.sort_complex(np.linalg.eigvals(t_sos(lam, params, gauge)))
        return np.max(np.abs(ev1 - ev2)) / np.max(np.abs(ev1))
    rec.guard("sos-spectrum", spectrum_match)

    # each U is the pair of its labels beta + 1 and beta - 1 (the other aux space up, down)
    beta = gauge.beta
    u_forms = (lambda x, lbl: u_tilde(x, params, lbl, gauge.alpha),
               lambda x, lbl: u_sos(x, params, lbl, gauge))
    rec.guard("dynamical-reflection", lambda: _worst(*(
        reflection_residual(_rand_lam(rng), _rand_lam(rng), params.eta,
                            lambda x: r_sos(x, beta, params.eta),
                            lambda x: (u_at(x, beta + 1), u_at(x, beta - 1)))
        for u_at in u_forms)))

    for name, res in verify_sos_algebra(params, gauge, seed=config.seed):
        rec.add(f"algebra-{name}", res)
    return rec.records


def suite_sovbasis(config: RunConfig) -> list:
    params, gauge = _setup(config)
    rec = _Recorder("sovbasis", config.seed, params, config.tol("sovbasis"))
    basis = SovBasis(params, gauge)

    for eps in EPS_CHOICES:
        tag = f"eps{eps.a_plus}{eps.a_minus}{eps.b_plus}{eps.b_minus}"

        def orthogonality(eps=eps):
            g = gram_matrix(basis, eps)
            expect = basis.norm_const(eps) / resolution_weights(params)
            ln = np.linalg.norm(basis.left_states(eps), axis=1)
            rn = np.linalg.norm(basis.right_states(eps), axis=1)
            diag = np.abs(np.diag(g) - expect) / np.abs(expect)
            off = np.abs(g - np.diag(np.diag(g))) / np.outer(ln, rn)
            return _worst(np.max(diag), np.max(off))
        rec.guard(f"orthogonality-{tag}", orthogonality)

        rec.guard(f"norm-dense-{tag}", lambda eps=eps: abs(
            basis.norm_const(eps) - basis.norm_const_dense(eps))
            / abs(basis.norm_const(eps)))
        rec.guard(f"identity-resolution-{tag}",
                  lambda eps=eps: identity_resolution_residual(basis, eps))

    for name, res in verify_sov_actions(basis, EPS_CHOICES[0],
                                        seed=config.seed):
        rec.add(f"action-{name}", res)
    return rec.records


def suite_spectrum(config: RunConfig) -> list:
    params, gauge = _setup(config)
    rec = _Recorder("spectrum", config.seed, params, config.tol("spectrum"))
    eps = EPS_CHOICES[0]
    basis = SovBasis(params, gauge)
    taus = brute_spectrum(params)

    for name, res in verify_tau(taus, params, eps):
        rec.add(f"tau-{name}", res)

    def eigenvectors():
        return _worst(*(eigen_residual(
            taus, [sov_eigenvector(tau, basis, eps, side) for tau in taus],
            params, side) for side in ("right", "left")))
    rec.guard("sov-eigenvectors", eigenvectors)

    def inhomogeneous_tq():
        return _worst(*(solve_tq(tau, params, eps, "inhomogeneous").residual
                        for tau in taus))
    rec.guard("inhom-tq", inhomogeneous_tq)

    def homogeneous_tq():
        cpar = constrain_boundary(params.N, eps, params)
        if abs(f_frak(params.N, eps, cpar)) > 1e-10:
            return float("inf")
        return _worst(*(solve_tq(tau, cpar, eps, "homogeneous").residual
                        for tau in brute_spectrum(cpar)))
    rec.guard("hom-tq-constrained", homogeneous_tq)
    return rec.records


def suite_scalarprod(config: RunConfig) -> list:
    params, gauge = _setup(config)
    rec = _Recorder("scalarprod", config.seed, params, config.tol("scalarprod"))
    rng = rng_for(config.seed, "scalarprod")
    basis = SovBasis(params, gauge)
    N = params.N
    e0, e1 = EPS_CHOICES

    def poly_of(total, sign):
        roots = tuple(rng.uniform(0.4, 1.3, total)
                      + 1j * sign * rng.uniform(0.3, 0.9, total))
        return TrigPoly(roots=roots)

    for offset in (-2, 0, 2):
        total = N + offset
        if total < 1:
            continue
        nq = total // 2
        q = poly_of(nq, +1)
        p = poly_of(total - nq, -1)
        for eps_q, eps_p, cls in ((e0, e0, "same"), (e0, e1, "mixed"),
                                  (e0, e0.flipped(), "opposite")):
            qs = SeparateStateSpec(q, eps_q, "left")
            ps = SeparateStateSpec(p, eps_p, "right")

            def fourway(qs=qs, ps=ps):
                d = sp_direct(qs, ps, basis)
                s = sp_sov(qs, ps, params, gauge)
                t, flag = sp_thm52(qs, ps, params, gauge)
                if flag:
                    # structurally zero: measure against the contraction scale
                    left = separate_state(
                        SeparateStateSpec(qs.poly, qs.eps, "left"), basis)
                    right = separate_state(ps, basis)
                    scale = np.linalg.norm(left) * np.linalg.norm(right)
                    return abs(d) / max(scale, 1e-300)
                return _worst(abs(s - d), abs(t - d)) / abs(d)
            rec.guard(f"fourway-{cls}-n{total}", fourway)

    def aset_check():
        return _worst(*(aset_ratio_residual(build_aset(e0, ep, params), e0, ep, params)
                        for ep in (e0, e1, e0.flipped())))
    rec.guard("aset-ratio", aset_check, 1e-11)

    def atilde_independence():
        q, p = poly_of(max(1, N // 2), +1), poly_of(N - max(1, N // 2), -1)
        qs = SeparateStateSpec(q, e0, "left")
        ps = SeparateStateSpec(p, e0.flipped(), "right")
        t1, _ = sp_thm52(qs, ps, params, gauge, a_tilde=0.5 + 1j / 3)
        t2, _ = sp_thm52(qs, ps, params, gauge, a_tilde=0.85 - 0.22j)
        return abs(t1 - t2) / max(abs(t1), 1e-300)
    rec.guard("atilde-independence", atilde_independence, 1e-9)

    def onshell_suite():
        cpar = constrain_boundary(N, e0, params)
        cgauge = _gauge(cpar)
        cbasis = SovBasis(cpar, cgauge)
        for tau in brute_spectrum(cpar):
            sol = solve_tq(tau, cpar, e0, "homogeneous")
            if sol.residual < 1e-8 and sol.q.degree >= 1:
                roots = onshell_roots(sol.q.roots, e0, cpar)
                break
        else:
            raise ValueError("no eigenvalue has a homogeneous T-Q solution with a root "
                             "and residual below 1e-8")
        n = len(roots)
        p = poly_of(n, -1)
        qs = SeparateStateSpec(TrigPoly(roots=tuple(roots)), e0, "left")
        # the dense oracle's ungauge solve has no clongdouble kernel
        qd = SeparateStateSpec(TrigPoly(roots=tuple(complex(r) for r in roots)), e0, "left")
        d = sp_direct(qd, SeparateStateSpec(p, e0, "right"), cbasis)
        r1 = abs(sp_slavnov(qs, SeparateStateSpec(p, e0, "right"), cpar, cgauge) - d) / abs(d)
        dqq = sp_direct(qd, SeparateStateSpec(qd.poly, e0, "right"), cbasis)
        r2 = abs(gaudin_norm(qs, cpar, cgauge) - dqq) / abs(dqq)
        p_big = poly_of(n + 1, -1)
        d3 = sp_direct(qd, SeparateStateSpec(p_big, e0, "right"), cbasis)
        r3 = abs(sp_slavnov_gen(qs, SeparateStateSpec(p_big, e0, "right"),
                                cpar, cgauge) - d3) / abs(d3)
        return _worst(r1, r2, r3)
    rec.guard("slavnov-gaudin-onshell", onshell_suite, 1e-7)
    return rec.records


def suite_identities(config: RunConfig) -> list:
    params = config.model()
    rec = _Recorder("identities", config.seed, params, config.tol("identities"))
    eta = complex(params.eta)
    count = config.identity_instances

    d_cases = ((1, 4, 3, 3), (2, 4, 2, 4), (3, 2, 4, 2), (4, 4, 4, 2))
    for variant, na, nx, nz in d_cases:
        rng = rng_for(config.seed, "identities", "D", variant)

        def run_d(variant=variant, na=na, nx=nx, nz=nz, rng=rng):
            worst = 0.0
            for _ in range(count):
                a = list(rng.uniform(0.25, 1.2, na) + 1j * rng.uniform(-0.4, 0.4, na))
                x = generic_point_set(rng, nx, eta)
                z = generic_point_set(rng, nz, eta, others=x)
                d, _, _ = check_identity_D(variant, a, x, z, eta)
                worst = _worst(worst, d)
            return worst
        rec.guard(f"identity-D{variant}", run_d)

    for variant, l1, l2 in ((1, 3, 3), (2, 3, 3), (3, 2, 4)):
        rng = rng_for(config.seed, "identities", "E", variant)

        def run_e(variant=variant, l1=l1, l2=l2, rng=rng):
            worst = 0.0
            for _ in range(count):
                x = generic_point_set(rng, l1, eta)
                y = generic_point_set(rng, l2, eta, others=x)
                if variant == 1:
                    f = onshell_handle_family(rng, x, eta)
                else:
                    f = random_fn_handle(rng, eta)
                g = balanced_g_handle(rng, f, x, eta)
                d, _ = check_identity_E(variant, f, g, x, y, eta)
                worst = _worst(worst, d)
            return worst
        rec.guard(f"identity-E{variant}", run_e)
    return rec.records


SUITE_FUNCTIONS = {
    "lattice": suite_lattice,
    "gauge": suite_gauge,
    "sovbasis": suite_sovbasis,
    "spectrum": suite_spectrum,
    "scalarprod": suite_scalarprod,
    "identities": suite_identities,
}


def run_suite(config: RunConfig) -> VerificationReport:
    """Run the selected suites in dependency order."""
    report = VerificationReport()
    for name in SUITE_ORDER:
        if name in config.suites:
            report.extend(SUITE_FUNCTIONS[name](config))
    return report


def homog_sweep(config: RunConfig, epsilons=(1e-1, 1e-2, 1e-3)):
    """Scalar products along xi_j = eps * j, with the regularity comparison.

    Each row carries the exchanged-representation value, its deviation from
    the extended-precision SoV determinant (``mpref.sp_sov_mp``), and the
    conditioning estimate of the raw SoV determinant matrix.  A row whose
    referee raises has rel_diff NaN and the exception in ``error``.
    """
    from .mpref import sp_sov_mp

    base = config.model()
    gauge = _gauge(base)
    rng = rng_for(config.seed, "homog")
    N = base.N
    e0 = EPS_CHOICES[0]
    nq = max(1, N // 2)
    q = TrigPoly(roots=tuple(rng.uniform(0.4, 1.3, nq) + 1j * rng.uniform(0.3, 0.9, nq)))
    p = TrigPoly(roots=tuple(rng.uniform(0.4, 1.3, N - nq)
                             - 1j * rng.uniform(0.3, 0.9, N - nq)))
    qs = SeparateStateSpec(q, e0, "left")
    ps = SeparateStateSpec(p, e0, "right")

    rows = []
    for epsv in epsilons:
        params = base.with_xi(tuple(epsv * (j + 1) for j in range(N)))
        flagged = not params.is_generic()
        t_val, _ = sp_thm52(qs, ps, params, gauge)
        rel, error = float("nan"), None
        try:
            oracle = sp_sov_mp(qs, ps, params, gauge)
            rel = abs(t_val - oracle) / abs(oracle)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__

        # conditioning of the raw SoV determinant matrix
        cond = float(np.linalg.cond(sov_matrix(qs, ps, params)))
        rows.append({"epsilon": float(epsv), "value": t_val, "rel_diff": rel,
                     "sov_conditioning": cond, "flagged": flagged, "error": error})
    return rows
