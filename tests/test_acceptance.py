"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
the captured output); the assertions carry the same bounds.
"""

import time

import numpy as np
import pytest

from openxxz.trig import TrigPoly, random_params, rng_for, vdm_hat
from openxxz.lattice import (
    hamiltonian,
    qdet_m,
    rel_residual,
    traceless,
    transfer,
)
from openxxz.gauge import (
    gauge_is_safe,
    s_chain,
    solve_gauge,
    t_sos,
    verify_sos_algebra,
    vertex_irf2_residual,
    vertex_irf_residual,
)
from openxxz.sov import (
    EpsChoice,
    SovBasis,
    all_h,
    gram_matrix,
    h_index,
    identity_resolution_residual,
    sov_norm_const,
)
from openxxz.spectrum import (
    brute_spectrum,
    constrain_boundary,
    eigen_residual,
    f_frak,
    solve_tq,
    sov_eigenvector,
    verify_tau,
)
from openxxz.scalar import (
    SeparateStateSpec,
    gaudin_norm,
    onshell_roots,
    separate_state,
    sp_direct,
    sp_slavnov,
    sp_slavnov_gen,
    sp_sov,
    sp_thm52,
)
from openxxz.detid import (
    balanced_g_handle,
    check_identity_D,
    check_identity_E,
    generic_point_set,
    onshell_handle_family,
    random_fn_handle,
)

E0 = EpsChoice(1, 1, 1, 1)
E1 = EpsChoice(1, -1, -1, 1)


def report(number, name, worst, bound, ok):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:2d} ({name}): "
          f"worst residual {worst:.3e} vs bound {bound:.0e}")


def rand_lam(rng):
    return complex(rng.uniform(0.15, 1.25), rng.uniform(-0.45, 0.45))


def onshell_setup(n_sites, seed):
    params = constrain_boundary(n_sites, E0, random_params(n_sites, seed=seed))
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    if not gauge_is_safe(gauge, params):
        gauge = solve_gauge(params.boundary_plus, -1, -1, params.eta)
    basis = SovBasis(params, gauge)
    for tau in brute_spectrum(params):
        sol = solve_tq(tau, params, E0, "homogeneous")
        if sol.residual < 1e-8 and sol.q.degree >= 2:
            roots = onshell_roots(sol.q.roots, E0, params)
            return params, gauge, basis, tau, TrigPoly(roots=tuple(roots))
    raise RuntimeError("no on-shell solution found")


def rounded(poly):
    """The polynomial on its roots rounded to complex, for the dense states."""
    return TrigPoly(roots=tuple(complex(r) for r in poly.roots))


def test_criterion_01_commuting_family():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4):
        params = random_params(n, seed=100 + n)
        rng = rng_for(1, "acc1", n)
        for _ in range(20):
            lam, mu = rand_lam(rng), rand_lam(rng)
            t1, t2 = transfer(lam, params), transfer(mu, params)
            worst = max(worst, np.linalg.norm(t1 @ t2 - t2 @ t1)
                        / (np.linalg.norm(t1) * np.linalg.norm(t2)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-11 and elapsed < 5.0
    report(1, "commuting family", worst, 1e-11, ok)
    assert worst < 1e-11
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_02_special_values_and_asymptotics():
    params = random_params(3, seed=1)
    eta = params.eta
    dim = 2 ** params.N
    bp, bm = params.boundary_plus, params.boundary_minus
    v1 = 2 * (-1) ** params.N * np.cosh(eta) * qdet_m(0, params)
    r1 = rel_residual(transfer(eta / 2, params), v1 * np.eye(dim))
    v2 = -2 * np.cosh(eta) * qdet_m(1j * np.pi / 2, params) \
        / (np.tanh(bp.sigma) * np.tanh(bm.sigma))
    r2 = rel_residual(transfer(eta / 2 + 1j * np.pi / 2, params), v2 * np.eye(dim))
    coef = bp.kappa * bm.kappa * np.cosh(bp.tau - bm.tau) \
        / (2 ** (2 * params.N + 1) * np.sinh(bp.sigma) * np.sinh(bm.sigma))
    r3 = max(rel_residual(transfer(lam, params) * np.exp(-2 * (params.N + 2) * abs(lam)),
                          coef * np.eye(dim)) for lam in (25.0, -25.0))
    ok = max(r1, r2) < 1e-12 and r3 < 1e-6
    report(2, "transfer special values", max(r1, r2, r3), 1e-6, ok)
    assert max(r1, r2) < 1e-12
    assert r3 < 1e-6


def test_criterion_03_hamiltonian():
    params = random_params(3, seed=2).with_xi((0, 0, 0))
    res = rel_residual(traceless(hamiltonian(params, "direct")),
                       traceless(hamiltonian(params, "from_transfer")))
    report(3, "hamiltonian traceless", res, 1e-7, res < 1e-7)
    assert res < 1e-7


def test_criterion_04_gauge_layer():
    rng = rng_for(4, "acc4")
    eta = 0.71 + 0.13j
    r_virf = max(max(vertex_irf_residual(rand_lam(rng), rand_lam(rng),
                                         complex(rng.uniform(0.4, 1.2),
                                                 rng.uniform(-0.3, 0.3)),
                                         0.3 - 0.2j, eta),
                     vertex_irf2_residual(rand_lam(rng), rand_lam(rng),
                                          complex(rng.uniform(0.4, 1.2),
                                                  rng.uniform(-0.3, 0.3)),
                                          0.3 - 0.2j, eta))
                 for _ in range(10))
    r_conj = 0.0
    for n in (3, 5):
        params = random_params(n, seed=110 + n)
        gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
        lam = rand_lam(rng)
        s = s_chain(params, gauge.beta, gauge.alpha)
        r_conj = max(r_conj, rel_residual(
            s @ t_sos(lam, params, gauge) @ np.linalg.inv(s),
            transfer(lam, params)))
    params = random_params(3, seed=1)
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    r_alg = max(res for _, res in verify_sos_algebra(params, gauge, seed=4))
    ok = r_virf < 1e-12 and r_conj < 1e-10 and r_alg < 1e-9
    report(4, "gauge layer", max(r_virf, r_conj, r_alg), 1e-9, ok)
    assert r_virf < 1e-12
    assert r_conj < 1e-10
    assert r_alg < 1e-9


def test_criterion_05_sov_basis():
    worst_orth = worst_id = 0.0
    for n in (3, 5):
        params = random_params(n, seed=120 + n)
        gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
        basis = SovBasis(params, gauge)
        g = gram_matrix(basis, E0)
        norm = basis.norm_const(E0)
        ln = np.linalg.norm(basis.left_states(E0), axis=1)
        rn = np.linalg.norm(basis.right_states(E0), axis=1)
        for h in all_h(n):
            i = h_index(h)
            expect = norm * np.exp(2 * sum(hj * xj for hj, xj in zip(h, params.xi))) \
                / vdm_hat([params.xi_shifted(k + 1, h[k]) for k in range(n)])
            worst_orth = max(worst_orth, abs(g[i, i] - expect) / abs(expect))
            for j in range(2 ** n):
                if j != i:
                    worst_orth = max(worst_orth, abs(g[i, j]) / (ln[i] * rn[j]))
        worst_id = max(worst_id, identity_resolution_residual(basis, E0))
    ok = worst_orth < 1e-9 and worst_id < 1e-9
    report(5, "sov basis", max(worst_orth, worst_id), 1e-9, ok)
    assert worst_orth < 1e-9
    assert worst_id < 1e-9


def test_criterion_06_spectrum():
    t0 = time.perf_counter()
    params = random_params(4, seed=2)
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    basis = SovBasis(params, gauge)
    taus = brute_spectrum(params)
    assert len(taus) == 16
    worst = 0.0
    for tau in taus:
        for _, res in verify_tau([tau], params, E0):
            worst = max(worst, res)
        for side in ("right", "left"):
            vec = sov_eigenvector(tau, basis, E0, side)
            worst = max(worst, eigen_residual([tau], [vec], params, side))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 120
    report(6, "spectrum + eigenvectors", worst, 1e-8, ok)
    assert worst < 1e-8
    assert elapsed < 120, f"took {elapsed:.1f}s"


def test_criterion_07_tq_equations():
    params = random_params(3, seed=1)
    worst_inhom = max(solve_tq(tau, params, E0, "inhomogeneous").residual
                      for tau in brute_spectrum(params))
    cpar = constrain_boundary(3, E0, params)
    assert abs(f_frak(3, E0, cpar)) < 1e-12
    worst_hom = max(solve_tq(tau, cpar, E0, "homogeneous").residual
                    for tau in brute_spectrum(cpar))
    worst = max(worst_inhom, worst_hom)
    report(7, "T-Q equations", worst, 1e-8, worst < 1e-8)
    assert worst < 1e-8


def test_criterion_08_four_way_scalar_products():
    worst = {3: 0.0, 4: 0.0, 5: 0.0}
    vanish_ok = True
    for n in (3, 4, 5):
        params = random_params(n, seed=130 + n)
        gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
        basis = SovBasis(params, gauge)
        rng = rng_for(8, "acc8", n)
        for offset in (-2, 0, 2):
            total = n + offset
            if total < 1:
                continue
            nq = total // 2
            q = TrigPoly(roots=tuple(rng.uniform(0.4, 1.3, nq)
                                     + 1j * rng.uniform(0.3, 0.9, nq)))
            p = TrigPoly(roots=tuple(rng.uniform(0.4, 1.3, total - nq)
                                     - 1j * rng.uniform(0.3, 0.9, total - nq)))
            for eps_q, eps_p in ((E0, E0), (E0, E1), (E0, E0.flipped())):
                qs = SeparateStateSpec(q, eps_q, "left")
                ps = SeparateStateSpec(p, eps_p, "right")
                d = sp_direct(qs, ps, basis)
                s = sp_sov(qs, ps, params, gauge)
                t, flag = sp_thm52(qs, ps, params, gauge)
                if flag:
                    scale = abs(sp_direct(qs, SeparateStateSpec(q, eps_q, "right"),
                                          basis))
                    vanish_ok = vanish_ok and abs(d) < 1e-9 * max(scale, 1e-300) \
                        and t == 0
                else:
                    worst[n] = max(worst[n], abs(s - d) / abs(d), abs(t - d) / abs(d))
    ok = worst[3] < 1e-8 and worst[4] < 1e-8 and worst[5] < 1e-7 and vanish_ok
    report(8, "four-way scalar products", max(worst.values()), 1e-7, ok)
    assert worst[3] < 1e-8 and worst[4] < 1e-8
    assert worst[5] < 1e-7
    assert vanish_ok


def test_criterion_09_slavnov_gaudin():
    params, gauge, basis, tau, qpoly = onshell_setup(4, seed=2)
    n = qpoly.degree
    rng = rng_for(9, "acc9")
    p = TrigPoly(roots=tuple(rng.uniform(0.4, 1.3, n) - 1j * rng.uniform(0.3, 0.9, n)))
    qs = SeparateStateSpec(qpoly, E0, "left")
    # the dense contraction takes the roots rounded to complex
    qd = SeparateStateSpec(rounded(qpoly), E0, "left")
    d = sp_direct(qd, SeparateStateSpec(p, E0, "right"), basis)
    r1 = abs(sp_slavnov(qs, SeparateStateSpec(p, E0, "right"), params, gauge) - d) \
        / abs(d)
    dqq = sp_direct(qd, SeparateStateSpec(qd.poly, E0, "right"), basis)
    r2 = abs(gaudin_norm(qs, params, gauge) - dqq) / abs(dqq)
    p_big = TrigPoly(roots=tuple(rng.uniform(0.4, 1.3, n + 1)
                                 - 1j * rng.uniform(0.3, 0.9, n + 1)))
    d3 = sp_direct(qd, SeparateStateSpec(p_big, E0, "right"), basis)
    r3 = abs(sp_slavnov_gen(qs, SeparateStateSpec(p_big, E0, "right"),
                            params, gauge) - d3) / abs(d3)
    worst = max(r1, r2, r3)
    report(9, "slavnov/gaudin forms", worst, 1e-7, worst < 1e-7)
    assert worst < 1e-7


def test_criterion_10_appendix_identities():
    t0 = time.perf_counter()
    eta = 0.73 + 0.11j
    worst = 0.0
    d_cases = ((1, 4, 3, 3), (2, 4, 2, 4), (3, 2, 5, 2), (4, 4, 5, 2))
    for variant, na, nx, nz in d_cases:
        rng = rng_for(10, "acc10D", variant)
        for _ in range(100):
            a = list(rng.uniform(0.25, 1.2, na) + 1j * rng.uniform(-0.4, 0.4, na))
            x = generic_point_set(rng, nx, eta)
            z = generic_point_set(rng, nz, eta, others=x)
            d, _, _ = check_identity_D(variant, a, x, z, eta)
            worst = max(worst, d)
    for variant, l1, l2 in ((1, 5, 5), (2, 5, 5), (3, 3, 5)):
        rng = rng_for(10, "acc10E", variant)
        for _ in range(100):
            x = generic_point_set(rng, l1, eta)
            y = generic_point_set(rng, l2, eta, others=x)
            f = onshell_handle_family(rng, x, eta) if variant == 1 \
                else random_fn_handle(rng, eta)
            g = balanced_g_handle(rng, f, x, eta)
            d, _ = check_identity_E(variant, f, g, x, y, eta)
            worst = max(worst, d)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 60
    report(10, "appendix identities x100", worst, 1e-9, ok)
    assert worst < 1e-9
    assert elapsed < 60, f"took {elapsed:.1f}s"


def test_criterion_11_homogeneous_sweep():
    from openxxz.suites import RunConfig, homog_sweep

    rows = homog_sweep(RunConfig(n_sites=3, seed=13), (1e-1, 1e-2, 1e-3))
    rel = rows[-1]["rel_diff"]
    conds = [r["sov_conditioning"] for r in rows]
    cauchy = abs(rows[2]["value"] - rows[1]["value"]) \
        < abs(rows[1]["value"] - rows[0]["value"])
    ok = rel < 1e-6 and conds[0] < conds[1] < conds[2] and cauchy
    report(11, "homogeneous-limit sweep", rel, 1e-6, ok)
    assert rel < 1e-6
    assert conds[0] < conds[1] < conds[2]
    assert cauchy


def test_criterion_12_atilde_and_eps_covariance():
    params = random_params(4, seed=2)
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    rng = rng_for(12, "acc12")
    q = TrigPoly(roots=tuple(rng.uniform(0.4, 1.3, 2) + 1j * rng.uniform(0.3, 0.9, 2)))
    p = TrigPoly(roots=tuple(rng.uniform(0.4, 1.3, 2) - 1j * rng.uniform(0.3, 0.9, 2)))
    qs = SeparateStateSpec(q, E0, "left")
    ps = SeparateStateSpec(p, E0.flipped(), "right")
    t1, _ = sp_thm52(qs, ps, params, gauge, a_tilde=0.5 + 1j / 3)
    t2, _ = sp_thm52(qs, ps, params, gauge, a_tilde=0.85 - 0.22j)
    r_atilde = abs(t1 - t2) / abs(t1)

    cpar, cgauge, cbasis, tau, qpoly = onshell_setup(4, seed=2)
    qpoly = rounded(qpoly)
    sol2 = solve_tq(tau, cpar, E1, "inhomogeneous")
    v1 = separate_state(SeparateStateSpec(qpoly, E0, "right"), cbasis)
    v2 = separate_state(SeparateStateSpec(sol2.q, E1, "right"), cbasis)
    from openxxz.trig import bulk_ad

    dprod = 1.0 + 0j
    for r in sol2.q.roots:
        dprod *= bulk_ad(r, cpar)[1] * bulk_ad(-r, cpar)[1]
    for r in qpoly.roots:
        dprod /= bulk_ad(r, cpar)[1] * bulk_ad(-r, cpar)[1]
    nratio = sov_norm_const(cpar, cgauge, E0) / sov_norm_const(cpar, cgauge, E1)
    r_cov = np.max(np.abs(v2 - dprod * nratio * v1)) / np.max(np.abs(v2))
    ok = r_atilde < 1e-9 and r_cov < 1e-8
    report(12, "a-tilde independence / eps covariance", max(r_atilde, r_cov),
           1e-8, ok)
    assert r_atilde < 1e-9
    assert r_cov < 1e-8
