import numpy as np
import pytest

from openxxz.trig import random_params
from openxxz.gauge import solve_gauge
from openxxz.sov import ADMISSIBLE_EPS, EpsChoice, SovBasis
from openxxz.spectrum import (
    QSolution,
    big_f_eps,
    brute_spectrum,
    constrain_boundary,
    eigen_residual,
    f_frak,
    q_discrete,
    solve_tq,
    sov_eigenvector,
    tau_leading_coeff,
    tq_ratio,
    verify_tau,
)

EPS0 = EpsChoice(1, 1, 1, 1)


@pytest.fixture(scope="module")
def setup3():
    params = random_params(3, seed=1)
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    return params, gauge, brute_spectrum(params)


def test_spectrum_count_and_simplicity(setup3):
    params, _, taus = setup3
    assert len(taus) == 2 ** params.N
    vals = np.array([t(0.5 + 0.2j) for t in taus])
    gaps = np.abs(vals[:, None] - vals[None, :]) + np.eye(len(vals))
    assert gaps.min() > 1e-9 * np.abs(vals).max()


def test_single_site_spectrum_matches_direct():
    params = random_params(1, seed=21)
    from openxxz.lattice import transfer
    taus = brute_spectrum(params)
    lam = 0.83 - 0.19j
    direct = np.sort_complex(np.linalg.eigvals(transfer(lam, params)))
    interp = np.sort_complex(np.array([t(lam) for t in taus]))
    assert np.max(np.abs(direct - interp)) < 1e-10 * np.max(np.abs(direct))


def test_verify_tau_all_items(setup3):
    params, _, taus = setup3
    for tau in taus:
        for name, res in verify_tau(tau, params, EPS0):
            assert res < 1e-8, f"{name}: {res}"


def test_verify_tau_detects_perturbation(setup3):
    from dataclasses import replace
    params, _, taus = setup3
    coeffs = list(taus[0].coeffs)
    coeffs[1] *= 1 + 1e-3
    bad = replace(taus[0], coeffs=tuple(coeffs))
    worst = dict(verify_tau(bad, params, EPS0))
    assert worst["quadratic"] > 1e-6


def test_q_discrete_two_ratio_forms(setup3):
    params, _, taus = setup3
    for tau in taus[:4]:
        qd = q_discrete(tau, params, EPS0)
        for n in range(1, params.N + 1):
            assert qd[(n, 0)] == 1


def test_sov_eigenvectors(setup3):
    params, gauge, taus = setup3
    basis = SovBasis(params, gauge)
    for tau in taus:
        vr = sov_eigenvector(tau, params, gauge, EPS0, "right", basis)
        assert eigen_residual([tau], [vr], params, "right") < 1e-8
        vl = sov_eigenvector(tau, params, gauge, EPS0, "left", basis)
        assert eigen_residual([tau], [vl], params, "left") < 1e-8
        cosang = abs(np.vdot(tau.eigvec_right, vr)) \
            / (np.linalg.norm(tau.eigvec_right) * np.linalg.norm(vr))
        assert np.sqrt(max(0.0, 1 - cosang ** 2)) < 1e-7


def test_eigenvector_biorthogonality(setup3):
    params, gauge, taus = setup3
    basis = SovBasis(params, gauge)
    rights = [sov_eigenvector(t, params, gauge, EPS0, "right", basis) for t in taus]
    lefts = [sov_eigenvector(t, params, gauge, EPS0, "left", basis) for t in taus]
    for i, l in enumerate(lefts):
        for j, r in enumerate(rights):
            val = l @ r
            if i != j:
                assert abs(val) < 1e-8 * np.linalg.norm(l) * np.linalg.norm(r)


def test_q_rescaling_changes_eigenvector_by_scalar(setup3):
    params, gauge, taus = setup3
    basis = SovBasis(params, gauge)
    tau = taus[1]
    qd = q_discrete(tau, params, EPS0)
    v1 = sov_eigenvector(tau, params, gauge, EPS0, "right", basis, qvals=qd)
    qd2 = {k: 2.5 * v if k[0] == 2 else v for k, v in qd.items()}
    v2 = sov_eigenvector(tau, params, gauge, EPS0, "right", basis, qvals=qd2)
    ratios = v2[np.abs(v1) > 1e-8] / v1[np.abs(v1) > 1e-8]
    assert np.max(np.abs(ratios - ratios[0])) < 1e-9 * abs(ratios[0])


def test_f_eps_zero_pattern(setup3):
    params, _, _ = setup3
    for n in range(1, params.N + 1):
        for h in (0, 1):
            assert abs(big_f_eps(params.xi_shifted(n, h), EPS0, params)) < 1e-10
    assert abs(big_f_eps(params.eta / 2, EPS0, params)) < 1e-10
    assert abs(big_f_eps(-params.eta / 2, EPS0, params)) < 1e-10


def test_constrain_boundary(setup3):
    params, _, _ = setup3
    cpar = constrain_boundary(params.N, EPS0, params)
    assert abs(f_frak(params.N, EPS0, cpar)) < 1e-12
    for r in range(params.N):
        assert abs(f_frak(r, EPS0, cpar)) > 1e-6


def test_inhomogeneous_tq_every_tau(setup3):
    params, _, taus = setup3
    for tau in taus:
        sol = solve_tq(tau, params, EPS0, "inhomogeneous")
        assert sol.q.degree == params.N
        assert sol.residual < 1e-8
        assert sol.singular_ratio > 1e-8
        assert sol.q.admissible_for(params, delta=1e-6)
        # ratio reconstruction at random points
        for lam in (0.44 + 0.21j, 0.91 - 0.37j):
            val = tq_ratio(lam, sol.q, EPS0, params) \
                + big_f_eps(lam, EPS0, params) / sol.q(lam)
            assert abs(val - tau(lam)) < 1e-8 * abs(tau(lam))


def test_homogeneous_requires_constraint(setup3):
    params, _, taus = setup3
    with pytest.raises(ValueError):
        solve_tq(taus[0], params, EPS0, "homogeneous")


def test_homogeneous_tq_constrained_chain(setup3):
    params, _, _ = setup3
    cpar = constrain_boundary(params.N, EPS0, params)
    for tau in brute_spectrum(cpar):
        sol = solve_tq(tau, cpar, EPS0, "homogeneous")
        assert sol.residual < 1e-8
        for lam in (0.52 + 0.11j, 1.02 - 0.3j):
            val = tq_ratio(lam, sol.q, EPS0, cpar)
            assert abs(val - tau(lam)) < 1e-8 * abs(tau(lam))


def test_partial_homogeneous_case():
    # f^(M) = 0 with M < N: each tau solved at degree M or inhomogeneously at N
    params = random_params(3, seed=9)
    m = 2
    cpar = constrain_boundary(m, EPS0, params)
    assert abs(f_frak(m, EPS0, cpar)) < 1e-12
    n_hom = 0
    for tau in brute_spectrum(cpar):
        sol = solve_tq(tau, cpar, EPS0, "homogeneous", degree=m)
        if sol.residual < 1e-8:
            n_hom += 1
        else:
            sol = solve_tq(tau, cpar, EPS0, "inhomogeneous")
            assert sol.residual < 1e-8
    assert 0 < n_hom < 2 ** cpar.N


def test_spectral_equivalence_brute_vs_interp(setup3):
    params, _, taus = setup3
    from openxxz.lattice import transfer
    for lam0 in (0.61 + 0.28j, 1.13 - 0.08j):
        direct = np.sort_complex(np.linalg.eigvals(transfer(lam0, params)))
        interp = np.sort_complex(np.array([t(lam0) for t in taus]))
        assert np.max(np.abs(direct - interp)) < 1e-9 * np.max(np.abs(direct))
