import sys
from collections import Counter

import numpy as np
import pytest

from openxxz import scalar as scalar_mod, sov as sov_mod
from openxxz.trig import TrigPoly, bulk_ad, random_params, rng_for, varsigma, vdm_hat
from openxxz.gauge import solve_gauge
from openxxz.lattice import det_scaled
from openxxz.sov import (ADMISSIBLE_EPS, EpsChoice, SovBasis, a_eps_small, big_a_eps,
                         branch_ratio, gram_const, label_product)
from openxxz.spectrum import (
    brute_spectrum,
    constrain_boundary,
    eigen_residual,
    solve_tq,
)
from openxxz.detid import (VsRational, a_functional_values, correction_column, fbar_j,
                           functional_matrix, x_weights)
from openxxz.suites import _gauge
from openxxz.scalar import (
    DEFAULT_A_TILDE,
    SeparateStateSpec,
    _tq_table,
    aset_ratio_residual,
    bethe_log_residual,
    build_aset,
    f_eps,
    g_eps_handle,
    gamma_prefactor,
    gaudin_matrix,
    gaudin_norm,
    onshell_roots,
    separate_state,
    sp_direct,
    sp_slavnov,
    sp_slavnov_gen,
    sp_sov,
    sp_thm52,
    sov_matrix,
    z_bar,
)
from sov_helpers import bethe_form_state
from tq_helpers import jacobian, slavnov_matrix, tq_ratio

E0 = EpsChoice(1, 1, 1, 1)
E1 = EpsChoice(1, -1, -1, 1)


@pytest.fixture(scope="module")
def chain3():
    params = random_params(3, seed=1)
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    return params, gauge, SovBasis(params, gauge)


@pytest.fixture(scope="module")
def chain4():
    params = random_params(4, seed=2)
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    return params, gauge, SovBasis(params, gauge)


def onshell_chain(N, min_degree=1):
    """Constrained chain of random_params(N, seed=2), the first eigenvalue whose
    homogeneous T-Q solve passes 1e-8 with min_degree roots or more, and its
    Bethe roots refined by onshell_roots (clongdouble)."""
    params = constrain_boundary(N, E0, random_params(N, seed=2))
    for tau in brute_spectrum(params):
        sol = solve_tq(tau, params, E0, "homogeneous")
        if sol.residual < 1e-8 and sol.q.degree >= min_degree:
            return params, tau, onshell_roots(sol.q.roots, E0, params)
    raise RuntimeError("no usable on-shell solution")


def rounded(poly):
    """The polynomial on its roots rounded to complex: the dense states' ungauge
    solve has no clongdouble kernel."""
    return TrigPoly(roots=tuple(complex(r) for r in poly.roots))


@pytest.fixture(scope="module")
def onshell4():
    """Constrained N=4 chain with an on-shell Q refined by Newton."""
    params, tau, roots = onshell_chain(4, min_degree=2)
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    return params, gauge, SovBasis(params, gauge), tau, TrigPoly(roots=tuple(roots))


def poly_pair(total, rng):
    nq = total // 2
    np_ = total - nq
    qs = tuple(rng.uniform(0.4, 1.3, nq) + 1j * rng.uniform(0.3, 0.9, nq))
    ps = tuple(rng.uniform(0.4, 1.3, np_) + 1j * rng.uniform(-0.9, -0.3, np_))
    return TrigPoly(roots=qs), TrigPoly(roots=ps)


def test_separate_left_forms_agree(chain3):
    _, _, basis = chain3
    q = TrigPoly(roots=(0.55 + 0.62j, 1.3 - 0.45j))
    spec = SeparateStateSpec(q, E0, "left")
    v1 = separate_state(spec, basis)
    v2 = separate_state(spec, basis, use_bis=True)
    assert np.max(np.abs(v1 - v2)) < 1e-10 * np.max(np.abs(v1))


def test_onshell_separate_state_is_eigenvector(onshell4):
    params, gauge, basis, tau, qpoly = onshell4
    qpoly = rounded(qpoly)
    vec = separate_state(SeparateStateSpec(qpoly, E0, "right"), basis)
    assert eigen_residual([tau], [vec], params, "right") < 1e-8
    lvec = separate_state(SeparateStateSpec(qpoly, E0, "left"), basis)
    assert eigen_residual([tau], [lvec], params, "left") < 1e-8


def test_bethe_form_states(chain3):
    _, _, basis = chain3
    for side in ("right", "left"):
        for roots in [(0.55 + 0.62j,), (0.55 + 0.62j, 1.3 - 0.45j),
                      (0.55 + 0.62j, 1.3 - 0.45j, 0.8 + 0.3j)]:
            spec = SeparateStateSpec(TrigPoly(roots=roots), E0, side)
            v1 = separate_state(spec, basis)
            v2 = bethe_form_state(spec, basis)
            assert np.max(np.abs(v1 - v2)) < 1e-9 * np.max(np.abs(v1))


def test_aset_classes(chain3):
    params, _, _ = chain3
    for eps, eps_p, n_expected in ((E0, E0, 4), (E0, E1, 2),
                                   (E0, E0.flipped(), 2), (E1, E1, 4)):
        aset = build_aset(eps, eps_p, params)
        assert aset.n_a == n_expected
        assert aset_ratio_residual(aset, eps, eps_p, params) < 1e-11


def test_aset_mixed_sign_ratio_is_one(chain3):
    params, _, _ = chain3
    aset = build_aset(E0, E0.flipped(), params, a_tilde=0.77 - 0.21j)
    for xi in params.xi:
        prod = np.prod([np.sinh(xi + a) / np.sinh(xi - a) for a in aset.values])
        assert abs(prod - 1) < 1e-12


def test_aset_sum_matches_f_frak_combination(chain4):
    params, _, _ = chain4
    bp, bm = params.boundary_plus, params.boundary_minus
    aset = build_aset(E0, E0, params)
    expected = bp.alpha + bm.alpha - bp.beta + bm.beta + 1j * np.pi
    assert aset.total == pytest.approx(expected)


def test_f_eps_equals_ratio_form(chain3):
    # f(lam) = big_a_eps(-lam)/sinh(2 lam - eta) in the matching-branch case
    params, _, _ = chain3
    aset = build_aset(E0, E0, params)
    for lam in (0.63 + 0.27j, 1.11 - 0.35j):
        direct = f_eps(lam, aset, params)
        ratio = big_a_eps(-lam, E0, params) / np.sinh(2 * lam - params.eta)
        assert abs(direct - ratio) < 1e-11 * abs(ratio)


def test_g_eps_zero_on_grid(chain3):
    params, _, _ = chain3
    aset = build_aset(E0, E0, params)
    g = g_eps_handle(params.N, aset, params)
    for n in range(1, params.N + 1):
        for h in (0, 1):
            assert abs(g(params.xi_shifted(n, h))) < 1e-10


@pytest.mark.parametrize("N", [3, 4])
def test_g_eps_degree_cancellation(N):
    # fbar^(L) has degree N + L in varsigma; g^(L) cancels its top coefficient
    params = random_params(N, seed=1)
    aset = build_aset(E0, E0, params)
    radius = 2.0 + max(abs(varsigma(x)) for x in params.xi)
    for L in range(1, N):
        fb = fbar_j(lambda lam: f_eps(lam, aset, params), L, params.eta)
        g = g_eps_handle(L, aset, params)
        alone = VsRational.from_function(fb, N + L, (), radius)
        both = VsRational.from_function(lambda lam: fb(lam) + g(lam), 2 * N, (), radius)
        assert abs(both.coeff(N + L)) < 1e-9 * abs(alone.coeff(N + L))


@pytest.mark.parametrize("offset", [-2, 0, 2])
def test_four_way_agreement_classes(chain4, offset):
    params, gauge, basis = chain4
    rng = rng_for(5, "fourway", offset)
    total = params.N + offset
    q, p = poly_pair(total, rng)
    for eps, eps_p in ((E0, E0), (E0, E1), (E1, E0), (E0, E0.flipped())):
        qs = SeparateStateSpec(q, eps, "left")
        ps = SeparateStateSpec(p, eps_p, "right")
        d = sp_direct(qs, ps, basis)
        s = sp_sov(qs, ps, params, gauge)
        t, flag = sp_thm52(qs, ps, params, gauge)
        if flag:
            scale = abs(sp_direct(SeparateStateSpec(q, eps, "left"),
                                  SeparateStateSpec(q, eps, "right"), basis))
            assert abs(d) < 1e-9 * max(scale, 1e-300)
            assert t == 0
        else:
            assert abs(s - d) < 1e-8 * abs(d)
            assert abs(t - d) < 1e-8 * abs(d)


def test_four_way_n5():
    params = random_params(5, seed=7)
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    basis = SovBasis(params, gauge)
    rng = rng_for(6, "n5")
    for total in (3, 5, 7):
        q, p = poly_pair(total, rng)
        qs = SeparateStateSpec(q, E0, "left")
        ps = SeparateStateSpec(p, E0, "right")
        d = sp_direct(qs, ps, basis)
        s = sp_sov(qs, ps, params, gauge)
        t, _ = sp_thm52(qs, ps, params, gauge)
        assert abs(s - d) < 1e-7 * abs(d)
        assert abs(t - d) < 1e-7 * abs(d)


def test_sp_direct_matches_determinants_seed9():
    # the model on which the dense contraction lost digits while the left SoV
    # states were built from chain-gauge conjugated blocks
    params = random_params(5, seed=9)
    gauge = _gauge(params)
    basis = SovBasis(params, gauge)
    rng = rng_for(9, "sp-direct-seed9")
    worst = 0.0
    for _ in range(6):
        for total in (3, 5, 7):
            q, p = poly_pair(total, rng)
            for eps_p in (E0, E1):
                qs = SeparateStateSpec(q, E0, "left")
                ps = SeparateStateSpec(p, eps_p, "right")
                d = sp_direct(qs, ps, basis)
                s = sp_sov(qs, ps, params, gauge)
                t, flag = sp_thm52(qs, ps, params, gauge)
                assert not flag
                worst = max(worst, abs(s - d) / abs(d), abs(t - d) / abs(d))
    assert worst < 1e-8


@pytest.mark.parametrize("N", [2, 3])
def test_sp_thm52_degree_zero(N):
    # two constant states: on matching branches the level-0 correction has no
    # column to enter, so the exchanged form must refuse rather than return a
    # wrong value; on other branches it meets sp_sov or is structurally zero
    one = TrigPoly(roots=())
    for seed in range(3):
        params = random_params(N, seed=seed)
        gauge = _gauge(params)
        for eps in ADMISSIBLE_EPS:
            for eps_p in ADMISSIBLE_EPS:
                qs = SeparateStateSpec(one, eps, "left")
                ps = SeparateStateSpec(one, eps_p, "right")
                if eps == eps_p:
                    with pytest.raises(ValueError, match="total-degree-0"):
                        sp_thm52(qs, ps, params, gauge)
                    continue
                t, flag = sp_thm52(qs, ps, params, gauge)
                s = sp_sov(qs, ps, params, gauge)
                assert t == 0 if flag else abs(t - s) < 1e-10 * abs(s)


def test_a_tilde_independence(chain4):
    params, gauge, _ = chain4
    rng = rng_for(7, "atilde")
    q, p = poly_pair(params.N, rng)
    qs = SeparateStateSpec(q, E0, "left")
    ps = SeparateStateSpec(p, E0.flipped(), "right")
    t1, _ = sp_thm52(qs, ps, params, gauge, a_tilde=0.5 + 1j / 3)
    t2, _ = sp_thm52(qs, ps, params, gauge, a_tilde=0.9 - 0.2j)
    assert abs(t1 - t2) < 1e-9 * abs(t1)


def test_sp_bilinearity(chain3):
    params, gauge, basis = chain3
    q = TrigPoly(roots=(0.55 + 0.62j,))
    p = TrigPoly(roots=(0.72 + 0.81j, 1.21 - 0.62j))
    qs = SeparateStateSpec(q, E0, "left")
    ps = SeparateStateSpec(p, E0, "right")
    left = separate_state(qs, basis)
    right = separate_state(ps, basis)
    assert sp_direct(qs, ps, basis) == pytest.approx(complex(left @ right))


def test_sp_sov_permutation_invariance(chain3):
    params, gauge, basis = chain3
    rng = rng_for(8, "perm")
    q, p = poly_pair(3, rng)
    qs = SeparateStateSpec(q, E0, "left")
    ps = SeparateStateSpec(p, E1, "right")
    v1 = sp_sov(qs, ps, params, gauge)
    perm = params.with_xi((params.xi[1], params.xi[2], params.xi[0]))
    gauge_p = solve_gauge(perm.boundary_plus, 1, 1, perm.eta)
    v2 = sp_sov(qs, ps, perm, gauge_p)
    assert abs(v1 - v2) < 1e-9 * abs(v1)


def test_slavnov_matrix_finite_differences(onshell4):
    params, gauge, basis, tau, qpoly = onshell4
    q_roots = list(qpoly.roots)
    n = len(q_roots)
    p_roots = [0.52 + 0.33j, 0.91 - 0.41j, 1.21 + 0.52j, 0.66 - 0.2j][:n]
    sm = slavnov_matrix(p_roots, q_roots, E0, params)
    h = 1e-6
    for k in range(n):
        for j in range(n):
            rp = list(q_roots)
            rp[k] += h
            rm = list(q_roots)
            rm[k] -= h
            fd = (tq_ratio(p_roots[j], TrigPoly(roots=rp), E0, params)
                  - tq_ratio(p_roots[j], TrigPoly(roots=rm), E0, params)) / (2 * h)
            assert abs(fd - sm[j, k]) < 1e-6 * max(abs(sm[j, k]), 1.0)


def test_slavnov_single_root():
    # partial constraint at degree 1 gives a one-root on-shell state at N = 2
    params = constrain_boundary(1, E0, random_params(2, seed=11))
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    basis = SovBasis(params, gauge)
    qpoly = None
    for tau in brute_spectrum(params):
        sol = solve_tq(tau, params, E0, "homogeneous", degree=1)
        if sol.residual < 1e-9:
            qpoly = TrigPoly(roots=tuple(onshell_roots(sol.q.roots, E0, params)))
            break
    assert qpoly is not None
    p = TrigPoly(roots=(0.77 + 0.41j,))
    d = sp_direct(SeparateStateSpec(rounded(qpoly), E0, "left"),
                  SeparateStateSpec(p, E0, "right"), basis)
    sl = sp_slavnov(SeparateStateSpec(qpoly, E0, "left"),
                    SeparateStateSpec(p, E0, "right"), params, gauge)
    assert abs(sl - d) < 1e-7 * abs(d)


def test_slavnov_vs_direct(onshell4):
    params, gauge, basis, tau, qpoly = onshell4
    n = qpoly.degree
    rng = rng_for(9, "slavnov")
    p = TrigPoly(roots=tuple(rng.uniform(0.4, 1.3, n) + 1j * rng.uniform(0.2, 0.8, n)))
    qs = SeparateStateSpec(qpoly, E0, "left")
    ps = SeparateStateSpec(p, E0, "right")
    d = sp_direct(SeparateStateSpec(rounded(qpoly), E0, "left"), ps, basis)
    sl = sp_slavnov(qs, ps, params, gauge)
    assert abs(sl - d) < 1e-7 * abs(d)
    t, _ = sp_thm52(qs, ps, params, gauge)
    assert abs(t - d) < 1e-7 * abs(d)
    # labeling order of the roots is irrelevant
    p2 = TrigPoly(roots=tuple(reversed(p.roots)))
    q2 = TrigPoly(roots=tuple(reversed(qpoly.roots)))
    sl2 = sp_slavnov(SeparateStateSpec(q2, E0, "left"),
                     SeparateStateSpec(p2, E0, "right"), params, gauge)
    assert abs(sl2 - sl) < 1e-10 * abs(sl)


def test_gaudin_norm(onshell4):
    params, gauge, basis, tau, qpoly = onshell4
    d = sp_direct(SeparateStateSpec(rounded(qpoly), E0, "left"),
                  SeparateStateSpec(rounded(qpoly), E0, "right"), basis)
    gn = gaudin_norm(SeparateStateSpec(qpoly, E0, "left"), params, gauge)
    assert abs(gn - d) < 1e-7 * abs(d)


def test_gaudin_matches_slavnov_limit(onshell4):
    params, gauge, basis, tau, qpoly = onshell4
    gn = gaudin_norm(SeparateStateSpec(qpoly, E0, "left"), params, gauge)
    vals = []
    for delta in (1e-4, 5e-5):
        p = TrigPoly(roots=tuple(np.array(qpoly.roots) + delta))
        vals.append(sp_slavnov(SeparateStateSpec(qpoly, E0, "left"),
                               SeparateStateSpec(p, E0, "right"), params, gauge))
    extrap = 2 * vals[1] - vals[0]
    assert abs(extrap - gn) < 1e-5 * abs(gn)


def test_gaudin_matrix_finite_differences():
    # gaudin_matrix is the Jacobian of the residual onshell_roots iterates on
    h = 1e-6
    for N in (2, 3, 4, 5):
        params, _, q_roots = onshell_chain(N)
        gm = gaudin_matrix(q_roots, E0, params)
        for k in range(len(q_roots)):
            rp, rm = q_roots.copy(), q_roots.copy()
            rp[k] += h
            rm[k] -= h
            fd = (bethe_log_residual(rp, E0, params)
                  - bethe_log_residual(rm, E0, params)) / (2 * h)
            assert np.all(abs(fd - gm[:, k]) < 1e-5 * np.maximum(abs(gm[:, k]), 1.0)), (N, k)


def test_onshell_roots_from_a_perturbed_start(onshell4, monkeypatch):
    params, gauge, basis, tau, qpoly = onshell4
    roots = np.array(qpoly.roots)
    rng = rng_for(10, "onshell-start")
    start = roots + 1e-3 * (rng.normal(size=len(roots)) + 1j * rng.normal(size=len(roots)))
    # four steps reach the roots; a fifth, below 1e-18 of them, confirms it
    monkeypatch.setattr(scalar_mod, "NEWTON_STEPS", 5)
    got = onshell_roots(start, E0, params)
    assert got.dtype == np.clongdouble
    assert np.max(np.abs(got - roots)) < 1e-12
    assert np.max(np.abs(bethe_log_residual(got, E0, params))) < 1e-15


def test_onshell_roots_raises_when_it_cannot_converge(onshell4, monkeypatch):
    params, gauge, basis, tau, qpoly = onshell4
    start = np.array(qpoly.roots) + 1e-3
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match="non-finite Bethe residual or Newton step"):
        onshell_roots([np.nan, *start[1:]], E0, params)
    # one step cannot take a start 1e-3 away to 1e-18
    monkeypatch.setattr(scalar_mod, "NEWTON_STEPS", 1)
    with pytest.raises(ValueError, match="did not converge in 1 steps; last residual"):
        onshell_roots(start, E0, params)


def test_onshell_roots_rejects_coinciding_roots(onshell4):
    # on constrain_boundary(4, E0, random_params(4, seed=2)) both starts converge
    # to a doubled root, where the Gaudin matrix is singular
    params, _, _, _, qpoly = onshell4
    for start in ([0.1j, 0.2j], [2 + 1j, 2 + 1.0001j]):
        with pytest.raises(ValueError, match="coinciding Bethe roots"):
            onshell_roots(start, E0, params)
    # a start near distinct roots still converges
    roots = np.array(qpoly.roots)
    assert np.max(np.abs(onshell_roots(roots + 1e-6, E0, params) - roots)) < 1e-12


def test_slavnov_gen_vs_direct(onshell4):
    params, gauge, basis, tau, qpoly = onshell4
    n_q = qpoly.degree
    for extra in (1, 2):
        n_p = n_q + extra
        p = TrigPoly(roots=tuple(0.45 + 0.22 * k + 0.35j - 0.06j * k
                                 for k in range(n_p)))
        qs = SeparateStateSpec(qpoly, E0, "left")
        ps = SeparateStateSpec(p, E0, "right")
        d = sp_direct(SeparateStateSpec(rounded(qpoly), E0, "left"), ps, basis)
        sg = sp_slavnov_gen(qs, ps, params, gauge)
        assert abs(sg - d) < 1e-7 * abs(d)


def test_slavnov_gen_requires_more_p_roots(onshell4):
    params, gauge, basis, tau, qpoly = onshell4
    with pytest.raises(ValueError):
        sp_slavnov_gen(SeparateStateSpec(qpoly, E0, "left"),
                       SeparateStateSpec(qpoly, E0, "right"), params, gauge)


def test_eps_covariance_of_eigenstates(onshell4):
    # separate states built from Q_{tau,eps} and Q_{tau,eps'} are proportional
    # with the stated ratio of Q-values at the upper grid points, times the
    # ratio of normalization constants (the separate states are each divided
    # by their own branch normalization)
    from openxxz.sov import sov_norm_const

    params, gauge, basis, tau, qpoly = onshell4
    qpoly = rounded(qpoly)
    sol2 = solve_tq(tau, params, E1, "inhomogeneous")
    assert sol2.residual < 1e-8
    q2 = sol2.q
    v1 = separate_state(SeparateStateSpec(qpoly, E0, "right"), basis)
    v2 = separate_state(SeparateStateSpec(q2, E1, "right"), basis)
    qratio = np.prod([q2(params.xi[n] + params.eta / 2)
                      / qpoly(params.xi[n] + params.eta / 2)
                      for n in range(params.N)])
    # the stated product of Q-values equals the d-product ratio of roots
    from openxxz.trig import bulk_ad
    dprod = 1.0 + 0j
    for r in q2.roots:
        dprod *= bulk_ad(r, params)[1] * bulk_ad(-r, params)[1]
    for r in qpoly.roots:
        dprod /= bulk_ad(r, params)[1] * bulk_ad(-r, params)[1]
    assert abs(qratio - dprod) < 1e-8 * abs(qratio)
    nratio = sov_norm_const(params, gauge, E0) / sov_norm_const(params, gauge, E1)
    ratio = qratio * nratio
    assert np.max(np.abs(v2 - ratio * v1)) < 1e-8 * np.max(np.abs(v2))
    # left states carry the extra a_eps ratio
    l1 = separate_state(SeparateStateSpec(qpoly, E0, "left"), basis)
    l2 = separate_state(SeparateStateSpec(q2, E1, "left"), basis)
    lratio = ratio * np.prod([a_eps_small(params.xi[n] + params.eta / 2, E1, params)
                              / a_eps_small(params.xi[n] + params.eta / 2, E0, params)
                              for n in range(params.N)])
    assert np.max(np.abs(l2 - lratio * l1)) < 1e-8 * np.max(np.abs(l2))


def test_homogeneous_limit_stability():
    # thm52 stays exact as xi -> 0 while the double-precision SoV determinant
    # loses digits; the reference column is the extended-precision one
    from openxxz.mpref import sp_sov_mp

    base = random_params(3, seed=13)
    gauge = solve_gauge(base.boundary_plus, 1, 1, base.eta)
    rng = rng_for(10, "homog")
    q, p = poly_pair(3, rng)
    qs = SeparateStateSpec(q, E0, "left")
    ps = SeparateStateSpec(p, E0, "right")
    t_diffs, s_diffs, values = [], [], []
    for epsv in (1e-1, 1e-2, 1e-3):
        params = base.with_xi(tuple(epsv * (j + 1) for j in range(3)))
        d = sp_sov_mp(qs, ps, params, gauge)
        t, _ = sp_thm52(qs, ps, params, gauge)
        s = sp_sov(qs, ps, params, gauge)
        t_diffs.append(abs(t - d) / abs(d))
        s_diffs.append(abs(s - d) / abs(d))
        values.append(t)
    assert t_diffs[-1] < 1e-6
    # raw SoV route conditioning degrades monotonically towards xi = 0
    assert s_diffs[0] < s_diffs[1] < s_diffs[2]
    # values are Cauchy across the decades
    assert abs(values[2] - values[1]) < abs(values[1] - values[0])


@pytest.mark.parametrize("N", range(1, 8))
def test_sp_sov_mp_matches_sp_sov(N):
    # the extended-precision SoV determinant against the double one, on
    # same- and mixed-branch pairs at total degree N
    from openxxz.mpref import sp_sov_mp

    for seed in (0, 1):
        params = random_params(N, seed=seed)
        gauge = _gauge(params)
        q, p = poly_pair(N, rng_for(seed, "referee"))
        for eps_p in (E0, E1):
            qs = SeparateStateSpec(q, E0, "left")
            ps = SeparateStateSpec(p, eps_p, "right")
            ref = sp_sov_mp(qs, ps, params, gauge)
            assert abs(sp_sov(qs, ps, params, gauge) - ref) < 1e-10 * abs(ref)


def test_sp_sov_mp_precision_follows_the_cancellation():
    # at xi_j = 1e-5 j the N = 5 SoV matrix cancels through nearly DPS
    # digits, so a DPS-digit value is far off; the doubling must reach the
    # value of a 400-digit evaluation
    import mpmath as mp
    from openxxz import mpref

    base = random_params(5, seed=13)
    gauge = _gauge(base)
    params = base.with_xi(tuple(1e-5 * (j + 1) for j in range(5)))
    q, p = poly_pair(5, rng_for(13, "homog"))
    qs, ps = SeparateStateSpec(q, E0, "left"), SeparateStateSpec(p, E0, "right")

    def at(dps):
        with mp.workdps(dps):
            return complex(mpref._sov_det(mpref._MpModel(params, gauge), qs, ps))

    ref = at(400)
    assert abs(at(mpref.DPS) - ref) > 1e-6 * abs(ref)
    assert abs(mpref.sp_sov_mp(qs, ps, params, gauge) - ref) < 1e-15 * abs(ref)


def test_degree_zero_states(chain3):
    # P = Q = 1: the h-sum collapses onto the Gram normalization structure;
    # the opposite-branch pairing is in the structurally vanishing class
    params, gauge, basis = chain3
    one = TrigPoly(roots=())
    scale = abs(sp_direct(SeparateStateSpec(one, E0, "left"),
                          SeparateStateSpec(one, E0, "right"), basis))
    for eps_p in (E0, E0.flipped(), E1):
        qs = SeparateStateSpec(one, E0, "left")
        ps = SeparateStateSpec(one, eps_p, "right")
        d = sp_direct(qs, ps, basis)
        s = sp_sov(qs, ps, params, gauge)
        if eps_p == E0.flipped():
            assert abs(d) < 1e-10 * scale
            assert abs(s) < 1e-10 * scale
        else:
            assert abs(s - d) < 1e-9 * abs(d)


def _sov_matrix_loop(q_spec, p_spec, params):
    """The per-entry triple loop form of sov_matrix, kept as its reference.

    Also returns the sum of the absolute terms of each entry, its rounding scale.
    """
    N = params.N
    mat = np.zeros((N, N), dtype=complex)
    scale = np.zeros((N, N))
    for i in range(N):
        lam0 = params.xi[i] + params.eta / 2
        ratio = a_eps_small(lam0, p_spec.eps, params) \
            / a_eps_small(lam0, q_spec.eps.flipped(), params)
        for j in range(N):
            for h in (0, 1):
                w = (-ratio) ** h \
                    * p_spec.poly(params.xi_shifted(i + 1, h)) \
                    * q_spec.poly(params.xi_shifted(i + 1, h))
                term = w * varsigma(params.xi_shifted(i + 1, 1 - h)) ** j
                mat[i, j] += term
                scale[i, j] += abs(term)
    return mat, scale


def test_sov_matrix_matches_loop():
    rng = rng_for(3, "sov-matrix")
    for N in (1, 3, 5):
        params = random_params(N, seed=4)
        for total in (0, N - 1, N + 2):
            q, p = poly_pair(total, rng)
            for eps_p in (E0, E1, E0.flipped()):
                qs = SeparateStateSpec(q, E0, "left")
                ps = SeparateStateSpec(p, eps_p, "right")
                ref, scale = _sov_matrix_loop(qs, ps, params)
                got = sov_matrix(qs, ps, params)
                assert np.all(np.abs(got - ref) <= 1e-12 * scale), (N, total, eps_p)


def test_f_eps_on_arrays_matches_scalar_calls(chain4):
    params, _, _ = chain4
    lams = np.array([0.63 + 0.27j, 1.11 - 0.35j, -0.42 + 0.8j, 0.2 - 0.05j])
    for eps_p in (E0, E1, E0.flipped()):
        aset = build_aset(E0, eps_p, params)
        vals = f_eps(lams, aset, params)
        assert vals.shape == lams.shape
        for lam, val in zip(lams, vals):
            ref = f_eps(lam, aset, params)
            assert abs(val - ref) <= 1e-14 * abs(ref)
        long_lams = lams.astype(np.clongdouble)
        long_vals = f_eps(long_lams, aset, params)
        assert long_vals.dtype == np.clongdouble
        for lam, val in zip(long_lams, long_vals):
            ref = f_eps(lam, aset, params)
            assert abs(val - ref) <= 1e-17 * abs(ref)


def test_separate_state_repeats_bit_for_bit():
    # the first call builds the basis caches, the second reads them
    params = random_params(3, seed=1)
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    q = TrigPoly(roots=(0.55 + 0.62j, 1.3 - 0.45j))
    for side, bis in (("right", False), ("left", False), ("left", True)):
        basis = SovBasis(params, gauge)
        spec = SeparateStateSpec(q, E1, side)
        first = separate_state(spec, basis, use_bis=bis)
        assert np.array_equal(first, separate_state(spec, basis, use_bis=bis))


# The per-entry loops that assembled the on-shell matrices before they were
# built from one table of per-root T-Q terms; kept as references.

def _slavnov_matrix_loop(p_roots, q_roots, eps, params):
    eta = np.clongdouble(params.eta)
    p_roots = [np.clongdouble(p) for p in p_roots]
    q_roots = [np.clongdouble(q) for q in q_roots]
    qpoly = TrigPoly(tuple(q_roots))
    out = np.zeros((len(p_roots), len(q_roots)), dtype=np.clongdouble)
    for j, p in enumerate(p_roots):
        qp = qpoly(p)
        a_p = big_a_eps(p, eps, params)
        a_m = big_a_eps(-p, eps, params)
        q_m = qpoly(p - eta)
        q_pl = qpoly(p + eta)
        tau_p = (a_p * q_m + a_m * q_pl) / qp
        for k, qk in enumerate(q_roots):
            val = a_p * q_m / (varsigma(p - eta) - varsigma(qk)) \
                + a_m * q_pl / (varsigma(p + eta) - varsigma(qk)) \
                - tau_p * qp / (varsigma(p) - varsigma(qk))
            out[j, k] = -np.sinh(2 * qk) * val / qp
    return out


def _gaudin_matrix_loop(q_roots, eps, params):
    from openxxz.sov import big_a_eps_logderiv

    eta = np.clongdouble(params.eta)
    q_roots = [np.clongdouble(q) for q in q_roots]
    n = len(q_roots)
    out = np.zeros((n, n), dtype=np.clongdouble)
    for j, qj in enumerate(q_roots):
        for k, qk in enumerate(q_roots):
            if k != j:
                out[j, k] = -np.sinh(2 * qk) * (
                    1 / (varsigma(qj + eta) - varsigma(qk))
                    - 1 / (varsigma(qj - eta) - varsigma(qk)))
            else:
                val = -big_a_eps_logderiv(-qj, eps, params) \
                    - big_a_eps_logderiv(qj, eps, params)
                for sgn in (1, -1):
                    shift = qj + sgn * eta
                    val += sgn * np.sinh(2 * shift) * np.sum(
                        [1 / (varsigma(shift) - varsigma(q)) for q in q_roots])
                    val -= sgn * np.sinh(2 * qj) / (varsigma(shift) - varsigma(qj))
                out[j, j] = val
    return out


def _assert_entries_close(got, ref, rtol=1e-15):
    assert got.shape == ref.shape and got.dtype == np.clongdouble
    assert np.all(np.abs(got - ref) <= rtol * np.abs(ref)), np.max(np.abs(got - ref) / np.abs(ref))


def test_onshell_matrices_match_loops(onshell4):
    params, gauge, basis, tau, qpoly = onshell4
    q_roots = list(qpoly.roots)
    n = len(q_roots)
    p_roots = [0.52 + 0.33j, 0.91 - 0.41j, 1.21 + 0.52j, 0.66 - 0.2j][:n]
    assert len(p_roots) == n
    for n_p in (0, 1, n):
        _assert_entries_close(slavnov_matrix(p_roots[:n_p], q_roots, E0, params),
                              _slavnov_matrix_loop(p_roots[:n_p], q_roots, E0, params))
    _assert_entries_close(gaudin_matrix(q_roots, E0, params),
                          _gaudin_matrix_loop(q_roots, E0, params))


# The Jacobian forms of the on-shell scalar products from before they called
# detid's Slavnov-type assembly; kept as their references.

def _onshell_frame_jacobian(q_spec, p_spec, params, gauge):
    q = np.array(q_spec.poly.roots, dtype=np.clongdouble)
    p = np.array(p_spec.poly.roots, dtype=np.clongdouble)
    eta = np.clongdouble(params.eta)
    aset, _, g, pref = scalar_mod._pair_frame(q_spec.eps, q_spec.eps, len(q) + len(p), params,
                                              gauge, DEFAULT_A_TILDE)
    pref = pref * vdm_hat(q - eta / 2) / vdm_hat(q + eta / 2) / (vdm_hat(q[::-1]) * vdm_hat(p))
    weights = x_weights(q, g(q), f_eps(-q, aset, params), eta)
    return q, p, aset, weights, TrigPoly(tuple(q)), pref


def _sp_slavnov_jacobian(q_spec, p_spec, params, gauge):
    q, p, aset, weights, qpoly, pref = _onshell_frame_jacobian(q_spec, p_spec, params, gauge)
    eps, eta = q_spec.eps, np.clongdouble(params.eta)
    table = _tq_table(p, qpoly, eps, params)
    pref *= (1 + np.sum(weights)) \
        * np.prod(table[0] / (np.sinh(2 * p + eta) * np.sinh(2 * p - eta))) \
        * np.prod(-big_a_eps(q, eps, params) / np.sinh(2 * q + eta))
    return complex(pref * det_scaled(jacobian(p, q, table, eta)))


def _gaudin_norm_jacobian(q_spec, params, gauge):
    q, _, aset, weights, qpoly, pref = _onshell_frame_jacobian(q_spec, q_spec, params, gauge)
    eps, eta = q_spec.eps, np.clongdouble(params.eta)
    pref *= (1 + np.sum(weights)) \
        * np.prod(big_a_eps(q, eps, params) ** 2 * qpoly(q - eta)
                  / (np.sinh(2 * q + eta) ** 2 * np.sinh(2 * q - eta)))
    return complex(pref * det_scaled(gaudin_matrix(q, eps, params)))


def _sp_slavnov_gen_jacobian(q_spec, p_spec, params, gauge):
    q, p, aset, weights, qpoly, pref = _onshell_frame_jacobian(q_spec, p_spec, params, gauge)
    eps, eta = q_spec.eps, np.clongdouble(params.eta)
    n_q, n_p = len(q), len(p)
    table = _tq_table(p, qpoly, eps, params)
    qp, t_minus, t_plus = table
    # the Bethe equations substituted into f(-p) and f(p) through the T-Q terms
    f_pm = (t_plus * np.sinh(2 * p + eta) / qp, -t_minus * np.sinh(2 * p - eta) / qp)
    s_mat = np.concatenate([jacobian(p, q, table, eta),
                            functional_matrix(p, *f_pm, 0, eta)[:, :n_p - n_q]], axis=1)
    g = scalar_mod._pair_frame(eps, eps, n_q + n_p, params, gauge, DEFAULT_A_TILDE)[2]
    head = g(p) * np.sinh(2 * p + eta) * np.sinh(2 * p - eta) / qp ** 2
    s_mat[:, n_p - 1] += correction_column(p, f_pm, head, q, weights, eta)
    pref *= np.prod(qp / (np.sinh(2 * p + eta) * np.sinh(2 * p - eta))) \
        * np.prod(f_eps(-q, aset, params))
    return complex(pref * det_scaled(s_mat))


def _random_roots(rng, n):
    return tuple(rng.uniform(0.4, 1.3, n) + 1j * rng.uniform(-0.9, -0.3, n))


def test_onshell_forms_match_jacobian_forms(onshell4):
    chains = [(onshell4[0], onshell4[4].roots)]
    chains += [(params, roots) for params, _, roots in map(onshell_chain, (2, 3, 4, 5))]
    rng = rng_for(11, "jacobian-forms")
    for params, roots in chains:
        gauge = _gauge(params)
        qs = SeparateStateSpec(TrigPoly(roots=tuple(roots)), E0, "left")
        ps = SeparateStateSpec(TrigPoly(roots=_random_roots(rng, len(roots))), E0, "right")
        ref = _sp_slavnov_jacobian(qs, ps, params, gauge)
        assert abs(sp_slavnov(qs, ps, params, gauge) - ref) < 1e-12 * abs(ref), params.N
        assert gaudin_norm(qs, params, gauge) == _gaudin_norm_jacobian(qs, params, gauge)
        # the Jacobian form substitutes the Bethe equations into the
        # rectangle and detid's does not: the two agree to the roots' rounding
        for extra in (1, 2):
            ps = SeparateStateSpec(TrigPoly(roots=_random_roots(rng, len(roots) + extra)), E0,
                                   "right")
            ref = _sp_slavnov_gen_jacobian(qs, ps, params, gauge)
            assert abs(sp_slavnov_gen(qs, ps, params, gauge) - ref) < 1e-10 * abs(ref), \
                (params.N, extra)


def test_slavnov_gen_meets_sp_sov_on_every_eigenvalue():
    # one random p per eigenvalue whose homogeneous T-Q solve passes 1e-8, at
    # the on-shell suite's tolerance
    for seed in (0, 1, 2):
        params = constrain_boundary(4, E0, random_params(4, seed=seed))
        gauge = _gauge(params)
        rng = rng_for(seed, "slavnov-gen-sov")
        checked = 0
        for tau in brute_spectrum(params):
            sol = solve_tq(tau, params, E0, "homogeneous")
            if sol.residual >= 1e-8 or sol.q.degree < 1:
                continue
            roots = onshell_roots(sol.q.roots, E0, params)
            qs = SeparateStateSpec(TrigPoly(roots=tuple(roots)), E0, "left")
            ps = SeparateStateSpec(TrigPoly(roots=_random_roots(rng, len(roots) + 1)), E0,
                                   "right")
            ref = sp_sov(SeparateStateSpec(rounded(qs.poly), E0, "left"), ps, params, gauge)
            assert abs(sp_slavnov_gen(qs, ps, params, gauge) - ref) < 1e-7 * abs(ref), \
                (seed, tau)
            checked += 1
        assert checked, seed


def test_one_slavnov_type_assembly(onshell4, monkeypatch):
    # a guard: the chain's on-shell forms and check_identity_E share detid's
    # assembly, and scalar binds none of its parts
    from openxxz import detid

    params, gauge, _, _, qpoly = onshell4
    rng = rng_for(13, "one-assembly")
    counts = Counter()
    _count_calls(monkeypatch, counts, detid, "slavnov_form")
    qs = SeparateStateSpec(qpoly, E0, "left")
    for form, n_p in ((sp_slavnov, qpoly.degree), (sp_slavnov_gen, qpoly.degree + 1)):
        form(qs, SeparateStateSpec(TrigPoly(roots=_random_roots(rng, n_p)), E0, "right"),
             params, gauge)
        assert counts.pop("slavnov_form") == 1, form.__name__
    x = detid.generic_point_set(rng, 2, params.eta)
    y = detid.generic_point_set(rng, 3, params.eta, others=x)
    detid.check_identity_E(3, detid.random_fn_handle(rng, params.eta), None, x, y, params.eta)
    assert counts.pop("slavnov_form") == 1
    gaudin_norm(qs, params, gauge)
    assert not counts
    for name in ("bethe_kernel", "correction_column", "functional_matrix"):
        assert not hasattr(scalar_mod, name), name


def test_onshell_forms_refuse_zero_roots():
    # q = p = 1 on matching branches: g has no column to enter, as in sp_thm52
    one = SeparateStateSpec(TrigPoly(roots=()), E0, "left")
    for N in (2, 3, 4):
        params = constrain_boundary(0, E0, random_params(N, seed=0))
        gauge = _gauge(params)
        with pytest.raises(ValueError, match="total-degree-0 form on matching sign branches"):
            sp_slavnov(one, SeparateStateSpec(one.poly, E0, "right"), params, gauge)
        with pytest.raises(ValueError, match="total-degree-0 form on matching sign branches"):
            gaudin_norm(one, params, gauge)


def test_jacobian_forms_reject_mismatched_branches(onshell4):
    params, gauge, basis, tau, qpoly = onshell4
    p = TrigPoly(roots=(0.52 + 0.33j, 0.91 - 0.41j, 1.21 + 0.52j, 0.66 - 0.2j, 0.47 + 0.58j))
    for form, p_poly in ((sp_slavnov, TrigPoly(roots=p.roots[:qpoly.degree])),
                         (sp_slavnov_gen, TrigPoly(roots=p.roots[:qpoly.degree + 1]))):
        with pytest.raises(ValueError, match="matching sign branches"):
            form(SeparateStateSpec(qpoly, E0, "left"), SeparateStateSpec(p_poly, E1, "right"),
                 params, gauge)


# The per-call forms of the scalar-product routes from before their
# pair-independent factors were built once per chain; kept as their bitwise
# references.

def _f_eps_per_call(lam, aset, params):
    a, _ = bulk_ad(-lam, params)
    _, d = bulk_ad(lam, params)
    out = (-1) ** params.N * a * d / np.sinh(2 * lam)
    for al in aset.values:
        out *= np.sinh(lam - al + params.eta / 2) / np.sinh(al)
    return out


def _frame_per_call(eps, eps_p, total_degree, params, gauge, a_tilde):
    aset = build_aset(eps, eps_p, params, a_tilde)
    gam = gamma_prefactor(aset, total_degree, params)
    g = g_eps_handle(total_degree, aset, params) if eps == eps_p else None
    z_beta = 1 / label_product(gauge.beta, gauge, params)
    return aset, gam, g, (-1) ** (params.N * total_degree) * z_beta \
        * z_bar(aset, eps_p, params, gauge) * gam


def _sov_matrix_per_call(q_spec, p_spec, params):
    grid = params.xi_grid()
    w = p_spec.poly(grid)
    w[:, 1] *= -branch_ratio(grid[:, 0], p_spec.eps, q_spec.eps, params)
    w *= q_spec.poly(grid)
    powers = varsigma(grid[:, ::-1])[:, :, None] ** np.arange(params.N)
    return w[:, 0, None] * powers[:, 0] + w[:, 1, None] * powers[:, 1]


def _sp_sov_per_call(q_spec, p_spec, params, gauge):
    mat = _sov_matrix_per_call(q_spec, p_spec, params)
    return complex(det_scaled(mat) / gram_const(params, gauge, p_spec.eps))


def _sp_thm52_per_call(q_spec, p_spec, params, gauge, a_tilde=DEFAULT_A_TILDE):
    n_tot = q_spec.poly.degree + p_spec.poly.degree
    aset, gam, g, pref = _frame_per_call(q_spec.eps, p_spec.eps, n_tot, params, gauge, a_tilde)
    if abs(gam) < 1e-280:
        return 0.0 + 0j, True
    if g is not None and n_tot == 0:
        raise ValueError("no total-degree-0 form on matching sign branches")
    zs = np.array(q_spec.poly.roots + p_spec.poly.roots)
    gz = g(zs) if g is not None else 0.0
    afun = a_functional_values(zs, _f_eps_per_call(zs, aset, params),
                               _f_eps_per_call(-zs, aset, params), gz, params.eta)
    return complex(pref * afun), False


def _clear_pair_caches():
    for cached in (scalar_mod._pair_frame, scalar_mod._sov_grid, scalar_mod._grid_varsigma,
                   scalar_mod.g_eps_handle, sov_mod.z_beta, sov_mod.gram_const,
                   sov_mod.sov_norm_const, sov_mod._bits):
        cached.cache_clear()


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_cached_routes_equal_per_call_forms(N):
    params = random_params(N, seed=3)
    gauge = _gauge(params)
    rng = rng_for(N, "cached-routes")
    _clear_pair_caches()
    for total in range(max(0, N - 2), N + 3):
        q, p = poly_pair(total, rng)
        for eps_p in (E0, E1, E0.flipped()):
            qs, ps = SeparateStateSpec(q, E0, "left"), SeparateStateSpec(p, eps_p, "right")
            ref = _sp_sov_per_call(qs, ps, params, gauge)
            # the first call builds the caches, the second reads them
            assert sp_sov(qs, ps, params, gauge) == ref == sp_sov(qs, ps, params, gauge)
            for a_tilde in (DEFAULT_A_TILDE, 0.85 - 0.22j):
                if total == 0 and eps_p == E0:
                    for form in (_sp_thm52_per_call, sp_thm52):
                        with pytest.raises(ValueError, match="total-degree-0"):
                            form(qs, ps, params, gauge, a_tilde)
                    continue
                ref = _sp_thm52_per_call(qs, ps, params, gauge, a_tilde)
                assert sp_thm52(qs, ps, params, gauge, a_tilde) == ref \
                    == sp_thm52(qs, ps, params, gauge, a_tilde), (total, eps_p, a_tilde)


def test_f_eps_equals_per_call_form(chain4):
    params, _, _ = chain4
    lams = np.array([0.63 + 0.27j, 1.11 - 0.35j, -0.42 + 0.8j, 0.2 - 0.05j])
    for eps_p in (E0, E1, E0.flipped()):
        aset = build_aset(E0, eps_p, params)
        for lam in (lams, lams.astype(np.clongdouble), complex(lams[0])):
            assert np.array_equal(f_eps(lam, aset, params), _f_eps_per_call(lam, aset, params))


def test_onshell_forms_equal_per_call_frame(onshell4, monkeypatch):
    params, gauge, basis, tau, qpoly = onshell4
    n = qpoly.degree
    p_roots = (0.52 + 0.33j, 0.91 - 0.41j, 1.21 + 0.52j, 0.66 - 0.2j, 0.47 + 0.58j)
    qs = SeparateStateSpec(qpoly, E0, "left")
    ps = SeparateStateSpec(TrigPoly(roots=p_roots[:n]), E0, "right")
    ps_big = SeparateStateSpec(TrigPoly(roots=p_roots[:n + 1]), E0, "right")

    def values():
        return (sp_slavnov(qs, ps, params, gauge), gaudin_norm(qs, params, gauge),
                sp_slavnov_gen(qs, ps_big, params, gauge))

    _clear_pair_caches()
    cached = values()
    assert values() == cached
    monkeypatch.setattr(scalar_mod, "_pair_frame", _frame_per_call)
    monkeypatch.setattr(scalar_mod, "f_eps", _f_eps_per_call)
    assert values() == cached


def test_cached_tables_are_read_only(chain3):
    params, _, _ = chain3
    for arr in (*scalar_mod._sov_grid(params, E1, E0), sov_mod._bits(params.N)):
        with pytest.raises(ValueError):
            arr[0] = 0


def _count_calls(monkeypatch, counts, module, name):
    """Count the calls of module.name through every openxxz module that binds it."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("openxxz") and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)


def test_pair_independent_factors_built_once_per_key(monkeypatch):
    # a guard: these factors read no roots, so a pair must not rebuild them
    params = random_params(3, seed=1)
    gauge = _gauge(params)
    basis = SovBasis(params, gauge)
    rng = rng_for(0, "call-counts")
    _clear_pair_caches()
    counts = Counter()
    for module, name in ((scalar_mod, "z_bar"), (sov_mod, "label_product"),
                         (sov_mod, "branch_ratio"), (sov_mod, "all_h")):
        _count_calls(monkeypatch, counts, module, name)
    keys = set()
    for k in range(100):
        total = 1 + k % 5
        eps_p = (E0, E1, E0.flipped())[k // 5 % 3]
        q, p = poly_pair(total, rng)
        qs, ps = SeparateStateSpec(q, E0, "left"), SeparateStateSpec(p, eps_p, "right")
        sp_sov(qs, ps, params, gauge)
        sp_thm52(qs, ps, params, gauge)
        separate_state(ps, basis)
        keys.add((eps_p, total))
    assert len(keys) == 15
    for name in ("z_bar", "label_product", "branch_ratio"):
        assert counts[name] <= len(keys), (name, counts[name])
    # the bit table of sov_state is built once per chain length
    assert counts["all_h"] <= 1
