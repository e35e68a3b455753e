import numpy as np
import pytest

from openxxz.trig import TrigPoly, bulk_ad, random_params, vdm_hat
from openxxz.lattice import qdet_k_minus, qdet_k_plus, qdet_u_minus
from openxxz.gauge import solve_gauge, sos_block, ad_plus, s_chain
from openxxz.sov import (
    ADMISSIBLE_EPS,
    EpsChoice,
    SovBasis,
    a_eps_small,
    a_minus_norm,
    all_h,
    big_a_eps,
    big_a_eps_logderiv,
    g_minus,
    gram_matrix,
    h_index,
    identity_resolution_residual,
    sov_norm_const,
    sov_state,
    sov_weights,
    u_weight,
    v_weight,
    verify_sov_actions,
)
from sov_helpers import app_c_product, u_weight_product_form


@pytest.fixture(scope="module")
def setup3():
    params = random_params(3, seed=1)
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    return params, gauge, SovBasis(params, gauge)


EPS0 = EpsChoice(1, 1, 1, 1)


def test_eps_choice_constraint():
    with pytest.raises(ValueError):
        EpsChoice(1, 1, 1, -1)
    assert EpsChoice(1, -1, -1, 1).flipped() == EpsChoice(-1, 1, 1, -1)


def test_g_minus_defining_relation(setup3):
    params, gauge, _ = setup3
    eta = params.eta
    for lam in (0.37 + 0.21j, 0.81 - 0.35j, 1.13 + 0.07j, 0.5, 0.66 - 0.1j):
        lhs = g_minus(lam + eta / 2, EPS0, gauge, params) \
            * g_minus(-lam + eta / 2, EPS0, gauge, params)
        rhs = qdet_k_minus(lam, params.boundary_minus, eta) / np.sinh(2 * lam - 2 * eta)
        assert abs(lhs - rhs) < 1e-11 * abs(rhs)


def test_g_minus_trivial_branch(setup3):
    # when both + signs match the gauge branch, the last ratio collapses to 1
    params, gauge, _ = setup3
    eta = params.eta
    bm = params.boundary_minus
    eps = EpsChoice(gauge.eps_plus, 1, gauge.eps_plus, 1)
    lam = 0.43 - 0.19j
    u = lam - eta / 2
    expected = gauge.eps_plus * eps.a_plus * (-1) ** params.N \
        * np.sinh(u + eps.a_minus * bm.alpha) * np.cosh(u + eps.b_minus * bm.beta) \
        / (np.sinh(eps.a_minus * bm.alpha) * np.cosh(eps.b_minus * bm.beta))
    assert g_minus(lam, eps, gauge, params) == pytest.approx(expected)


def test_big_a_eps_functional_relation(setup3):
    params, _, _ = setup3
    eta = params.eta
    for lam in (0.37 + 0.21j, 0.81 - 0.35j, 1.13 + 0.07j, 0.29 + 0.4j, 0.95):
        lhs = big_a_eps(lam + eta / 2, EPS0, params) * big_a_eps(-lam + eta / 2, EPS0, params)
        rhs = -qdet_k_plus(lam, params.boundary_plus, eta) * qdet_u_minus(lam, params) \
            / (np.sinh(2 * lam + eta) * np.sinh(2 * lam - eta))
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_big_a_eps_product_eps_independent(setup3):
    params, _, _ = setup3
    lam = 0.61 + 0.27j
    prods = [big_a_eps(lam, e, params) * big_a_eps(lam, e.flipped(), params)
             for e in ADMISSIBLE_EPS]
    for p in prods[1:]:
        assert abs(p - prods[0]) < 1e-12 * abs(prods[0])


def test_big_a_eps_zero_structure(setup3):
    # a(lam) vanishes at xi_1 - eta/2, d(-lam) at -xi_1 - eta/2
    params, _, _ = setup3
    assert abs(big_a_eps(params.xi[0] - params.eta / 2, EPS0, params)) < 1e-11
    assert abs(big_a_eps(-params.xi[0] - params.eta / 2, EPS0, params)) < 1e-11


def test_big_a_matches_gauge_route(setup3):
    # e^{-lam+eta/2} sinh(2l+eta)/sinh(2l) d_+(-lam) A_-(lam) reproduces big_a_eps
    params, gauge, _ = setup3
    eta = params.eta
    lam = 0.53 - 0.24j
    _, dp = ad_plus(-lam, params.boundary_plus, gauge.eps_plus, eta)
    via_gauge = np.exp(-lam + eta / 2) * np.sinh(2 * lam + eta) / np.sinh(2 * lam) \
        * dp * a_minus_norm(lam, EPS0, gauge, params)
    direct = big_a_eps(lam, EPS0, params)
    assert abs(via_gauge - direct) < 1e-12 * abs(direct)


def test_big_a_eps_logderiv(setup3):
    params, _, _ = setup3
    lam = 0.71 + 0.18j
    h = 1e-6
    fd = (np.log(big_a_eps(lam + h, EPS0, params))
          - np.log(big_a_eps(lam - h, EPS0, params))) / (2 * h)
    assert abs(fd - big_a_eps_logderiv(lam, EPS0, params)) < 1e-6


def test_bulk_factors_equal_their_bulk_ad_forms(setup3):
    # big_a_eps and a_minus_norm build only a(lam) and d(-lam): bit for bit the
    # halves of the two bulk_ad calls they made before
    params, gauge, _ = setup3
    lams = np.array([0.63 + 0.27j, 1.11 - 0.35j, -0.42 + 0.8j])
    for lam in (lams, lams.astype(np.clongdouble), complex(lams[0])):
        a, _ = bulk_ad(lam, params)
        _, dm = bulk_ad(-lam, params)
        pref = (-1) ** params.N * np.sinh(2 * lam + params.eta) / np.sinh(2 * lam)
        for eps in ADMISSIBLE_EPS:
            assert np.array_equal(big_a_eps(lam, eps, params),
                                  pref * a_eps_small(lam, eps, params) * a * dm)
            assert np.array_equal(a_minus_norm(lam, eps, gauge, params),
                                  g_minus(lam, eps, gauge, params) * a * dm)


def test_u_weight_forms_and_uv_identity(setup3):
    params, _, _ = setup3
    eta = params.eta
    for n in (1, 2, 3):
        u1 = u_weight(n, params)
        assert abs(u1 - u_weight_product_form(n, params)) < 1e-11 * abs(u1)
        xn = params.xi[n - 1]
        lhs = np.sinh(2 * xn - 2 * eta) / np.sinh(2 * xn + 2 * eta) \
            * big_a_eps(xn + eta / 2, EPS0, params) \
            / big_a_eps(-xn + eta / 2, EPS0, params)
        assert abs(lhs - u1 * v_weight(n, EPS0, params)) < 1e-11 * abs(lhs)


def test_right_state_h_zero_is_reference(setup3):
    params, _, basis = setup3
    vec = basis.right_state((0, 0, 0), EPS0)
    expected = np.zeros(8)
    expected[7] = 1
    assert np.allclose(vec, expected)


def test_gram_orthogonality_and_norm(setup3):
    params, gauge, basis = setup3
    for eps in ADMISSIBLE_EPS:
        g = gram_matrix(basis, eps)
        norm = basis.norm_const(eps)
        lnorms = np.linalg.norm(basis.left_states(eps), axis=1)
        rnorms = np.linalg.norm(basis.right_states(eps), axis=1)
        for h in all_h(params.N):
            i = h_index(h)
            expect = norm * np.exp(2 * sum(hj * xj for hj, xj in zip(h, params.xi))) \
                / vdm_hat([params.xi_shifted(n + 1, h[n]) for n in range(params.N)])
            assert abs(g[i, i] - expect) < 1e-9 * abs(expect)
            for j in range(2 ** params.N):
                if j != i:
                    assert abs(g[i, j]) < 1e-9 * lnorms[i] * rnorms[j]


def test_norm_const_dense_vs_closed():
    for N in (2, 3, 4, 5):
        params = random_params(N, seed=70 + N)
        gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
        basis = SovBasis(params, gauge)
        closed = basis.norm_const(EPS0)
        dense = basis.norm_const_dense(EPS0)
        assert abs(closed - dense) < 1e-9 * abs(closed)


def test_app_c_product_formula(setup3):
    # dense <0| prod A^SOS(eta/2 - xi_k | label) |0bar> against the closed form
    params, gauge, _ = setup3
    label = gauge.beta - 1
    a_ops = [sos_block("A", params.eta / 2 - params.xi[j], label, params, gauge)
             for j in range(params.N)]
    dim = 2 ** params.N
    row = np.zeros(dim, dtype=complex)
    row[0] = 1
    for op in a_ops:
        row = row @ op
    dense = row[dim - 1]
    closed = app_c_product(params, gauge, label)
    assert abs(dense - closed) < 1e-10 * abs(closed)


def test_identity_resolution(setup3):
    _, _, basis = setup3
    for eps in ADMISSIBLE_EPS:
        assert identity_resolution_residual(basis, eps) < 1e-9


def test_completeness_singular_values(setup3):
    _, _, basis = setup3
    sv = np.linalg.svd(basis.right_states(EPS0), compute_uv=False)
    assert sv[-1] > 1e-8 * sv[0] * 1e-4  # well away from degeneracy
    sv = np.linalg.svd(basis.left_states(EPS0), compute_uv=False)
    assert sv[-1] > 0


def test_norm_vanishes_near_cond3_violation():
    # push tau_- towards a zero of the b_-(beta+1+N-2j) product: norm -> 0
    params = random_params(2, seed=33)
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    from dataclasses import replace
    eta = params.eta
    bm = params.boundary_minus
    # solve sinh(eta(beta+1+N-2j-alpha)-tau) = sinh(alpha_-+beta_-) for j=1
    j = 1
    target = eta * (gauge.beta + 1 + params.N - 2 * j - gauge.alpha) \
        - np.arcsinh(np.sinh(bm.alpha + bm.beta))
    vals = []
    for t in (0.1, 0.01, 0.001):
        bad = replace(params, boundary_minus=replace(bm, tau=target + t))
        vals.append(abs(sov_norm_const(bad, gauge, EPS0)))
    assert vals[2] < vals[1] < vals[0]
    assert vals[2] < 1e-2 * vals[0]


def test_sov_actions(setup3):
    _, _, basis = setup3
    for name, res in verify_sov_actions(basis, EPS0, seed=3):
        assert res < 1e-9, f"{name}: {res}"


def test_actions_various_N():
    for N in (2, 4):
        params = random_params(N, seed=80 + N)
        gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
        basis = SovBasis(params, gauge)
        for name, res in verify_sov_actions(basis, EpsChoice(1, -1, -1, 1), seed=4):
            assert res < 1e-8, f"N={N} {name}: {res}"


def test_sov_weights_and_states_match_per_h_formulas():
    poly = TrigPoly(roots=(0.7 + 0.4j, 1.1 - 0.3j))
    for N in range(1, 7):
        generic = random_params(N, seed=2)
        near_hom = generic.with_xi(tuple(1e-3 * (j + 1) for j in range(N)))
        for params in (generic, near_hom):
            grid = [[params.xi_shifted(n, b) for b in (0, 1)] for n in range(1, N + 1)]
            qtab = [[poly(x) for x in row] for row in grid]
            uv = [u_weight(n, params) * v_weight(n, EPS0, params) for n in range(1, N + 1)]
            v = [v_weight(n, EPS0, params) for n in range(1, N + 1)]
            v01 = vdm_hat([row[0] for row in grid]) / vdm_hat([row[1] for row in grid])
            right = sov_weights(qtab, params, "right")
            left = sov_weights(qtab, params, "left", EPS0)
            bis = sov_weights(qtab, params, "left", EPS0, bis=True)
            for h in all_h(N):
                i = h_index(h)
                w = np.prod([qtab[n][h[n]] for n in range(N)]) \
                    * np.exp(-sum(hj * xj for hj, xj in zip(h, params.xi)))
                vh = vdm_hat([grid[n][h[n]] for n in range(N)])
                v_flip = vdm_hat([grid[n][1 - h[n]] for n in range(N)])
                assert right[i] == pytest.approx(w * vh, rel=1e-12)
                assert left[i] == pytest.approx(
                    w * vh * np.prod([uv[n] ** h[n] for n in range(N)]), rel=1e-12)
                assert bis[i] == pytest.approx(
                    w * v_flip * v01 * np.prod([(-v[n]) ** h[n] for n in range(N)]),
                    rel=1e-12)

    # states: the operator products on the reference states times their scales
    params = random_params(4, seed=3)
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    basis = SovBasis(params, gauge)
    eta = params.eta
    d_ops = [sos_block("D", x + eta / 2, gauge.beta + 1, params, gauge) for x in params.xi]
    a_ops = [sos_block("A", eta / 2 - x, gauge.beta - 1, params, gauge) for x in params.xi]
    for eps in ADMISSIBLE_EPS[:2]:
        a_norm = [a_minus_norm(eta / 2 - x, eps, gauge, params) for x in params.xi]
        k = [np.sinh(2 * x + eta) / np.sinh(2 * x - eta) for x in params.xi]
        for h in all_h(4):
            right = np.eye(16)[15].astype(complex)
            left = np.eye(16)[0].astype(complex)
            for j in range(4):
                if h[j] == 1:
                    right = right / (k[j] * a_norm[j])
                else:
                    left = left / a_norm[j]
            for j in range(3, -1, -1):
                if h[j] == 1:
                    right = d_ops[j] @ right
            for j in range(4):
                if h[j] == 0:
                    left = left @ a_ops[j]
            scale = np.max(np.abs(right))
            assert np.max(np.abs(basis.right_state(h, eps) - right)) < 1e-12 * scale
            scale = np.max(np.abs(left))
            assert np.max(np.abs(basis.left_state(h, eps) - left)) < 1e-12 * scale


def test_prop_states_rescaling(setup3):
    params, _, basis = setup3
    e1, e2 = EPS0, EpsChoice(1, -1, -1, 1)
    for h in all_h(params.N):
        r1, r2 = basis.right_state(h, e1), basis.right_state(h, e2)
        ratio = np.prod([a_eps_small(params.xi[n] + params.eta / 2, e1.flipped(), params)
                         / a_eps_small(params.xi[n] + params.eta / 2, e2.flipped(), params)
                         for n in range(params.N) if h[n] == 1]) if any(h) else 1.0
        assert np.max(np.abs(r2 - ratio * r1)) < 1e-10 * max(np.max(np.abs(r2)), 1e-300)
        l1, l2 = basis.left_state(h, e1), basis.left_state(h, e2)
        ratio = np.prod([a_eps_small(params.xi[n] + params.eta / 2, e1.flipped(), params)
                         / a_eps_small(params.xi[n] + params.eta / 2, e2.flipped(), params)
                         for n in range(params.N) if h[n] == 0]) if not all(h) else 1.0
        assert np.max(np.abs(l2 - ratio * l1)) < 1e-10 * max(np.max(np.abs(l2)), 1e-300)


def test_construction_order_independence(setup3):
    params, gauge, _ = setup3
    eta = params.eta
    d_ops = [sos_block("D", params.xi[j] + eta / 2, gauge.beta + 1, params, gauge)
             for j in range(3)]
    down = np.zeros(8, dtype=complex)
    down[-1] = 1
    v1 = d_ops[0] @ (d_ops[1] @ (d_ops[2] @ down))
    v2 = d_ops[2] @ (d_ops[1] @ (d_ops[0] @ down))
    assert np.max(np.abs(v1 - v2)) < 1e-10 * np.max(np.abs(v1))


def test_sov_state_matches_weights_then_gauge():
    # the cached dressed states and gauge against the weights-times-states
    # formula followed by S (right) or S^{-1} (left)
    poly = TrigPoly(roots=(0.7 + 0.4j, 1.1 - 0.3j, 0.9 + 0.6j))
    for N in range(1, 7):
        params = random_params(N, seed=5)
        gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
        basis = SovBasis(params, gauge)
        s = s_chain(params, gauge.beta, gauge.alpha)
        qtab = poly(params.xi_grid())
        for eps in ADMISSIBLE_EPS[:2]:
            for side, bis in (("right", False), ("left", False), ("left", True)):
                ones = sov_weights(np.ones((N, 2)), params, side, eps, bis)
                assert np.array_equal(basis.dressed_states(side, eps, bis),
                                      ones[:, None] * basis.states(side, eps))
                vec = sov_weights(qtab, params, side, eps, bis) @ basis.states(side, eps)
                expect = s @ vec if side == "right" else np.linalg.solve(s.T, vec)
                got = sov_state(qtab, basis, side, eps, bis)
                assert np.max(np.abs(got - expect)) < 1e-12 * np.max(np.abs(expect)), \
                    (N, eps, side, bis)


def test_basis_builds_gauge_and_norms_on_first_use(monkeypatch):
    import openxxz.gauge
    import openxxz.sov

    calls = {"s_chain": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(openxxz.sov, "s_chain")
    counted(openxxz.gauge, "s_chain")
    # the norm constants are cached by sov_norm_const itself: count its misses
    norm_const = openxxz.sov.sov_norm_const
    norm_const.cache_clear()
    params = random_params(3, seed=1)
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    basis = SovBasis(params, gauge)
    assert calls == {"s_chain": 0} and norm_const.cache_info().misses == 0
    assert basis.chain_gauge is basis.chain_gauge
    assert basis.norm_const(EPS0) == basis.norm_const(EPS0)
    basis.norm_const(EpsChoice(1, -1, -1, 1))
    assert calls == {"s_chain": 1} and norm_const.cache_info().misses == 2
