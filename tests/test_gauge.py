import numpy as np
import pytest

from openxxz import gauge as gauge_mod
from openxxz.trig import random_params, rng_for
from openxxz.lattice import (
    ID2,
    PERM4,
    AuxOp,
    bulk_monodromy,
    embed_aux_pair,
    kmat_generic,
    r6v,
    reflection_residual,
    rel_residual,
    site_op,
    transfer,
    u_minus,
)
from openxxz.gauge import (
    ad_plus,
    bcoef_minus,
    gauge_is_safe,
    k_plus_hat,
    k_sos_minus,
    r_sos,
    s_chain,
    s_local,
    s_local_inv,
    solve_gauge,
    sos_apply,
    sos_block,
    sos_factors,
    t_sos,
    transfer_from_tilde,
    u_sos,
    u_tilde,
    verify_sos_algebra,
    vertex_irf2_residual,
    vertex_irf_residual,
)
from openxxz.sov import raw_states
from gauge_helpers import (
    ad_plus_raw,
    atilde_from_entries,
    bcoef_minus_alt,
    block_raw_states,
    btilde_from_entries,
    dense_sos_blocks,
    m_sos,
    mhat_sos,
    virf_bulk_residual,
    virf_mhat_residual,
)


@pytest.fixture(scope="module")
def setup3():
    params = random_params(3, seed=1)
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    assert gauge_is_safe(gauge, params)
    return params, gauge


@pytest.fixture(scope="module")
def setup5():
    params = random_params(5, seed=1)
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    assert gauge_is_safe(gauge, params)
    return params, gauge


def test_s_local_determinant():
    lam, beta, alpha, eta = 0.4 + 0.2j, 0.7 + 0.15j, 0.3 - 0.2j, 0.8 - 0.1j
    s = s_local(lam, beta, alpha, eta)
    det = np.linalg.det(s)
    assert det == pytest.approx(-2 * np.exp(lam - eta * alpha) * np.sinh(eta * beta))
    assert rel_residual(s @ s_local_inv(lam, beta, alpha, eta), np.eye(2)) < 1e-13
    # singular iff sinh(eta*beta) = 0
    assert abs(np.linalg.det(s_local(lam, 1j * np.pi / eta, alpha, eta))) < 1e-12


def test_r_sos_corners_and_pole():
    lam, beta, eta = 0.4 + 0.2j, 0.7 + 0.15j, 0.8 - 0.1j
    r = r_sos(lam, beta, eta)
    assert r[0, 0] == pytest.approx(np.sinh(lam + eta))
    assert r[3, 3] == pytest.approx(np.sinh(lam + eta))
    with pytest.raises(ValueError):
        r_sos(lam, 1j * np.pi / eta, eta)


def test_array_labels_match_scalar_calls(setup5):
    params, gauge = setup5
    eta, alpha = params.eta, gauge.alpha
    lam = 0.61 - 0.13j
    labels = gauge.beta + np.arange(-6, 7)
    for fn in (lambda b: r_sos(lam, b, eta),
               lambda b: s_local(lam, b, alpha, eta),
               lambda b: s_local_inv(lam, b, alpha, eta),
               lambda b: k_sos_minus(lam, b, params, alpha)):
        stack = fn(labels)
        for label, mat in zip(labels, stack, strict=True):
            ref = fn(complex(label))
            assert mat.shape == ref.shape
            assert np.max(np.abs(mat - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_r_sos_pole_on_any_label():
    lam, eta = 0.4 + 0.2j, 0.8 - 0.1j
    with pytest.raises(ValueError):
        r_sos(lam, np.array([0.7 + 0.15j, 1j * np.pi / eta, 1.3]), eta)


def _per_label_sz_stack(mat_fn, nbits):
    """The earlier form of gauge._sz_stack: one mat_fn call per label."""
    sz = np.zeros(1, dtype=int)
    for _ in range(nbits):
        sz = np.concatenate([sz + 1, sz - 1])
    mats = np.array([mat_fn(np.array([k]))[0] for k in range(-nbits, nbits + 1, 2)])
    return mats[(sz + nbits) // 2]


def _per_site_stacks(lam, params, beta):
    """The earlier form of gauge._site_stacks: one per-label stack per site and point."""
    N = params.N
    lam = np.asarray(lam)
    return [np.array([_per_label_sz_stack(lambda k: r_sos(x[n - 1], beta + k, params.eta), N - n)
                      for x in lam.reshape(-1, N)]).reshape(lam.shape[:-1] + (2 ** (N - n), 4, 4))
            for n in range(1, N + 1)]


def _row_residual(got, ref) -> float:
    """The largest difference of matching rows, relative to the row of ref."""
    diff = np.max(np.abs(got - ref), axis=-1)
    scale = np.max(np.abs(ref), axis=-1)
    return float(np.max(np.where(diff == 0, 0, diff / np.maximum(scale, 1e-300))))


def test_sos_blocks_match_per_label_stacks(setup5, monkeypatch):
    # the kernel's factors come from one r_sos grid per monodromy and one K^SOS
    # stack for all points; built one label, site and point at a time instead
    params, gauge = setup5
    lam = 0.53 + 0.11j
    labels = (gauge.beta - 1, gauge.beta + 1)

    def build():
        return [u_sos(lam, params, label, gauge).blocks for label in labels] \
            + [raw_states(params, gauge, side, label) for side in ("left", "right")
               for label in labels]

    got = build()
    monkeypatch.setattr(gauge_mod, "_sz_stack", _per_label_sz_stack)
    monkeypatch.setattr(gauge_mod, "_site_stacks", _per_site_stacks)
    ref = build()
    for g, r in zip(got, ref, strict=True):
        # the same exact zeros, from S^z conservation
        assert np.array_equal(g == 0, r == 0)
        assert _row_residual(g, r) <= 1e-13


@pytest.mark.parametrize("N", range(1, 8))
def test_sos_apply_matches_dense_blocks(N):
    # the kernel on random row stacks, and the raw states it builds, against
    # the dense block products it replaced
    params = random_params(N, seed=5)
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    assert gauge_is_safe(gauge, params)
    rng = rng_for(N, "sos-apply")
    lam = complex(rng.uniform(0.2, 1.1), rng.uniform(-0.4, 0.4))
    dim = 2 ** N
    vecs = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    for label in (gauge.beta - 1, gauge.beta + 1, gauge.beta - 3):
        blocks = dense_sos_blocks("ABCD", lam, label, params, gauge)
        for side in ("left", "right"):
            factors = sos_factors([lam], label, params, gauge, side)[0]
            for name, block in zip("ABCD", blocks, strict=True):
                ref = vecs @ (block if side == "left" else block.T)
                got = sos_apply(vecs, factors, name)
                assert _row_residual(got, ref) < 1e-12, (label, side, name)
    for side in ("left", "right"):
        for label in (gauge.beta - 1, gauge.beta + 1):
            got = raw_states(params, gauge, side, label)
            assert _row_residual(got, block_raw_states(params, gauge, side, label)) < 1e-12


def test_vertex_irf_relations():
    rng = rng_for(31, "virf")
    eta = 0.74 + 0.12j
    for _ in range(4):
        lam, mu = complex(rng.uniform(0.1, 1.0), rng.uniform(-0.4, 0.4)), \
            complex(rng.uniform(0.1, 1.0), rng.uniform(-0.4, 0.4))
        beta = complex(rng.uniform(0.4, 1.2), rng.uniform(-0.3, 0.3))
        alpha = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
        assert vertex_irf_residual(lam, mu, beta, alpha, eta) < 1e-12
        assert vertex_irf2_residual(lam, mu, beta, alpha, eta) < 1e-12


def test_s_chain_single_site_and_inverse():
    params = random_params(1, seed=14)
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    s = s_chain(params, gauge.beta, gauge.alpha)
    expected = s_local(-params.xi[0], gauge.beta, gauge.alpha, params.eta)
    assert rel_residual(s, expected) < 1e-14
    params3 = random_params(3, seed=15)
    s3 = s_chain(params3, gauge.beta, gauge.alpha)
    assert rel_residual(s3 @ np.linalg.inv(s3), np.eye(8)) < 1e-12


def test_virf_bulk_relations(setup3, setup5):
    lam = 0.43 + 0.19j
    for params, gauge in (setup3, setup5):
        assert virf_bulk_residual(lam, params, gauge) < 1e-10
        assert virf_mhat_residual(lam, params, gauge) < 1e-10


def test_chain_products_match_kron_embedding():
    # reference: every local factor embedded as a dense 2^N x 2^N matrix with
    # site_op krons, site 1 the most significant qubit, the dynamical shift k
    # the total sigma^z of the sites right of n
    def dyn(mat_fn, n, N):
        out = 0
        for c in range(2 ** (N - n)):
            proj = np.zeros((2 ** (N - n),) * 2)
            proj[c, c] = 1
            k = N - n - 2 * bin(c).count("1")
            out = out + np.kron(site_op(mat_fn(k), n, n), proj)
        return out

    def aux_dyn(r4_fn, n, N, site_first):
        out = 0
        for a in range(2):
            for b in range(2):
                e = np.zeros((2, 2))
                e[a, b] = 1

                def block(k):
                    r = r4_fn(k).reshape(2, 2, 2, 2)
                    return r[:, a, :, b] if site_first else r[a, :, b, :]
                out = out + np.kron(e, dyn(block, n, N))
        return out

    lam = 0.61 - 0.27j
    for N in range(1, 6):
        params = random_params(N, seed=50 + N)
        gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
        beta, alpha, eta, xi = gauge.beta, gauge.alpha, params.eta, params.xi
        s = np.eye(2 ** N)
        bulk = msos = mhat = np.eye(2 ** (N + 1))
        for n in range(N, 0, -1):
            bulk = bulk @ aux_dyn(lambda k: r6v(lam - xi[n - 1] - eta / 2, eta), n, N, False)
            s = s @ dyn(lambda k: s_local(-xi[n - 1], beta + k, alpha, eta), n, N)
            msos = msos @ aux_dyn(
                lambda k: r_sos(lam - xi[n - 1] - eta / 2, beta + k, eta), n, N, True)
        for n in range(1, N + 1):
            mhat = mhat @ aux_dyn(
                lambda k: r_sos(lam + xi[n - 1] - eta / 2, beta + k, eta), n, N, False)
        assert rel_residual(bulk_monodromy(lam, params).full(), bulk) < 1e-12
        assert rel_residual(s_chain(params, beta, alpha), s) < 1e-12
        assert rel_residual(m_sos(lam, params, beta).full(), msos) < 1e-12
        assert rel_residual(mhat_sos(lam, params, beta).full(), mhat) < 1e-12


def test_m_sos_single_site():
    params = random_params(1, seed=16)
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    lam = 0.7 - 0.3j
    m = m_sos(lam, params, gauge.beta)
    r = r_sos(lam - params.xi[0] - params.eta / 2, gauge.beta, params.eta)
    for a in range(2):
        for b in range(2):
            expected = np.array([[r[2 * s + a, 2 * t + b] for t in range(2)]
                                 for s in range(2)])
            assert rel_residual(m.blocks[a, b], expected) < 1e-13


def test_gauged_entries_linear_combinations(setup3):
    params, gauge = setup3
    lam, beta = 0.43 + 0.19j, 0.8 + 0.3j
    ut = u_tilde(lam, params, beta, gauge.alpha)
    assert rel_residual(atilde_from_entries(lam, params, beta, gauge.alpha), ut.A) < 1e-12
    assert rel_residual(btilde_from_entries(lam, params, beta, gauge.alpha), ut.B) < 1e-12
    utm = u_tilde(lam, params, -beta, gauge.alpha)
    assert rel_residual(ut.A, utm.D) < 1e-13
    assert rel_residual(ut.B, utm.C) < 1e-13


def test_boundary_bulk_decomposition(setup3, setup5):
    # reference: the paper's definition, Utilde conjugated by the chain gauge;
    # rows A, B at label+1 and C, D at label-1, columns A, C at label+1 and
    # B, D at label-1
    lam = 0.57 - 0.22j
    for params, gauge in (setup3, setup5):
        beta, alpha = gauge.beta, gauge.alpha
        ut = u_tilde(lam, params, beta, alpha)
        s_up, s_dn = s_chain(params, beta + 1, alpha), s_chain(params, beta - 1, alpha)
        ref = [[np.linalg.solve(sl, ut.blocks[a, b] @ sr)
                for b, sr in enumerate((s_up, s_dn))]
               for a, sl in enumerate((s_up, s_dn))]
        assert rel_residual(u_sos(lam, params, beta, gauge).full(), AuxOp(ref).full()) < 1e-10


def test_u_sos_equals_single_blocks(setup3, setup5):
    # u_sos builds its factors once; each block must equal its own sos_block
    lam = 0.63 + 0.17j
    for params, gauge in (setup3, setup5):
        blocks = u_sos(lam, params, gauge.beta, gauge).blocks
        for name, (a, b) in (("A", (0, 0)), ("B", (0, 1)), ("C", (1, 0)), ("D", (1, 1))):
            single = sos_block(name, lam, gauge.beta, params, gauge)
            assert rel_residual(blocks[a, b], single) < 1e-14


def _dyn_reflection(lam, mu, params, gauge, u_at):
    beta = gauge.beta
    return reflection_residual(lam, mu, params.eta, lambda x: r_sos(x, beta, params.eta),
                               lambda x: (u_at(x, beta + 1), u_at(x, beta - 1)))


def test_dynamical_reflection(setup3):
    params, gauge = setup3
    lam, mu = 0.4 + 0.2j, 0.9 - 0.3j
    assert _dyn_reflection(lam, mu, params, gauge,
                           lambda x, lbl: u_sos(x, params, lbl, gauge)) < 1e-9
    assert _dyn_reflection(lam, mu, params, gauge,
                           lambda x, lbl: u_tilde(x, params, lbl, gauge.alpha)) < 1e-9


# The three reflection residuals that the one kernel replaced, kept as references.

def _reflection_scalar_ref(lam, mu, sigma, kappa, tau, eta):
    k1 = np.kron(kmat_generic(lam, sigma, kappa, tau, eta), ID2)
    k2 = np.kron(ID2, kmat_generic(mu, sigma, kappa, tau, eta))
    r_lm = r6v(lam - mu, eta)
    r_lpm = r6v(lam + mu - eta, eta)
    return rel_residual(r_lm @ k1 @ r_lpm @ k2, k2 @ r_lpm @ k1 @ r_lm)


def _embed_aux_pair_ref(op_at, slot):
    ops = [op_at(0), op_at(1)]
    full = np.zeros((4 * ops[0].dim, 4 * ops[0].dim), dtype=complex)
    for c, op in enumerate(ops):
        proj = np.zeros((2, 2), dtype=complex)
        proj[c, c] = 1
        for a in range(2):
            for b in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[a, b] = 1
                pair = np.kron(e, proj) if slot == 1 else np.kron(proj, e)
                full += np.kron(pair, op.blocks[a, b])
    return full


def _reflection_operator_ref(lam, mu, params):
    eye = np.eye(2 ** params.N, dtype=complex)
    u1 = _embed_aux_pair_ref(lambda c: u_minus(lam, params), 1)
    u2 = _embed_aux_pair_ref(lambda c: u_minus(mu, params), 2)
    r_lm = np.kron(r6v(lam - mu, params.eta), eye)
    r_lpm = np.kron(r6v(lam + mu - params.eta, params.eta), eye)
    return rel_residual(r_lm @ u1 @ r_lpm @ u2, u2 @ r_lpm @ u1 @ r_lm)


def _dyn_reflection_ref(lam, mu, params, gauge, u_at):
    beta, eta = gauge.beta, params.eta
    eye = np.eye(2 ** params.N, dtype=complex)

    def r21(r4):
        return np.kron(PERM4 @ r4 @ PERM4, eye)

    u1 = _embed_aux_pair_ref(lambda c: u_at(lam, beta + (1 - 2 * c)), 1)
    u2 = _embed_aux_pair_ref(lambda c: u_at(mu, beta + (1 - 2 * c)), 2)
    r_lm, r_lpm = r_sos(lam - mu, beta, eta), r_sos(lam + mu - eta, beta, eta)
    lhs = r21(r_lm) @ u1 @ np.kron(r_lpm, eye) @ u2
    rhs = u2 @ r21(r_lpm) @ u1 @ np.kron(r_lm, eye)
    return rel_residual(lhs, rhs)


def test_reflection_residual_matches_separate_forms(setup3):
    rng = rng_for(27, "refl-pin")
    params, gauge = setup3
    b, eta = params.boundary_minus, params.eta
    for _ in range(3):
        lam = complex(rng.uniform(0.1, 1.2), rng.uniform(-0.5, 0.5))
        mu = complex(rng.uniform(0.1, 1.2), rng.uniform(-0.5, 0.5))
        ref = _reflection_scalar_ref(lam, mu, b.sigma, b.kappa, b.tau, eta)
        got = reflection_residual(
            lam, mu, eta, lambda x: r6v(x, eta),
            lambda x: AuxOp.from_scalar_matrix(kmat_generic(x, b.sigma, b.kappa, b.tau, eta), 1))
        assert got == ref
        ref = _reflection_operator_ref(lam, mu, params)
        got = reflection_residual(lam, mu, eta, lambda x: r6v(x, eta),
                                  lambda x: u_minus(x, params))
        assert got == ref
        for u_at in (lambda x, lbl: u_sos(x, params, lbl, gauge),
                     lambda x, lbl: u_tilde(x, params, lbl, gauge.alpha)):
            assert _dyn_reflection(lam, mu, params, gauge, u_at) \
                == _dyn_reflection_ref(lam, mu, params, gauge, u_at)
    # a dynamical pair is embedded block by block, a single AuxOp on both states
    u = u_minus(0.4 + 0.2j, params)
    w = u_sos(0.4 + 0.2j, params, gauge.beta + 1, gauge)
    for slot in (1, 2):
        assert np.array_equal(embed_aux_pair(u, slot), _embed_aux_pair_ref(lambda c: u, slot))
        assert np.array_equal(embed_aux_pair((u, w), slot),
                              _embed_aux_pair_ref(lambda c: (u, w)[c], slot))


def test_sos_quantum_determinant(setup3):
    from openxxz.lattice import qdet_u_minus
    params, gauge = setup3
    eta = params.eta
    lam = 0.52 + 0.11j
    beta = gauge.beta
    scalar = qdet_u_minus(lam, params) / np.sinh(2 * lam - 2 * eta)
    a_p = sos_block("A", eta / 2 + lam, beta, params, gauge)
    a_m = sos_block("A", eta / 2 - lam, beta, params, gauge)
    b_p = sos_block("B", eta / 2 + lam, beta, params, gauge)
    c_m = sos_block("C", eta / 2 - lam, beta, params, gauge)
    lhs = a_p @ a_m + b_p @ c_m
    assert rel_residual(lhs, scalar * np.eye(2 ** params.N)) < 1e-9


def test_k_sos_b_factorization(setup3):
    params, gauge = setup3
    eta = params.eta
    beta = 0.81 + 0.23j
    vals = []
    for lam in (0.3 + 0.1j, 0.7 - 0.2j, 1.1 + 0.3j, 0.5 + 0.45j, 0.95 - 0.05j):
        k = k_sos_minus(lam, beta, params, gauge.alpha)
        vals.append(k[0, 1] / (np.exp(lam - eta / 2) * np.sinh(2 * lam - eta)))
    vals = np.array(vals)
    assert np.max(np.abs(vals - vals[0])) / abs(vals[0]) < 1e-11
    assert abs(vals[0] - bcoef_minus(beta, gauge, params)) / abs(vals[0]) < 1e-11
    assert abs(bcoef_minus(beta, gauge, params)
               - bcoef_minus_alt(beta, gauge, params)) < 1e-12
    k1 = k_sos_minus(0.6 + 0.2j, beta, params, gauge.alpha)
    k2 = k_sos_minus(0.6 + 0.2j, -beta, params, gauge.alpha)
    assert abs(k1[0, 1] - k2[1, 0]) / abs(k1[0, 1]) < 1e-13


def test_solve_gauge_branches():
    params = random_params(3, seed=1)
    eta = params.eta
    bp = params.boundary_plus
    # equal-sign branches diagonalize the gauged K_+
    for ep in (1, -1):
        gauge = solve_gauge(bp, ep, ep, eta)
        for lam in (0.37 - 0.21j, 0.9 + 0.3j):
            k = k_plus_hat(lam, params, gauge)
            assert max(abs(k[0, 1]), abs(k[1, 0])) < 1e-11 * np.linalg.norm(k)
        # defining conditions hold at the solution
        r1 = np.sinh(eta * (gauge.beta - gauge.alpha) - bp.tau) - np.sinh(bp.beta - bp.alpha)
        r2 = np.sinh(eta * (gauge.beta + gauge.alpha) + bp.tau) - np.sinh(bp.alpha - bp.beta)
        assert abs(r1) < 1e-12 and abs(r2) < 1e-12
    # mixed-sign branches force eta*beta onto the dynamical pole lattice
    for ep, epp in ((1, -1), (-1, 1)):
        with pytest.raises(ValueError):
            solve_gauge(bp, ep, epp, eta)


def test_ad_plus_forms(setup3):
    params, gauge = setup3
    eta = params.eta
    lam = 0.52 + 0.31j
    k = k_plus_hat(lam, params, gauge)
    ar, dr = ad_plus_raw(lam, gauge.beta, gauge.alpha, params)
    ac, dc = ad_plus(lam, params.boundary_plus, gauge.eps_plus, eta)
    assert abs(k[0, 0] - ar) < 1e-12 * abs(ar)
    assert abs(k[1, 1] - dr) < 1e-12 * abs(dr)
    assert abs(ar - ac) < 1e-11 * abs(ac)
    assert abs(dr - dc) < 1e-11 * abs(dc)


def test_ad_plus_symmetries(setup3):
    params, _ = setup3
    bp = params.boundary_plus
    eta = params.eta
    lam = 0.9 - 0.4j
    from dataclasses import replace
    a1, d1 = ad_plus(lam, bp, 1, eta)
    flipped = replace(bp, alpha=-bp.alpha, beta=-bp.beta)
    a2, d2 = ad_plus(lam, flipped, 1, eta)
    assert a1 == pytest.approx(d2)
    # zero of a_+ at lam = -eta/2 - eps*alpha_+
    a0, _ = ad_plus(-eta / 2 - bp.alpha, bp, 1, eta)
    assert abs(a0) < 1e-12


def test_transfer_routes(setup3):
    params, gauge = setup3
    lam = 0.43 + 0.19j
    t_direct = transfer(lam, params)
    assert rel_residual(transfer_from_tilde(lam, params, gauge), t_direct) < 1e-10
    ts = t_sos(lam, params, gauge)
    s = s_chain(params, gauge.beta, gauge.alpha)
    assert rel_residual(s @ ts @ np.linalg.inv(s), t_direct) < 1e-10


def test_t_sos_spectrum_matches():
    for N in (2, 3):
        params = random_params(N, seed=60 + N)
        gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
        lam = 0.61 - 0.13j
        ev1 = np.sort_complex(np.linalg.eigvals(transfer(lam, params)))
        ev2 = np.sort_complex(np.linalg.eigvals(t_sos(lam, params, gauge)))
        assert np.max(np.abs(ev1 - ev2)) / np.max(np.abs(ev1)) < 1e-9


def test_sos_algebra_relations(setup3):
    params, gauge = setup3
    for name, res in verify_sos_algebra(params, gauge, seed=5):
        bound = 1e-9 if name == "comm-AB" else 1e-10
        assert res < bound, f"{name}: {res}"
