import mpmath as mp
import numpy as np
import pytest

from openxxz import gauge, lattice, sov
from openxxz.trig import random_params, rng_for, varsigma
from openxxz.spectrum import brute_spectrum
from openxxz.gauge import gauge_is_safe, solve_gauge, sos_block
from openxxz.lattice import (
    AuxOp,
    SZ,
    apply_boundary,
    apply_local,
    bulk_monodromy,
    hamiltonian,
    kmat_generic,
    kmat_minus,
    kmat_plus,
    mhat,
    qdet_k_minus,
    qdet_m,
    qdet_u_minus,
    r6v,
    reflection_residual,
    rel_residual,
    traceless,
    transfer,
    transfer_alt,
    u_minus,
    yang_baxter_residual,
)
from gauge_helpers import dense_transfer, dense_u_minus, loop_sos_apply


@pytest.fixture(scope="module")
def params3():
    return random_params(3, seed=1)


def rand_lam(rng):
    return complex(rng.uniform(0.1, 1.2), rng.uniform(-0.5, 0.5))


def test_r6v_entries_and_permutation_point():
    lam, eta = 0.37 + 0.21j, 0.8 - 0.1j
    r = r6v(lam, eta)
    assert r[0, 0] == pytest.approx(np.sinh(lam + eta))
    perm = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert rel_residual(r6v(0.0, eta), np.sinh(eta) * perm) < 1e-14


def test_yang_baxter():
    rng = rng_for(21, "ybe")
    for _ in range(5):
        assert yang_baxter_residual(rand_lam(rng), rand_lam(rng), 0.7 + 0.2j) < 1e-12


def test_kmat_identity_at_eta_half(params3):
    k = kmat_minus(params3.eta / 2, params3)
    assert rel_residual(k, np.eye(2)) < 1e-14


def test_kmat_reflection_equation(params3):
    rng = rng_for(22, "refl")
    b = params3.boundary_minus
    eta = params3.eta
    for _ in range(4):
        res = reflection_residual(
            rand_lam(rng), rand_lam(rng), eta, lambda x: r6v(x, eta),
            lambda x: AuxOp.from_scalar_matrix(kmat_generic(x, b.sigma, b.kappa, b.tau, eta), 1))
        assert res < 1e-12


def test_qdet_k_minus_closed_form(params3):
    # N = 0 specialization of the quantum determinant of the reflection algebra
    b = params3.boundary_minus
    eta = params3.eta
    rng = rng_for(23, "qdetk")
    for _ in range(4):
        lam = rand_lam(rng)
        kp = kmat_generic(eta / 2 + lam, b.sigma, b.kappa, b.tau, eta)
        km = kmat_generic(eta / 2 - lam, b.sigma, b.kappa, b.tau, eta)
        scalar = kp[0, 0] * km[0, 0] + kp[0, 1] * km[1, 0]
        closed = qdet_k_minus(lam, b, eta) / np.sinh(2 * lam - 2 * eta)
        assert abs(scalar - closed) / abs(closed) < 1e-12


def test_bulk_monodromy_single_site():
    params = random_params(1, seed=4)
    lam = 0.9 - 0.2j
    m = bulk_monodromy(lam, params)
    r = r6v(lam - params.xi[0] - params.eta / 2, params.eta)
    for a in range(2):
        for b in range(2):
            expect = np.array([[r[2 * a + s, 2 * b + t] for t in range(2)]
                               for s in range(2)])
            assert rel_residual(m.blocks[a, b], expect) < 1e-14


def test_bulk_quantum_determinant(params3):
    lam = 0.61 + 0.17j
    mp = bulk_monodromy(lam + params3.eta / 2, params3)
    mm = bulk_monodromy(lam - params3.eta / 2, params3)
    op = mp.A @ mm.D - mp.B @ mm.C
    scalar = qdet_m(lam, params3)
    assert rel_residual(op, scalar * np.eye(2 ** params3.N)) < 1e-10


def test_bulk_rtt_relation(params3):
    # RTT on aux1 x aux2 x H
    rng = rng_for(25, "rtt")
    lam, mu = rand_lam(rng), rand_lam(rng)

    def emb(op, which):
        dim = op.dim
        full = np.zeros((4 * dim, 4 * dim), dtype=complex)
        for a in range(2):
            for b in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[a, b] = 1
                pair = (e, np.eye(2)) if which == 1 else (np.eye(2), e)
                full += np.kron(np.kron(*pair), op.blocks[a, b])
        return full

    for params in (params3, random_params(5, seed=1)):
        m1 = emb(bulk_monodromy(lam, params), 1)
        m2 = emb(bulk_monodromy(mu, params), 2)
        r = np.kron(r6v(lam - mu, params.eta), np.eye(2 ** params.N))
        assert rel_residual(r @ m1 @ m2, m2 @ m1 @ r) < 1e-10


def test_mhat_involution(params3):
    lam = 0.53 - 0.31j
    m = bulk_monodromy(lam, params3)
    mm = mhat(-lam, params3)
    # applying the hat transform twice recovers M
    recovered = (-1) ** params3.N * AuxOp(
        mm.t0().left_scalar(np.array([[0, -1j], [1j, 0]]))
        .right_scalar(np.array([[0, -1j], [1j, 0]])).blocks)
    assert rel_residual(recovered.full(), m.full()) < 1e-12


def test_u_minus_special_values(params3):
    eta = params3.eta
    dim = 2 ** params3.N
    u = u_minus(eta / 2, params3)
    val = (-1) ** params3.N * qdet_m(0, params3)
    assert rel_residual(u.full(), val * np.eye(2 * dim)) < 1e-12
    u2 = u_minus(eta / 2 + 1j * np.pi / 2, params3)
    val2 = 1j / np.tanh(params3.boundary_minus.sigma) * qdet_m(1j * np.pi / 2, params3)
    target = AuxOp.from_scalar_matrix(val2 * SZ, dim).full()
    assert rel_residual(u2.full(), target) < 1e-12


def test_u_minus_reflection_equation():
    rng = rng_for(26, "urefl")
    for N in (2, 3):
        params = random_params(N, seed=30 + N)
        res = reflection_residual(rand_lam(rng), rand_lam(rng), params.eta,
                                  lambda x: r6v(x, params.eta), lambda x: u_minus(x, params))
        assert res < 1e-10


def test_inversion_relation(params3):
    lam = 0.52 + 0.11j
    eta = params3.eta
    prod = u_minus(lam + eta / 2, params3) @ u_minus(-lam + eta / 2, params3)
    scalar = qdet_u_minus(lam, params3) / np.sinh(2 * lam - 2 * eta)
    assert rel_residual(prod.full(), scalar * np.eye(2 * 2 ** params3.N)) < 1e-9


def test_qdet_u_operator_forms(params3):
    lam = 0.47 - 0.23j
    eta = params3.eta
    dim = 2 ** params3.N
    up = u_minus(eta / 2 + lam, params3)
    um = u_minus(eta / 2 - lam, params3)
    scalar = qdet_u_minus(lam, params3) / np.sinh(2 * lam - 2 * eta)
    f1 = up.A @ um.A + up.B @ um.C
    f2 = up.D @ um.D + up.C @ um.B
    assert rel_residual(f1, scalar * np.eye(dim)) < 1e-10
    assert rel_residual(f2, scalar * np.eye(dim)) < 1e-10
    # consistency at lam = eta/2 with the scalar value of U_-(eta/2)
    assert qdet_u_minus(0, params3) / np.sinh(-2 * eta) == pytest.approx(
        qdet_m(0, params3) ** 2, rel=1e-10)


def test_transfer_trace_forms(params3):
    rng = rng_for(27, "traces")
    for _ in range(3):
        lam = rand_lam(rng)
        assert rel_residual(transfer(lam, params3), transfer_alt(lam, params3)) < 1e-11


def test_commuting_family():
    rng = rng_for(28, "comm")
    for N in (2, 3, 4):
        params = random_params(N, seed=40 + N)
        for _ in range(3):
            lam, mu = rand_lam(rng), rand_lam(rng)
            t1, t2 = transfer(lam, params), transfer(mu, params)
            comm = np.linalg.norm(t1 @ t2 - t2 @ t1)
            assert comm / (np.linalg.norm(t1) * np.linalg.norm(t2)) < 1e-11


def test_transfer_special_values(params3):
    eta = params3.eta
    dim = 2 ** params3.N
    t1 = transfer(eta / 2, params3)
    v1 = 2 * (-1) ** params3.N * np.cosh(eta) * qdet_m(0, params3)
    assert rel_residual(t1, v1 * np.eye(dim)) < 1e-12
    t2 = transfer(eta / 2 + 1j * np.pi / 2, params3)
    bm, bp = params3.boundary_minus, params3.boundary_plus
    v2 = -2 * np.cosh(eta) * qdet_m(1j * np.pi / 2, params3) \
        / (np.tanh(bp.sigma) * np.tanh(bm.sigma))
    assert rel_residual(t2, v2 * np.eye(dim)) < 1e-12


def test_transfer_asymptotics(params3):
    bm, bp = params3.boundary_minus, params3.boundary_plus
    coef = bp.kappa * bm.kappa * np.cosh(bp.tau - bm.tau) \
        / (2 ** (2 * params3.N + 1) * np.sinh(bp.sigma) * np.sinh(bm.sigma))
    dim = 2 ** params3.N
    for lam in (25.0, -25.0):
        t = transfer(lam, params3) * np.exp(-2 * (params3.N + 2) * abs(lam))
        assert rel_residual(t, coef * np.eye(dim)) < 1e-6


def test_transfer_polynomial_interpolation(params3):
    # T(lam) is a matrix polynomial of degree N+2 in varsigma: N+3 samples
    # reconstruct it exactly at held-out points.
    N = params3.N
    rng = rng_for(29, "interp")
    pts = [rand_lam(rng) for _ in range(N + 3)]
    vs = [varsigma(p) for p in pts]
    ts = [transfer(p, params3) for p in pts]
    for _ in range(5):
        lam = rand_lam(rng)
        vt = varsigma(lam)
        acc = np.zeros_like(ts[0])
        for i in range(len(pts)):
            w = 1.0 + 0j
            for j in range(len(pts)):
                if j != i:
                    w *= (vt - vs[j]) / (vs[i] - vs[j])
            acc += w * ts[i]
        assert rel_residual(acc, transfer(lam, params3)) < 1e-8


def test_hamiltonian_modes_agree():
    params = random_params(3, seed=2).with_xi((0, 0, 0))
    hd = hamiltonian(params, "direct")
    ht = hamiltonian(params, "from_transfer")
    assert rel_residual(traceless(hd), traceless(ht)) < 1e-7


def test_hamiltonian_from_transfer_requires_homogeneous():
    params = random_params(3, seed=2)
    with pytest.raises(ValueError):
        hamiltonian(params, "from_transfer")


def test_hamiltonian_diagonal_boundary_limit():
    # kappa -> 0 removes the sigma^x, sigma^y boundary terms
    from openxxz.trig import BoundaryParams, ModelParams
    bm = BoundaryParams(sigma=0.9, kappa=1e-14, tau=0.2, alpha=0, beta=0)
    bp = BoundaryParams(sigma=1.2, kappa=1e-14, tau=-0.1, alpha=0, beta=0)
    params = ModelParams(N=2, eta=0.6, xi=(0, 0), boundary_minus=bm, boundary_plus=bp)
    h = hamiltonian(params, "direct")
    from openxxz.lattice import SX, SY, site_op
    for mat in (SX, SY):
        for n in (1, 2):
            coef = np.trace(site_op(mat, n, 2) @ h) / 4
            assert abs(coef) < 1e-12


def test_hamiltonian_hermitian_for_real_fields():
    # real eta, sigma, kappa and imaginary tau give hermitian boundary fields
    from openxxz.trig import ModelParams, reparam_boundary
    bm = reparam_boundary(0.9, 0.4, 0.3j)
    bp = reparam_boundary(1.1, 0.7, -0.2j)
    params = ModelParams(N=3, eta=0.55, xi=(0, 0, 0),
                         boundary_minus=bm, boundary_plus=bp)
    h = hamiltonian(params, "direct")
    assert np.linalg.norm(h - h.conj().T) < 1e-12
    # with tau real instead, H is a real (asymmetric) matrix
    bm2 = reparam_boundary(0.9, 0.4, 0.3)
    bp2 = reparam_boundary(1.1, 0.7, -0.2)
    params2 = ModelParams(N=3, eta=0.55, xi=(0, 0, 0),
                          boundary_minus=bm2, boundary_plus=bp2)
    h2 = hamiltonian(params2, "direct")
    assert np.linalg.norm(h2.imag) < 1e-12


def _einsum_apply_local(op, factor, n):
    """The earlier form of apply_local, one einsum per factor: the reference."""
    aux = isinstance(op, AuxOp)
    mat = op.full() if aux else op
    rows, cols = mat.shape
    a = factor.shape[-1] // 2
    left = 2 ** (n - 1)
    right = cols // (2 * a * left)
    stack = np.broadcast_to(factor, (right, 2 * a, 2 * a)).reshape(right, a, 2, a, 2)
    out = np.einsum("ibltc,cbtus->iulsc", mat.reshape(rows, a, left, 2, right), stack,
                    optimize=True)
    out = out.reshape(rows, cols)
    return AuxOp.from_full(out) if aux else out


def test_apply_local_matches_einsum_bitwise():
    rng = rng_for(31, "apply-local")

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for N in range(1, 8):
        dim = 2 ** N
        for n in range(1, N + 1):
            for op, k in ((cplx(dim, dim), 2), (AuxOp(cplx(2, 2, dim, dim)), 4)):
                for factor in (cplx(k, k), cplx(2 ** (N - n), k, k)):
                    got = apply_local(op, factor, n)
                    ref = _einsum_apply_local(op, factor, n)
                    if isinstance(op, AuxOp):
                        got, ref = got.full(), ref.full()
                    assert np.array_equal(got, ref), (N, n, k, factor.ndim)


def _to_mpc(arr):
    """Object array of mpmath complex numbers with the values of arr."""
    return np.array([mp.mpc(z) for z in np.ravel(arr)], dtype=object).reshape(np.shape(arr))


def test_kernels_keep_wide_dtypes():
    # object arrays of mpc and clongdouble stay in their dtype through
    # apply_local and the AuxOp methods, and agree with the complex kernels
    rng = rng_for(32, "wide-kernels")

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def close(got, ref, dtype):
        assert got.dtype == dtype
        got = np.asarray(got, dtype=complex)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    # complex input is kept as it is, real input is promoted
    blocks = cplx(2, 2, 3, 3)
    assert AuxOp(blocks).blocks is blocks
    assert AuxOp(blocks.real).blocks.dtype == complex
    m2 = cplx(2, 2)
    with mp.workdps(30):
        for widen, dtype in ((_to_mpc, object), (lambda a: a.astype(np.clongdouble),
                                                 np.clongdouble)):
            for N in range(1, 5):
                dim = 2 ** N
                for n in range(1, N + 1):
                    for op, k in ((cplx(dim, dim), 2), (AuxOp(cplx(2, 2, dim, dim)), 4)):
                        aux = isinstance(op, AuxOp)
                        wide = AuxOp(widen(op.blocks)) if aux else widen(op)
                        if aux:
                            assert wide.blocks.dtype == dtype
                        for factor in (cplx(k, k), cplx(2 ** (N - n), k, k)):
                            got = apply_local(wide, widen(factor), n)
                            ref = apply_local(op, factor, n)
                            if aux:
                                got, ref = got.blocks, ref.blocks
                            close(got, ref, dtype)
                aux_op = AuxOp(cplx(2, 2, dim, dim))
                wide = AuxOp(widen(aux_op.blocks))
                for got, ref in ((wide.left_scalar(m2), aux_op.left_scalar(m2)),
                                 (wide.right_scalar(m2), aux_op.right_scalar(m2)),
                                 (wide.t0() @ wide, aux_op.t0() @ aux_op),
                                 (wide * -1, aux_op * -1)):
                    close(got.blocks, ref.blocks, dtype)


@pytest.mark.parametrize("N, seed", [(3, 1), (5, 35)])
def test_brute_spectrum_bitwise_against_einsum_kernel(monkeypatch, N, seed):
    params = random_params(N, seed=seed)
    got = brute_spectrum(params)
    monkeypatch.setattr(lattice, "apply_local", _einsum_apply_local)
    ref = brute_spectrum(params)
    for g, r in zip(got, ref, strict=True):
        assert np.array_equal(g.coeffs, r.coeffs)
        assert np.array_equal(g.eigvec_right, r.eigvec_right)
        assert np.array_equal(g.eigvec_left, r.eigvec_left)


@pytest.mark.parametrize("N", range(1, 7))
def test_row_built_monodromy_matches_dense_product(N):
    # apply_boundary on identity rows against bulk_monodromy . K_- . mhat,
    # for a scalar lam and for a lam array, and against the second trace form
    params = random_params(N, seed=N)
    rng = rng_for(33, "row-built", N)
    lams = np.array([rand_lam(rng) for _ in range(4)])
    stacked = transfer(lams, params)
    assert stacked.shape == (len(lams), 2 ** N, 2 ** N)
    for lam, t_arr in zip(lams, stacked, strict=True):
        ref, t_scalar = dense_transfer(lam, params), transfer(lam, params)
        assert rel_residual(t_arr, ref) < 1e-13
        assert rel_residual(t_scalar, ref) < 1e-13
        assert rel_residual(t_scalar, transfer_alt(lam, params)) < 1e-13
        assert rel_residual(u_minus(lam, params).full(),
                            dense_u_minus(lam, params).full()) < 1e-13


@pytest.mark.parametrize("N", range(1, 7))
def test_sos_states_bitwise_against_loop(N, monkeypatch):
    # sos_apply through lattice.apply_boundary keeps the bits of its own loop
    params = random_params(N, seed=3)
    g = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    assert gauge_is_safe(g, params)
    lam = 0.73 - 0.18j
    labels = (g.beta - 1, g.beta + 1)

    def build():
        states = [sov.raw_states(params, g, side, label)
                  for side in ("left", "right") for label in labels]
        blocks = [sos_block(name, lam, label, params, g) for name in "ABCD" for label in labels]
        return states + blocks

    got = build()
    monkeypatch.setattr(sov, "sos_apply", loop_sos_apply)
    monkeypatch.setattr(gauge, "sos_apply", loop_sos_apply)
    ref = build()
    for a, b in zip(got, ref, strict=True):
        assert np.array_equal(a, b)


def test_apply_boundary_keeps_wide_dtypes():
    # mpc objects and clongdouble rows and factors stay in their dtype, with
    # K constant (a broadcast view) and one per configuration
    rng = rng_for(34, "wide-boundary")

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    N = 3
    dim = 2 ** N
    vecs = cplx(3, 2 * dim)
    pre = [cplx(4, 4), cplx(2 ** (N - 2), 4, 4), cplx(4, 4)]
    post = [cplx(4, 4), cplx(4, 4), cplx(4, 4)]
    with mp.workdps(30):
        for k in (np.broadcast_to(cplx(2, 2), (dim, 2, 2)), cplx(dim, 2, 2)):
            ref = apply_boundary(vecs, pre, k, post)
            for widen, dtype in ((_to_mpc, object), (lambda a: a.astype(np.clongdouble),
                                                     np.clongdouble)):
                got = apply_boundary(widen(vecs), [widen(f) for f in pre], widen(k),
                                     [widen(f) for f in post])
                assert got.dtype == dtype
                got = np.asarray(got, dtype=complex)
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
