"""Helpers shared by the test modules: closed forms with no caller in the
package, the dense SOS monodromies and the gauge relations they satisfy,
and the dense references that the row-stack kernels replaced."""

import numpy as np

from openxxz.gauge import (
    _SWAP,
    GaugeParams,
    _site_stacks,
    _sz_stack,
    k_sos_minus,
    s_chain,
    s_local,
)
from openxxz.lattice import (
    AuxOp,
    apply_local,
    bulk_monodromy,
    kmat_minus,
    kmat_plus,
    mhat,
    rel_residual,
    u_minus,
)
from openxxz.trig import ModelParams


def bcoef_minus_alt(beta, gauge: GaugeParams, params: ModelParams) -> complex:
    """Same coefficient through the (alpha_-, beta_-) parametrization."""
    b = params.boundary_minus
    eta = params.eta
    pref = b.kappa * np.exp(eta * beta) / (np.sinh(eta * beta) * np.sinh(b.sigma))
    return complex(pref * (np.sinh(eta * (beta - gauge.alpha) - b.tau)
                           - np.sinh(b.alpha + b.beta)))


def ad_plus_raw(lam, beta, alpha, params: ModelParams):
    """Diagonal entries of the gauged K_+ in their raw beta-dependent form."""
    bp = params.boundary_plus
    eta = params.eta

    def a_of(beta):
        pref = np.exp(-lam - eta / 2) / (2 * np.sinh(eta * beta) * np.sinh(bp.sigma))
        return pref * (np.exp(bp.sigma) * np.sinh(eta * beta)
                       - np.exp(-bp.sigma) * np.sinh(2 * lam + eta + eta * beta)
                       - 2 * bp.kappa * np.sinh(eta * alpha + bp.tau) * np.sinh(2 * lam + eta))

    return complex(a_of(beta)), complex(a_of(-beta))


def atilde_from_entries(lam, params: ModelParams, beta, alpha) -> np.ndarray:
    """Linear-combination form of the gauged entry Atilde."""
    eta = params.eta
    u = u_minus(lam, params)
    return (1 / (2 * np.sinh(eta * beta))) * (
        -np.exp(2 * lam - eta - eta * beta) * u.A
        - np.exp(lam - eta / 2 + eta * alpha) * u.B
        + np.exp(lam - eta / 2 - eta * alpha) * u.C
        + np.exp(eta * beta) * u.D)


def btilde_from_entries(lam, params: ModelParams, beta, alpha) -> np.ndarray:
    """Linear-combination form of the gauged entry Btilde."""
    eta = params.eta
    u = u_minus(lam, params)
    return (1 / (2 * np.sinh(eta * beta))) * (
        -np.exp(2 * lam - eta + eta * beta) * u.A
        - np.exp(lam - eta / 2 + eta * alpha) * u.B
        + np.exp(lam - eta / 2 + eta * (2 * beta - alpha)) * u.C
        + np.exp(eta * beta) * u.D)


# The dense SOS monodromies, and the Vertex-IRF relations that tie them to the
# vertex-model monodromies.

def s_chain_aux(params: ModelParams, beta, alpha) -> AuxOp:
    """S_{1...N}({xi} | beta + sigma_0^z), block diagonal in the aux space."""
    up = s_chain(params, beta + 1, alpha)
    dn = s_chain(params, beta - 1, alpha)
    z = np.zeros_like(up)
    return AuxOp([[up, z], [z, dn]])


def s_aux_dyn(lam, beta, alpha, params: ModelParams) -> AuxOp:
    """S_0(lam | beta + S^z): scalar gauge matrix with shift by the total spin,
    its (a, b) block diagonal over the sigma^z configurations."""
    stack = _sz_stack(lambda k: s_local(lam, beta + k, alpha, params.eta), params.N)
    dim = len(stack)
    blocks = np.zeros((2, 2, dim, dim), dtype=complex)
    blocks[:, :, np.arange(dim), np.arange(dim)] = stack.transpose(1, 2, 0)
    return AuxOp(blocks)


def m_sos(lam, params: ModelParams, beta) -> AuxOp:
    """Gauged bulk monodromy: ordered product of dynamical R_{n0} factors."""
    N = params.N
    stacks = _site_stacks(lam - np.array(params.xi) - params.eta / 2, params, beta)
    out = AuxOp.identity(2 ** N)
    for n in range(N, 0, -1):
        # swapping the two legs moves the site leg of R_{n0} second, as
        # apply_local expects
        out = apply_local(out, stacks[n - 1][:, _SWAP][:, :, _SWAP], n)
    return out


def mhat_sos(lam, params: ModelParams, beta) -> AuxOp:
    """Gauged hat monodromy: ordered product of dynamical R_{0n} factors."""
    N = params.N
    stacks = _site_stacks(lam + np.array(params.xi) - params.eta / 2, params, beta)
    out = AuxOp.identity(2 ** N)
    for n in range(1, N + 1):
        out = apply_local(out, stacks[n - 1], n)
    return out


def virf_bulk_residual(lam, params: ModelParams, gauge: GaugeParams) -> float:
    """Residual of the bulk gauge relation between M and M^SOS."""
    beta, alpha = gauge.beta, gauge.alpha
    eta = params.eta
    m = bulk_monodromy(lam, params)
    schain = s_chain(params, beta, alpha)
    lhs = AuxOp(m.blocks @ schain) @ s_aux_dyn(-lam + eta / 2, beta, alpha, params)
    s0 = s_local(-lam + eta / 2, beta, alpha, eta)
    rhs = s_chain_aux(params, beta, alpha).left_scalar(s0) @ m_sos(lam, params, beta)
    return rel_residual(lhs.full(), rhs.full())


def virf_mhat_residual(lam, params: ModelParams, gauge: GaugeParams) -> float:
    """Residual of the hat-monodromy gauge relation."""
    beta, alpha = gauge.beta, gauge.alpha
    eta = params.eta
    mh = mhat(lam, params)
    s0 = s_local(lam - eta / 2, beta, alpha, eta)
    schain = s_chain(params, beta, alpha)
    lhs = mh.right_scalar(s0) @ s_chain_aux(params, beta, alpha)
    rhs_right = s_aux_dyn(lam - eta / 2, beta, alpha, params) @ mhat_sos(lam, params, beta)
    rhs = AuxOp(schain @ rhs_right.blocks)
    return rel_residual(lhs.full(), rhs.full())


# The block-building route that gauge.sos_apply replaced, kept as the reference.

def dense_sos_blocks(names, lam, label, params: ModelParams, gauge: GaugeParams) -> list:
    """The named blocks of M^SOS K^SOS_- Mhat^SOS as dense 2^N x 2^N matrices,
    from the dense monodromies m_sos and mhat_sos: block (a, b) is
    sum_{c,d} M^SOS_{ac} diag(K^SOS_{cd}) Mhat^SOS_{db}."""
    k_sos = _sz_stack(lambda k: k_sos_minus(lam, label + k, params, gauge.alpha), params.N)
    m = m_sos(lam, params, label).blocks
    mhat = mhat_sos(lam, params, label).blocks
    out = []
    for name in names:
        a, b = {"A": (0, 0), "B": (0, 1), "C": (1, 0), "D": (1, 1)}[name]
        # sum_d diag(K_cd) Mhat_db, then one matmul over (c, columns of M_ac)
        right = np.einsum("icd,dij->cij", k_sos, mhat[:, b])
        out.append(np.concatenate(m[a], axis=1) @ np.concatenate(right, axis=0))
    return out


def block_raw_states(params: ModelParams, gauge: GaugeParams, side: str, label) -> np.ndarray:
    """sov.raw_states from dense D (right) or A (left) blocks, one per site."""
    N, eta = params.N, params.eta
    dim = 2 ** N
    states = np.zeros((1, dim), dtype=complex)
    if side == "right":
        states[0, -1] = 1.0
        for j in range(N - 1, -1, -1):
            op, = dense_sos_blocks("D", params.xi[j] + eta / 2, label, params, gauge)
            states = np.concatenate([states, states @ op.T])
        return states
    states[0, 0] = 1.0
    for j in range(N):
        op, = dense_sos_blocks("A", eta / 2 - params.xi[j], label, params, gauge)
        states = np.stack([states @ op, states], axis=1).reshape(-1, dim)
    return states


def loop_sos_apply(vecs, factors, name=None) -> np.ndarray:
    """gauge.sos_apply with its factor loop written out, as it was before the
    loop moved to lattice.apply_boundary: the bitwise reference."""
    side, pre, k, post = factors
    if name is not None:
        a, b = divmod("ABCD".index(name), 2)
        a, b = (a, b) if side == "left" else (b, a)
        rows, dim = vecs.shape
        full = np.zeros((rows, 2 * dim), dtype=np.result_type(vecs, complex))
        full[:, a * dim:(a + 1) * dim] = vecs
        return loop_sos_apply(full, factors)[:, b * dim:(b + 1) * dim]
    for n in range(len(pre), 0, -1):
        vecs = apply_local(vecs, pre[n - 1], n)
    vecs = np.einsum("rci,icd->rdi", vecs.reshape(len(vecs), 2, -1), k).reshape(len(vecs), -1)
    for n in range(1, len(post) + 1):
        vecs = apply_local(vecs, post[n - 1], n)
    return vecs


# The dense vertex route that lattice.u_minus and lattice.transfer replaced.

def dense_u_minus(lam, params: ModelParams) -> AuxOp:
    """U_-(lam) as the dense product M(lam) K_-(lam) Mhat(lam)."""
    m = bulk_monodromy(lam, params)
    return m.right_scalar(kmat_minus(lam, params)) @ mhat(lam, params)


def dense_transfer(lam, params: ModelParams) -> np.ndarray:
    """tr_0 { K_+(lam) U_-(lam) } from dense_u_minus."""
    return dense_u_minus(lam, params).left_scalar(kmat_plus(lam, params)).tr0()
