"""Vertex-IRF gauge machinery.

Local and chain gauge matrices, the dynamical SOS R-matrix, gauged boundary
monodromies in both the "tilde" (auxiliary-space only) and full SOS forms,
the gauge-parameter solution that diagonalizes the + boundary matrix, and
the SOS transfer matrix.

Dynamical parameters that depend on spin operators are realized by diagonal
action on the sigma^z product basis: an operator-valued argument beta + S
becomes a direct sum of scalar evaluations over the S-eigenspaces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .trig import DELTA_MIN, ModelParams, BoundaryParams, dist_to_ipi_lattice
from .lattice import (
    PERM4,
    AuxOp,
    ID2,
    apply_boundary,
    apply_local,
    kmat_minus,
    kmat_plus,
    rel_residual,
    u_minus,
)

_IPI = 1j * np.pi
# smallest distance of beta from the integers and of eta beta from i pi Z
GAUGE_DELTA_MIN = 1e-2
# index form of PERM4, the swap of the two legs of C^2 (x) C^2
_SWAP = [0, 2, 1, 3]


@dataclass(frozen=True)
class GaugeParams:
    """Gauge shift alpha, dynamical parameter beta and the branch signs."""

    alpha: complex
    beta: complex
    eps_plus: int = 1
    eps_plus_prime: int = 1


def s_local(lam, beta, alpha, eta) -> np.ndarray:
    """Local Vertex-IRF matrix S(lam | beta) with spectral shift alpha.

    For arrays of lam and beta it stacks one 2x2 matrix per broadcast pair."""
    out = np.ones(np.broadcast_shapes(np.shape(lam), np.shape(beta)) + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(lam - eta * (beta + alpha))
    out[..., 0, 1] = np.exp(lam + eta * (beta - alpha))
    return out


def s_local_inv(lam, beta, alpha, eta) -> np.ndarray:
    s = s_local(lam, beta, alpha, eta)
    det = s[..., 0, 0] - s[..., 0, 1]
    out = np.empty_like(s)
    out[..., 0, 0], out[..., 0, 1] = 1, -s[..., 0, 1]
    out[..., 1, 0], out[..., 1, 1] = -1, s[..., 0, 0]
    return out / det[..., None, None]


def r_sos(lam, beta, eta) -> np.ndarray:
    """Trigonometric SOS (dynamical) R-matrix, stacked over broadcast lam and beta.

    A scalar beta keeps numpy's scalar arithmetic, whose complex division
    rounds differently from the array loop."""
    sb = np.sinh(eta * beta)
    if np.any(np.abs(sb) < 1e-14):
        raise ValueError("dynamical pole: sinh(eta*beta) = 0")
    sl, se, sle = np.sinh(lam), np.sinh(eta), np.sinh(lam + eta)
    out = np.zeros(np.broadcast_shapes(np.shape(lam), np.shape(beta)) + (4, 4), dtype=complex)
    out[..., 0, 0] = out[..., 3, 3] = sle
    out[..., 1, 1] = np.sinh(eta * (beta + 1)) / sb * sl
    out[..., 1, 2] = np.sinh(lam + eta * beta) / sb * se
    out[..., 2, 1] = np.sinh(eta * beta - lam) / sb * se
    out[..., 2, 2] = np.sinh(eta * (beta - 1)) / sb * sl
    return out


# ---------------------------------------------------------------------------
# Dynamical factors on the chain.  Site 1 is the most significant qubit; the
# shift sum_{j>n} sigma_j^z is diagonal in the product basis.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _sz_index(nbits: int) -> np.ndarray:
    """Index into the labels -nbits, -nbits+2, ..., nbits of each sigma^z
    configuration of nbits sites, in basis order (bit 0 = up)."""
    sz = np.zeros(1, dtype=int)
    for _ in range(nbits):
        sz = np.concatenate([sz + 1, sz - 1])
    idx = (sz + nbits) // 2
    idx.flags.writeable = False
    return idx


def _sz_stack(mat_fn, nbits: int) -> np.ndarray:
    """mat_fn(k) for each sigma^z configuration of nbits sites, in basis order,
    with k the configuration's total sigma^z; mat_fn is called once, on the
    array of the nbits + 1 distinct values of k."""
    return mat_fn(np.arange(-nbits, nbits + 1, 2))[_sz_index(nbits)]


def s_chain(params: ModelParams, beta, alpha) -> np.ndarray:
    """Chain gauge matrix S_{1...N}({xi} | beta)."""
    N, eta = params.N, params.eta
    out = np.eye(2 ** N, dtype=complex)
    for n in range(N, 0, -1):
        out = apply_local(out, _sz_stack(
            lambda k: s_local(-params.xi[n - 1], beta + k, alpha, eta), N - n), n)
    return out


def _site_stacks(lam, params: ModelParams, beta) -> list:
    """The ``_sz_stack`` of r_sos(lam[..., n - 1], beta + k) for each site n,
    read from one r_sos call on the grid of (points,) sites and shifts
    k = -(N-1)..N-1; lam holds one value per site in its last axis."""
    N = params.N
    # labels as a row keep the numpy loops, and so the bits, of per-site stacks
    grid = r_sos(np.asarray(lam)[..., None], beta + np.arange(1 - N, N)[None, :], params.eta)
    return [grid[..., n - 1, n - 1 + 2 * _sz_index(N - n), :, :] for n in range(1, N + 1)]


# ---------------------------------------------------------------------------
# Gauged boundary monodromies.
# ---------------------------------------------------------------------------

def u_tilde(lam, params: ModelParams, beta, alpha) -> AuxOp:
    """S_0^{-1}(-lam+eta/2 | beta) U_-(lam) S_0(lam-eta/2 | beta)."""
    eta = params.eta
    u = u_minus(lam, params)
    left = s_local_inv(-lam + eta / 2, beta, alpha, eta)
    right = s_local(lam - eta / 2, beta, alpha, eta)
    return u.left_scalar(left).right_scalar(right)


def sos_factors(lam, label, params: ModelParams, gauge: GaugeParams, side: str) -> list:
    """Local factors of the SOS boundary monodromy at each point of lam.

    U^SOS(lam | label) = M^SOS K^SOS_-(lam | label + S^z) Mhat^SOS, with
    M^SOS = F_N ... F_1 and Mhat^SOS = G_1 ... G_N.  One entry (side, pre,
    k, post) per point of the 1-D array lam, for ``sos_apply``: pre and post
    hold one stack per site, k the K^SOS_- stack over the sigma^z
    configurations of the chain.  Bras ("left") take (F_n, K, G_n), kets
    ("right") their transposes (G_n^T, K^T, F_n^T); both run pre at sites
    N..1, k, then post at sites 1..N.  One r_sos call per monodromy and one
    K^SOS_- stack serve all points."""
    N, eta = params.N, params.eta
    lam, xi = np.asarray(lam), np.asarray(params.xi)
    # swapping the two legs moves the site leg of R_{n0} second, as
    # apply_local expects
    m = [s[..., _SWAP, :][..., _SWAP]
         for s in _site_stacks(lam[:, None] - xi - eta / 2, params, label)]
    mhat = _site_stacks(lam[:, None] + xi - eta / 2, params, label)
    k = _sz_stack(lambda c: k_sos_minus(lam, label + c[:, None], params, gauge.alpha), N)
    if side == "left":
        pre, post = m, mhat
    else:
        pre, post = [s.swapaxes(-1, -2) for s in mhat], [s.swapaxes(-1, -2) for s in m]
        k = k.swapaxes(-1, -2)
    return [(side, [s[p] for s in pre], k[:, p], [s[p] for s in post]) for p in range(len(lam))]


def sos_apply(vecs, factors, name=None) -> np.ndarray:
    """The SOS boundary monodromy applied to a stack of rows, factor by factor.

    ``factors`` is one entry of ``sos_factors``.  Rows of aux (x) H (shape
    (rows, 2 * 2^N)) come back as vecs @ U^SOS on the left side and as
    (U^SOS @ vecs^T)^T on the right side.  With a block name, vecs is a
    (rows, 2^N) stack and only that block X acts: vecs @ X on the left,
    (X @ vecs^T)^T on the right.  The factors run through
    ``lattice.apply_boundary``, the kernel of the vertex U_- as well.
    """
    side, pre, k, post = factors
    if name is not None:
        a, b = divmod("ABCD".index(name), 2)
        a, b = (a, b) if side == "left" else (b, a)
        rows, dim = vecs.shape
        full = np.zeros((rows, 2 * dim), dtype=np.result_type(vecs, complex))
        full[:, a * dim:(a + 1) * dim] = vecs
        return sos_apply(full, factors)[:, b * dim:(b + 1) * dim]
    return apply_boundary(vecs, pre, k, post)


def sos_block(name: str, lam, label, params: ModelParams, gauge: GaugeParams) -> np.ndarray:
    """Entry (a, b) of the SOS boundary monodromy at dynamical label ``label``.

    Read from ``sos_apply`` on the identity rows: local dynamical factors
    only, so the entries that vanish by S^z conservation stay exact zeros.
    Equal to the paper's S^{-1}(label +- 1) Utilde S(label +- 1), which the
    tests keep as the reference.
    """
    factors = sos_factors([lam], label, params, gauge, "left")[0]
    return sos_apply(np.eye(2 ** params.N, dtype=complex), factors, name)


def u_sos(lam, params: ModelParams, beta, gauge: GaugeParams) -> AuxOp:
    """Full SOS boundary monodromy at dynamical label beta."""
    factors = sos_factors([lam], beta, params, gauge, "left")[0]
    return AuxOp.from_full(sos_apply(np.eye(2 ** (params.N + 1), dtype=complex), factors))


def k_sos_minus(lam, beta, params: ModelParams, alpha) -> np.ndarray:
    """Gauged scalar boundary matrix S_0^{-1}(-lam+eta/2) K_-(lam) S_0(lam-eta/2),
    stacked over an array of beta."""
    eta = params.eta
    return s_local_inv(-lam + eta / 2, beta, alpha, eta) @ kmat_minus(lam, params) \
        @ s_local(lam - eta / 2, beta, alpha, eta)


def bcoef_minus(beta, gauge: GaugeParams, params: ModelParams) -> complex:
    """Reduced off-diagonal coefficient b_-(beta) of the gauged K_-."""
    b = params.boundary_minus
    eta = params.eta
    pref = np.exp(eta * beta) / (2 * np.sinh(eta * beta) * np.sinh(b.sigma))
    return complex(pref * (2 * b.kappa * np.sinh(eta * (beta - gauge.alpha) - b.tau)
                           - np.exp(b.sigma)))


def k_plus_hat(lam, params: ModelParams, gauge: GaugeParams) -> np.ndarray:
    """Modified gauged K_+ whose off-diagonal entries vanish at the solved gauge."""
    eta = params.eta
    left = s_local_inv(lam - eta / 2, gauge.beta, gauge.alpha - 1, eta)
    right = s_local(eta / 2 - lam, gauge.beta, gauge.alpha + 1, eta)
    return left @ kmat_plus(lam, params) @ right


def ad_plus(lam, boundary_plus: BoundaryParams, eps_plus: int, eta):
    """Closed forms of the diagonal gauged K_+ entries for a given branch."""
    ap, bep = boundary_plus.alpha, boundary_plus.beta
    denom = np.sinh(ap) * np.cosh(bep)
    if abs(denom) < 1e-14:
        raise ValueError("degenerate boundary: sinh(alpha+) cosh(beta+) = 0")
    e = np.exp(-lam - eta / 2)
    a = eps_plus * e * np.sinh(lam + eta / 2 + eps_plus * ap) \
        * np.cosh(lam + eta / 2 - eps_plus * bep) / denom
    d = -eps_plus * e * np.sinh(lam + eta / 2 - eps_plus * ap) \
        * np.cosh(lam + eta / 2 + eps_plus * bep) / denom
    return complex(a), complex(d)


def solve_gauge(boundary_plus: BoundaryParams, eps_plus: int, eps_plus_prime: int,
                eta) -> GaugeParams:
    """Gauge parameters (alpha, beta) making the gauged K_+ diagonal.

    The two defining conditions are only invariant under *joint* i*pi shifts
    of eta*alpha and eta*beta, so representatives are normalized jointly and
    validated against the actual off-diagonal entries.
    """
    ep, epp = eps_plus, eps_plus_prime
    dif = boundary_plus.alpha - boundary_plus.beta
    ea = -boundary_plus.tau + (epp - ep) / 2 * dif - (ep + epp) / 4 * _IPI
    eb = (ep + epp) / 2 * dif + (2 + ep - epp) / 4 * _IPI

    shift = -_IPI * np.round(eb.imag / np.pi)
    ea, eb = ea + shift, eb + shift
    ea -= 2 * _IPI * np.round(ea.imag / (2 * np.pi))

    best = None
    for da in (0, _IPI):
        for db in (0, _IPI):
            alpha = (ea + da) / eta
            beta = (eb + db) / eta
            r1 = abs(2 * boundary_plus.kappa
                     * np.sinh(eta * (beta - alpha) - boundary_plus.tau)
                     - np.exp(-boundary_plus.sigma))
            r2 = abs(2 * boundary_plus.kappa
                     * np.sinh(eta * (beta + alpha) + boundary_plus.tau)
                     + np.exp(-boundary_plus.sigma))
            if best is None or r1 + r2 < best[0]:
                best = (r1 + r2, alpha, beta)
    _, alpha, beta = best
    gauge = GaugeParams(alpha=complex(alpha), beta=complex(beta),
                        eps_plus=ep, eps_plus_prime=epp)
    if abs(beta - round(beta.real)) < GAUGE_DELTA_MIN \
            or dist_to_ipi_lattice(eta * beta) < GAUGE_DELTA_MIN:
        # mixed-sign branches (eps_plus != eps_plus_prime) always land here:
        # the two diagonality conditions then force eta*beta into i*pi*Z
        raise ValueError("gauge beta degenerate on this eps branch; retry with others")
    return gauge


def gauge_is_safe(gauge: GaugeParams, params: ModelParams) -> bool:
    """No dynamical pole sinh(eta(beta+k)) ~ 0 for the shifts this chain uses."""
    for k in range(-params.N - 2, params.N + 3):
        if dist_to_ipi_lattice(params.eta * (gauge.beta + k)) < DELTA_MIN:
            return False
    return True


# ---------------------------------------------------------------------------
# Transfer matrix in the gauged variables.
# ---------------------------------------------------------------------------

def transfer_from_tilde(lam, params: ModelParams, gauge: GaugeParams) -> np.ndarray:
    """T(lam) from the diagonal gauged K_+ and the tilde boundary operators."""
    eta = params.eta
    beta = gauge.beta
    ap, dp = ad_plus(lam, params.boundary_plus, gauge.eps_plus, eta)
    at = u_tilde(lam, params, beta - 1, gauge.alpha).A
    dt = u_tilde(lam, params, beta + 1, gauge.alpha).D
    return np.exp(eta) / np.sinh(eta * beta) * (
        ap * np.sinh(eta * (beta - 1)) * at + dp * np.sinh(eta * (beta + 1)) * dt)


def t_sos(lam, params: ModelParams, gauge: GaugeParams) -> np.ndarray:
    """SOS transfer matrix built from A^SOS(.|beta-1) and D^SOS(.|beta+1)."""
    eta = params.eta
    beta = gauge.beta
    ap, dp = ad_plus(lam, params.boundary_plus, gauge.eps_plus, eta)
    a_sos = sos_block("A", lam, beta - 1, params, gauge)
    d_sos = sos_block("D", lam, beta + 1, params, gauge)
    return np.exp(eta) / np.sinh(eta * beta) * (
        ap * np.sinh(eta * (beta - 1)) * a_sos + dp * np.sinh(eta * (beta + 1)) * d_sos)


# ---------------------------------------------------------------------------
# Verification of the dynamical reflection algebra (Appendix relations).
# ---------------------------------------------------------------------------

def _s_dyn(lam, beta, alpha, eta, site: int) -> np.ndarray:
    """S(lam | beta + sigma^z of the other site) on site 1 or 2 of C^2 x C^2."""
    out = np.zeros((4, 4), dtype=complex)
    for s in range(2):
        proj = np.zeros((2, 2), dtype=complex)
        proj[s, s] = 1
        s_loc = s_local(lam, beta + (1 - 2 * s), alpha, eta)
        out += np.kron(s_loc, proj) if site == 1 else np.kron(proj, s_loc)
    return out


def vertex_irf_residual(lam, mu, beta, alpha, eta) -> float:
    """Local Vertex-IRF intertwining residual on C^2 x C^2."""
    from .lattice import r6v
    lhs = r6v(lam - mu, eta) @ np.kron(s_local(lam, beta, alpha, eta), ID2) \
        @ _s_dyn(mu, beta, alpha, eta, 2)
    rhs = np.kron(ID2, s_local(mu, beta, alpha, eta)) @ _s_dyn(lam, beta, alpha, eta, 1) \
        @ r_sos(lam - mu, beta, eta)
    return rel_residual(lhs, rhs)


def vertex_irf2_residual(lam, mu, beta, alpha, eta) -> float:
    """Second form of the Vertex-IRF relation, with the permuted SOS matrix."""
    from .lattice import r6v

    r_sos21 = PERM4 @ r_sos(lam - mu, beta, eta) @ PERM4
    lhs = r6v(lam - mu, eta) @ np.kron(ID2, s_local(-mu, beta, alpha, eta)) \
        @ _s_dyn(-lam, beta, alpha, eta, 1)
    rhs = np.kron(s_local(-lam, beta, alpha, eta), ID2) @ _s_dyn(-mu, beta, alpha, eta, 2) \
        @ r_sos21
    return rel_residual(lhs, rhs)


def verify_sos_algebra(params: ModelParams, gauge: GaugeParams, seed: int = 0):
    """Residuals of the commutation and parity relations of the gauged algebra.

    Returns a list of (name, residual) pairs evaluated at seeded spectral
    points, using the SOS form of the boundary operators.
    """
    from .trig import rng_for
    rng = rng_for(seed, "sos-algebra")
    eta = params.eta
    beta = gauge.beta
    lam = complex(rng.uniform(0.2, 1.1), rng.uniform(-0.4, 0.4))
    mu = complex(rng.uniform(0.2, 1.1), rng.uniform(-0.4, 0.4))

    def blk(name, lamv, label):
        return sos_block(name, lamv, label, params, gauge)

    out = []

    bb_l = blk("B", lam, beta + 1) @ blk("B", mu, beta - 1)
    bb_r = blk("B", mu, beta + 1) @ blk("B", lam, beta - 1)
    out.append(("comm-BB", rel_residual(bb_l, bb_r)))

    a_l, a_m = blk("A", lam, beta), blk("A", mu, beta)
    coef = np.sinh(eta) * np.sinh(lam + mu - eta * beta) \
        / (np.sinh(lam + mu) * np.sinh(eta * (beta - 1)))
    rhs = coef * (blk("B", lam, beta) @ blk("C", mu, beta)
                  - blk("B", mu, beta) @ blk("C", lam, beta))
    out.append(("comm-AA", rel_residual(a_l @ a_m - a_m @ a_l, rhs)))

    d_l, d_m = blk("D", lam, beta), blk("D", mu, beta)
    coef = np.sinh(eta) * np.sinh(lam + mu + eta * beta) \
        / (np.sinh(lam + mu) * np.sinh(eta * (beta + 1)))
    rhs = coef * (blk("C", mu, beta) @ blk("B", lam, beta)
                  - blk("C", lam, beta) @ blk("B", mu, beta))
    out.append(("comm-DD", rel_residual(d_l @ d_m - d_m @ d_l, rhs)))

    lhs = blk("A", mu, beta + 1) @ blk("B", lam, beta + 1)
    c1 = np.sinh(lam + mu - eta) * np.sinh(lam - mu + eta) \
        / (np.sinh(lam + mu) * np.sinh(lam - mu))
    c2 = np.sinh(lam + mu - eta) * np.sinh(eta) * np.sinh(lam - mu + eta * beta) \
        / (np.sinh(lam + mu) * np.sinh(lam - mu) * np.sinh(eta * beta))
    c3 = np.sinh(eta) * np.sinh(lam + mu - eta * (beta + 1)) \
        / (np.sinh(lam + mu) * np.sinh(eta * beta))
    rhs = c1 * blk("B", lam, beta + 1) @ blk("A", mu, beta - 1) \
        - c2 * blk("B", mu, beta + 1) @ blk("A", lam, beta - 1) \
        + c3 * blk("B", mu, beta + 1) @ blk("D", lam, beta + 1)
    out.append(("comm-AB", rel_residual(lhs, rhs)))

    lhs = blk("B", lam, beta - 1) @ blk("D", mu, beta - 1)
    c2 = np.sinh(lam + mu - eta) * np.sinh(eta) * np.sinh(lam - mu - eta * beta) \
        / (np.sinh(lam + mu) * np.sinh(lam - mu) * np.sinh(eta * beta))
    c3 = np.sinh(eta) * np.sinh(lam + mu + eta * (beta - 1)) \
        / (np.sinh(lam + mu) * np.sinh(eta * beta))
    rhs = c1 * blk("D", mu, beta + 1) @ blk("B", lam, beta - 1) \
        + c2 * blk("D", lam, beta + 1) @ blk("B", mu, beta - 1) \
        - c3 * blk("A", lam, beta - 1) @ blk("B", mu, beta - 1)
    out.append(("comm-BD", rel_residual(lhs, rhs)))

    # parity relations
    e2l = np.exp(2 * lam)
    lhs = e2l * np.sinh(2 * lam - eta) * blk("A", -lam, beta - 1)
    rhs = np.sinh(eta * (beta + 1)) / np.sinh(eta * beta) * np.sinh(2 * lam) \
        * blk("D", lam, beta + 1) \
        - np.sinh(2 * lam + eta * beta) / np.sinh(eta * beta) * np.sinh(eta) \
        * blk("A", lam, beta - 1)
    out.append(("parity-A", rel_residual(lhs, rhs)))

    lhs = e2l * np.sinh(2 * lam - eta) * blk("D", -lam, beta + 1)
    rhs = np.sinh(eta * (beta - 1)) / np.sinh(eta * beta) * np.sinh(2 * lam) \
        * blk("A", lam, beta - 1) \
        + np.sinh(2 * lam - eta * beta) / np.sinh(eta * beta) * np.sinh(eta) \
        * blk("D", lam, beta + 1)
    out.append(("parity-D", rel_residual(lhs, rhs)))

    lhs = e2l * np.sinh(2 * lam - eta) * blk("B", -lam, beta)
    rhs = -np.sinh(2 * lam + eta) * blk("B", lam, beta)
    out.append(("parity-B", rel_residual(lhs, rhs)))

    lhs = e2l * np.sinh(2 * lam - eta) * blk("C", -lam, beta)
    rhs = -np.sinh(2 * lam + eta) * blk("C", lam, beta)
    out.append(("parity-C", rel_residual(lhs, rhs)))

    return out
