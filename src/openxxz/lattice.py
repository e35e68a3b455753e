"""Dense realization of the vertex-model objects.

Operators live on aux (x) H with the auxiliary space leftmost and site 1 as
the most significant qubit of the 2^N quantum factor.  Operator-valued 2x2
auxiliary structure is kept explicit through :class:`AuxOp`.

Every factor of a monodromy is local to one site and applied in place by
:func:`apply_local`.  The boundary monodromy U_-(lam) = M K_- Mhat and the
transfer matrix tr_0 K_+ U_- are built on the identity rows of aux (x) H by
:func:`apply_boundary`, one local factor at a time, the kernel the SOS
boundary monodromy of :mod:`openxxz.gauge` runs as well.  ``bulk_monodromy``,
``mhat``, ``u_plus`` and ``transfer_alt`` stay on dense :class:`AuxOp`
products: they are the independent second trace form.
"""

from __future__ import annotations

import numpy as np

from .trig import ModelParams, BoundaryParams, bulk_a, bulk_d

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_SY0 = np.kron(SY, ID2)  # sigma^y on the aux leg of aux (x) site
TRANSFER_STEP = 1e-5  # finite-difference step of the Hamiltonian from the transfer matrix


def site_op(mat2, n: int, N: int) -> np.ndarray:
    """Embed a 2x2 matrix at site n (1-based) of an N-site chain."""
    out = np.eye(1, dtype=complex)
    for j in range(1, N + 1):
        out = np.kron(out, mat2 if j == n else ID2)
    return out


class AuxOp:
    """Operator on aux (x) H stored as a 2x2 array of quantum-space blocks, at
    least complex: wider dtypes (clongdouble, objects such as mpc) are kept."""

    def __init__(self, blocks):
        blocks = np.asarray(blocks)
        self.blocks = blocks.astype(np.promote_types(blocks.dtype, complex), copy=False)
        if self.blocks.shape[:2] != (2, 2) or self.blocks.shape[2] != self.blocks.shape[3]:
            raise ValueError("blocks must be a 2x2 array of square matrices")

    @property
    def dim(self) -> int:
        return self.blocks.shape[2]

    @classmethod
    def identity(cls, dim: int) -> "AuxOp":
        return cls.from_full(np.eye(2 * dim, dtype=complex))

    @classmethod
    def from_scalar_matrix(cls, mat2, dim: int) -> "AuxOp":
        eye = np.eye(dim, dtype=complex)
        return cls([[mat2[0, 0] * eye, mat2[0, 1] * eye],
                    [mat2[1, 0] * eye, mat2[1, 1] * eye]])

    @classmethod
    def from_full(cls, mat) -> "AuxOp":
        """View a 2*dim x 2*dim matrix (aux leftmost) as a 2x2 array of blocks."""
        dim = mat.shape[0] // 2
        return cls(mat.reshape(2, dim, 2, dim).transpose(0, 2, 1, 3))

    def full(self) -> np.ndarray:
        """Reassemble the 2*dim x 2*dim matrix (aux leftmost)."""
        return self.blocks.transpose(0, 2, 1, 3).reshape(2 * self.dim, 2 * self.dim)

    def __matmul__(self, other: "AuxOp") -> "AuxOp":
        return AuxOp.from_full(self.full() @ other.full())

    def __mul__(self, scalar) -> "AuxOp":
        return AuxOp(self.blocks * scalar)

    __rmul__ = __mul__

    def t0(self) -> "AuxOp":
        """Transpose in the auxiliary space only."""
        return AuxOp(self.blocks.transpose(1, 0, 2, 3))

    def tr0(self) -> np.ndarray:
        """Partial trace over the auxiliary space."""
        return self.blocks[0, 0] + self.blocks[1, 1]

    def left_scalar(self, mat2) -> "AuxOp":
        """Multiply by a scalar 2x2 auxiliary matrix from the left."""
        return AuxOp(np.einsum("ik,kjab->ijab", np.asarray(mat2, self.blocks.dtype), self.blocks))

    def right_scalar(self, mat2) -> "AuxOp":
        return AuxOp(np.einsum("ikab,kj->ijab", self.blocks, np.asarray(mat2, self.blocks.dtype)))

    @property
    def A(self):
        return self.blocks[0, 0]

    @property
    def B(self):
        return self.blocks[0, 1]

    @property
    def C(self):
        return self.blocks[1, 0]

    @property
    def D(self):
        return self.blocks[1, 1]


def apply_local(op, factor, n: int):
    """op @ F for a factor F local to site n (1-based), without embedding F.

    F is 2x2 on site n, or 4x4 on aux (x) site n with aux as the first tensor
    leg: an :class:`AuxOp`, or a stack of rows on aux (x) H (shape
    (rows, 2 * 2^N)), takes a 4x4 factor.  ``factor`` may instead be
    a stack with one such matrix per sigma^z configuration of the sites right
    of n (shape (2^(N-n), k, k), configurations in basis order), each applied
    on its own configuration: the dynamical SOS case.  The column index splits
    into (aux, left sites, site n, right sites); moved to (right sites,
    aux x site n, rows x left sites), the transposed product is one batched
    matmul F^T @ op^T, O(size of op) work instead of a dense matmul.  It is
    the operand order ``np.einsum(..., optimize=True)`` uses for the same
    contraction; the tests pin the two to the last bit.
    """
    aux = isinstance(op, AuxOp)
    mat = op.full() if aux else op
    rows, cols = mat.shape
    a = factor.shape[-1] // 2
    left = 2 ** (n - 1)
    right = cols // (2 * a * left)
    m = mat.reshape(rows, a, left, 2, right).transpose(4, 1, 3, 0, 2)
    out = np.swapaxes(factor, -1, -2) @ m.reshape(right, 2 * a, rows * left)
    out = out.reshape(right, a, 2, rows, left).transpose(3, 1, 4, 2, 0).reshape(rows, cols)
    return AuxOp.from_full(out) if aux else out


def apply_boundary(vecs, pre, k, post) -> np.ndarray:
    """vecs @ P_N ... P_1 K Q_1 ... Q_N on a stack of rows of aux (x) H.

    The boundary-monodromy kernel of the vertex and the SOS sides.  ``pre``
    and ``post`` hold the 4x4 factor (or per-configuration stack, see
    :func:`apply_local`) of each site 1..N; the pre factors act at sites
    N..1, then K on the auxiliary space only, then the post factors at sites
    1..N.  K is a stack of 2x2 matrices, one per sigma^z configuration of
    the chain in basis order (a broadcast view for a constant K).  Rows come
    back in the dtype of the inputs; no 2^N x 2^N matrix is formed.
    """
    for n in range(len(pre), 0, -1):
        vecs = apply_local(vecs, pre[n - 1], n)
    vecs = np.einsum("rci,icd->rdi", vecs.reshape(len(vecs), 2, -1), k).reshape(len(vecs), -1)
    for n in range(1, len(post) + 1):
        vecs = apply_local(vecs, post[n - 1], n)
    return vecs


def r6v(lam, eta) -> np.ndarray:
    """Trigonometric 6-vertex R-matrix on C^2 (x) C^2, stacked over lam."""
    sl, se = np.sinh(lam), np.sinh(eta)
    sle = np.sinh(lam + eta)
    out = np.zeros(np.shape(lam) + (4, 4), dtype=complex)
    out[..., 0, 0] = out[..., 3, 3] = sle
    out[..., 1, 1] = out[..., 2, 2] = sl
    out[..., 1, 2] = out[..., 2, 1] = se
    return out


def kmat_generic(lam, sigma, kappa, tau, eta) -> np.ndarray:
    """General scalar reflection matrix K(lam; sigma, kappa, tau), stacked over lam."""
    if abs(np.sinh(sigma)) < 1e-14:
        raise ValueError("sinh(sigma) = 0: singular boundary normalization")
    off = kappa * np.sinh(2 * lam - eta)
    out = np.array([[np.sinh(lam - eta / 2 + sigma), off * np.exp(tau)],
                    [off * np.exp(-tau), np.sinh(sigma - lam + eta / 2)]],
                   dtype=complex) / np.sinh(sigma)
    return np.moveaxis(out, (0, 1), (-2, -1))


def kmat_minus(lam, params: ModelParams) -> np.ndarray:
    b = params.boundary_minus
    return kmat_generic(lam, b.sigma, b.kappa, b.tau, params.eta)


def kmat_plus(lam, params: ModelParams) -> np.ndarray:
    b = params.boundary_plus
    return kmat_generic(lam + params.eta, b.sigma, b.kappa, b.tau, params.eta)


def bulk_monodromy(lam, params: ModelParams) -> AuxOp:
    """M(lam) = R_{0N}(lam - xi_N - eta/2) ... R_{01}(lam - xi_1 - eta/2)."""
    N = params.N
    out = AuxOp.identity(2 ** N)
    for n in range(N, 0, -1):
        out = apply_local(out, r6v(lam - params.xi[n - 1] - params.eta / 2, params.eta), n)
    return out


def mhat(lam, params: ModelParams) -> AuxOp:
    """(-1)^N sigma0^y M^{t0}(-lam) sigma0^y."""
    m = bulk_monodromy(-lam, params).t0()
    return (-1) ** params.N * m.left_scalar(SY).right_scalar(SY)


def _u_minus_factors(lam, params: ModelParams):
    """Factors of U_-(lam) for ``apply_boundary`` at each point of the 1-D array lam.

    The pre factors are R_{0n}(lam - xi_n - eta/2), K is K_-(lam), and the
    post factors sigma_0^y R_{0n}^{t0}(-lam - xi_n - eta/2) sigma_0^y are
    those of Mhat(lam) up to its sign (-1)^N: the quantum parts of different
    sites commute, so the aux transpose of M(-lam) is the product of the
    transposed factors in reverse order.  Shapes (points, N, 4, 4), and
    (points, 2^N, 2, 2) for K_-, the same matrix for every configuration."""
    eta, xi = params.eta, np.asarray(params.xi)
    pre = r6v(lam[:, None] - xi - eta / 2, eta)
    r_hat = r6v(-lam[:, None] - xi - eta / 2, eta)
    r_hat_t0 = r_hat.reshape(r_hat.shape[:2] + (2, 2, 2, 2)).swapaxes(2, 4).reshape(r_hat.shape)
    km = np.broadcast_to(kmat_minus(lam, params)[:, None], (len(lam), 2 ** params.N, 2, 2))
    return pre, km, _SY0 @ r_hat_t0 @ _SY0


def u_minus(lam, params: ModelParams) -> AuxOp:
    """Boundary monodromy U_-(lam) = M(lam) K_-(lam) Mhat(lam), from
    ``apply_boundary`` on the identity rows of aux (x) H."""
    pre, km, post = _u_minus_factors(np.array([lam]), params)
    rows = apply_boundary(np.eye(2 ** (params.N + 1), dtype=complex), pre[0], km[0], post[0])
    return AuxOp.from_full((-1) ** params.N * rows)


def u_plus(lam, params: ModelParams) -> AuxOp:
    """U_+(lam), defined through U_+^{t0} = M^{t0} K_+^{t0} Mhat^{t0}."""
    m_t = bulk_monodromy(lam, params).t0()
    mh_t = mhat(lam, params).t0()
    u_t = m_t.right_scalar(kmat_plus(lam, params).T) @ mh_t
    return u_t.t0()


def transfer(lam, params: ModelParams) -> np.ndarray:
    """tr_0 { K_+(lam) U_-(lam) }; for a 1-D array of lam, one matrix per point.

    All factors come from one vectorised build; ``apply_boundary`` then runs
    point by point on the identity rows of aux (x) H, whose blocks U_ab give
    the trace (K_+ U_-)_00 + (K_+ U_-)_11 with (K_+ U_-)_aa = sum_b K_+[a, b] U_ba."""
    lams = np.atleast_1d(lam)
    pre, km, post = _u_minus_factors(lams, params)
    kp = kmat_plus(lams, params)
    dim = 2 ** params.N
    eye = np.eye(2 * dim, dtype=complex)
    out = np.empty((len(lams), dim, dim), dtype=complex)
    for p in range(len(lams)):
        u = apply_boundary(eye, pre[p], km[p], post[p]).reshape(2, dim, 2, dim)
        out[p] = (kp[p, 0, 0] * u[0, :, 0] + kp[p, 0, 1] * u[1, :, 0]) \
            + (kp[p, 1, 0] * u[0, :, 1] + kp[p, 1, 1] * u[1, :, 1])
    out *= (-1) ** params.N
    return out if np.ndim(lam) else out[0]


def transfer_alt(lam, params: ModelParams) -> np.ndarray:
    """Equivalent trace form tr_0 { K_-(lam) U_+(lam) }."""
    return u_plus(lam, params).left_scalar(kmat_minus(lam, params)).tr0()


# ---------------------------------------------------------------------------
# Quantum determinants.
# ---------------------------------------------------------------------------

def qdet_m(lam, params: ModelParams) -> complex:
    """Bulk quantum determinant a(lam + eta/2) d(lam - eta/2)."""
    return bulk_a(lam + params.eta / 2, params) * bulk_d(lam - params.eta / 2, params)


def qdet_k_minus(lam, boundary: BoundaryParams, eta) -> complex:
    """det_q K_-(lam), in the (alpha, beta) closed form."""
    al, be = boundary.alpha, boundary.beta
    val = (np.sinh(lam) ** 2 - np.sinh(al) ** 2) * (np.sinh(lam) ** 2 + np.cosh(be) ** 2)
    return -np.sinh(2 * lam - 2 * eta) * val / (np.sinh(al) ** 2 * np.cosh(be) ** 2)


def qdet_k_plus(lam, boundary: BoundaryParams, eta) -> complex:
    """det_q K_+(lam), in the (alpha, beta) closed form."""
    al, be = boundary.alpha, boundary.beta
    val = (np.sinh(lam) ** 2 - np.sinh(al) ** 2) * (np.sinh(lam) ** 2 + np.cosh(be) ** 2)
    return np.sinh(2 * lam + 2 * eta) * val / (np.sinh(al) ** 2 * np.cosh(be) ** 2)


def qdet_u_minus(lam, params: ModelParams) -> complex:
    """det_q U_-(lam) = det_q M(lam) det_q M(-lam) det_q K_-(lam)."""
    return qdet_m(lam, params) * qdet_m(-lam, params) \
        * qdet_k_minus(lam, params.boundary_minus, params.eta)


# ---------------------------------------------------------------------------
# Hamiltonian.
# ---------------------------------------------------------------------------

def hamiltonian(params: ModelParams, mode: str = "direct") -> np.ndarray:
    if mode == "direct":
        return _hamiltonian_direct(params)
    if mode == "from_transfer":
        if any(abs(x) > 1e-14 for x in params.xi):
            raise ValueError("from_transfer mode requires the homogeneous chain xi = 0")
        return _hamiltonian_from_transfer(params)
    raise ValueError(f"unknown mode {mode!r}")


def _hamiltonian_direct(params: ModelParams) -> np.ndarray:
    N, eta = params.N, params.eta
    dim = 2 ** N
    h = np.zeros((dim, dim), dtype=complex)
    for n in range(1, N):
        h += site_op(SX, n, N) @ site_op(SX, n + 1, N)
        h += site_op(SY, n, N) @ site_op(SY, n + 1, N)
        h += np.cosh(eta) * site_op(SZ, n, N) @ site_op(SZ, n + 1, N)
    bm, bp = params.boundary_minus, params.boundary_plus
    h += np.sinh(eta) / np.sinh(bm.sigma) * (
        np.cosh(bm.sigma) * site_op(SZ, 1, N)
        + 2 * bm.kappa * (np.cosh(bm.tau) * site_op(SX, 1, N)
                          + 1j * np.sinh(bm.tau) * site_op(SY, 1, N)))
    h += np.sinh(eta) / np.sinh(bp.sigma) * (
        np.cosh(bp.sigma) * site_op(SZ, N, N)
        + 2 * bp.kappa * (np.cosh(bp.tau) * site_op(SX, N, N)
                          + 1j * np.sinh(bp.tau) * site_op(SY, N, N)))
    return h


def _hamiltonian_from_transfer(params: ModelParams) -> np.ndarray:
    """Derivative of the transfer matrix at eta/2, Richardson-refined."""
    lam0 = params.eta / 2
    h = TRANSFER_STEP
    t = transfer(lam0 + np.array([h / 2, -h / 2, h, -h]), params)
    # central differences at steps h/2 and h
    deriv = (4 * (t[0] - t[1]) / h - (t[2] - t[3]) / (2 * h)) / 3
    pref = 2 * np.sinh(params.eta) ** (1 - 2 * params.N)
    pref /= np.trace(kmat_plus(lam0, params)) * np.trace(kmat_minus(lam0, params))
    return pref * deriv


def traceless(op: np.ndarray) -> np.ndarray:
    return op - np.trace(op) / op.shape[0] * np.eye(op.shape[0], dtype=complex)


# ---------------------------------------------------------------------------
# Defining-relation residuals (used by tests and the verification suites).
# ---------------------------------------------------------------------------

PERM4 = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def yang_baxter_residual(lam, mu, eta) -> float:
    """|| R12(l-m) R13(l) R23(m) - R23(m) R13(l) R12(l-m) || on C^2 x C^2 x C^2."""
    def r12(r4):
        return np.kron(r4, ID2)

    def r23(r4):
        return np.kron(ID2, r4)

    def r13(r4):
        swap23 = np.kron(ID2, PERM4)
        return swap23 @ np.kron(r4, ID2) @ swap23

    lhs = r12(r6v(lam - mu, eta)) @ r13(r6v(lam, eta)) @ r23(r6v(mu, eta))
    rhs = r23(r6v(mu, eta)) @ r13(r6v(lam, eta)) @ r12(r6v(lam - mu, eta))
    return rel_residual(lhs, rhs)


def embed_aux_pair(op, slot: int) -> np.ndarray:
    """Dense aux1 x aux2 x H matrix of an AuxOp acting on aux space ``slot`` (1 or 2).

    A dynamical operator comes as the pair of AuxOps it is while the other
    aux space is in its sigma^z state 0 and 1.
    """
    ops = (op, op) if isinstance(op, AuxOp) else op
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


def reflection_residual(lam, mu, eta, r_at, u_at) -> float:
    """Residual of R21(l-m) U1(l) R12(l+m-eta) U2(m) = U2(m) R21(l+m-eta) U1(l) R12(l-m).

    On aux1 x aux2 x H: ``r_at(x)`` is the 4x4 R12(x), with R21 = P R12 P,
    and ``u_at(x)`` is U(x) as ``embed_aux_pair`` takes it.  A scalar K
    matrix enters as an AuxOp of 1x1 blocks.
    """
    u1 = embed_aux_pair(u_at(lam), 1)
    u2 = embed_aux_pair(u_at(mu), 2)
    eye = np.eye(u1.shape[0] // 4, dtype=complex)
    r_lm, r_lpm = r_at(lam - mu), r_at(lam + mu - eta)

    def r21(r4):
        return np.kron(PERM4 @ r4 @ PERM4, eye)

    lhs = r21(r_lm) @ u1 @ np.kron(r_lpm, eye) @ u2
    rhs = u2 @ r21(r_lpm) @ u1 @ np.kron(r_lm, eye)
    return rel_residual(lhs, rhs)


def det_scaled(mat: np.ndarray):
    """Determinant via pivoted LU after row/column max-equilibration.

    Graded matrices (entries spanning many orders of magnitude) lose digits
    under plain LU; equilibration restores them and the log-space product
    avoids overflow of the scale factors.  Extended-precision input keeps its
    dtype through a hand-rolled elimination (LAPACK has no such kernel).
    """
    m = np.array(mat)
    extended = m.dtype == np.clongdouble
    if not extended:
        m = m.astype(complex)
    rs = np.max(np.abs(m), axis=1)
    rs[rs == 0] = 1.0
    m = m / rs[:, None]
    cs = np.max(np.abs(m), axis=0)
    cs[cs == 0] = 1.0
    m = m / cs[None, :]
    if extended:
        det = np.clongdouble(1)
        n = m.shape[0]
        for k in range(n):
            piv = k + int(np.argmax(np.abs(m[k:, k])))
            if piv != k:
                m[[k, piv]] = m[[piv, k]]
                det = -det
            if m[k, k] == 0:
                return np.clongdouble(0)
            det *= m[k, k]
            m[k + 1:, k:] -= np.outer(m[k + 1:, k] / m[k, k], m[k, k:])
        scale = np.sum(np.log(rs.astype(np.clongdouble))) \
            + np.sum(np.log(cs.astype(np.clongdouble)))
        return det * np.exp(scale)
    sign, logd = np.linalg.slogdet(m)
    return complex(sign * np.exp(logd + np.sum(np.log(rs.astype(complex)))
                                 + np.sum(np.log(cs.astype(complex)))))


def rel_residual(lhs, rhs) -> float:
    """Frobenius norm of the difference over the larger of the two norms."""
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1e-300)
    return float(np.linalg.norm(lhs - rhs) / scale)
