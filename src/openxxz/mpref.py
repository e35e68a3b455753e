"""Extended-precision mirror of the dense scalar-product oracle.

The SoV h-sum degenerates as the inhomogeneities coalesce: the assembled
separate states cancel through ~xi^{N(N-1)/2} and double precision runs out
of digits long before the regular determinant representations do.  This
module re-evaluates the same dense contraction with mpmath so the
homogeneous-limit sweeps keep a trustworthy reference column.

The local matrices and the scalars are evaluated in mp; the chain products
run through the lattice kernels (``AuxOp``, ``apply_local``) on object arrays
of mpc, factor by factor as the float code builds them.  Only small chains
are intended (N <= 3 keeps it quick).
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from .trig import ModelParams
from .lattice import SY, AuxOp, apply_local
from .gauge import GaugeParams, _sz_index
from .sov import EpsChoice


def _c(z):
    return mp.mpc(complex(z))


def _mat(arr):
    """mp.matrix of an object array of mpc."""
    return mp.matrix(arr.tolist())


class _MpModel:
    """All model objects for one (params, gauge) pair at fixed precision."""

    def __init__(self, params: ModelParams, gauge: GaugeParams):
        self.N = params.N
        self.dim = 2 ** params.N
        self.eta = _c(params.eta)
        self.xi = [_c(x) for x in params.xi]
        self.alpha = _c(gauge.alpha)
        self.beta = _c(gauge.beta)
        bm, bp = params.boundary_minus, params.boundary_plus
        self.sm, self.km, self.tm = _c(bm.sigma), _c(bm.kappa), _c(bm.tau)
        self.sp, self.kp, self.tp = _c(bp.sigma), _c(bp.kappa), _c(bp.tau)
        self.am_, self.bm_ = _c(bm.alpha), _c(bm.beta)
        self.ap_, self.bp_ = _c(bp.alpha), _c(bp.beta)
        self.eps_plus = gauge.eps_plus

    # -- scalars -----------------------------------------------------------

    def vs(self, lam):
        return mp.cosh(2 * lam) / 2

    def a_bulk(self, lam):
        out = mp.mpc(1)
        for x in self.xi:
            out *= mp.sinh(lam - x + self.eta / 2)
        return out

    def d_bulk(self, lam):
        out = mp.mpc(1)
        for x in self.xi:
            out *= mp.sinh(lam - x - self.eta / 2)
        return out

    def xi_shift(self, n, h):
        return self.xi[n - 1] + self.eta / 2 - h * self.eta

    def vdm(self, xs):
        out = mp.mpc(1)
        for j in range(len(xs)):
            for k in range(j + 1, len(xs)):
                out *= mp.sinh(xs[k] - xs[j]) * mp.sinh(xs[k] + xs[j])
        return out

    def g_minus(self, lam, eps: EpsChoice):
        u = lam - self.eta / 2
        ep = self.eps_plus
        val = ep * eps.a_plus * (-1) ** self.N \
            * mp.sinh(u + eps.a_minus * self.am_) * mp.cosh(u + eps.b_minus * self.bm_) \
            / (mp.sinh(eps.a_minus * self.am_) * mp.cosh(eps.b_minus * self.bm_)) \
            * mp.sinh(u + eps.a_plus * self.ap_) * mp.cosh(u - eps.b_plus * self.bp_) \
            / (mp.sinh(u + ep * self.ap_) * mp.cosh(u - ep * self.bp_))
        return val

    def a_minus_norm(self, lam, eps):
        return self.g_minus(lam, eps) * self.a_bulk(lam) * self.d_bulk(-lam)

    def a_eps_small(self, lam, eps: EpsChoice):
        u = lam - self.eta / 2
        num = mp.sinh(u + eps.a_plus * self.ap_) * mp.cosh(u - eps.b_plus * self.bp_) \
            * mp.sinh(u + eps.a_minus * self.am_) * mp.cosh(u + eps.b_minus * self.bm_)
        den = mp.sinh(eps.a_plus * self.ap_) * mp.cosh(eps.b_plus * self.bp_) \
            * mp.sinh(eps.a_minus * self.am_) * mp.cosh(eps.b_minus * self.bm_)
        return num / den

    def bcoef(self, beta):
        pref = mp.exp(self.eta * beta) / (2 * mp.sinh(self.eta * beta) * mp.sinh(self.sm))
        return pref * (2 * self.km * mp.sinh(self.eta * (beta - self.alpha) - self.tm)
                       - mp.exp(self.sm))

    def norm_const(self, eps: EpsChoice):
        N = self.N
        v = self.vdm(self.xi)
        v0 = self.vdm([self.xi_shift(n, 0) for n in range(1, N + 1)])
        v1 = self.vdm([self.xi_shift(n, 1) for n in range(1, N + 1)])
        out = (-1) ** N * v * v0 / v1
        for j in range(1, N + 1):
            lam = self.eta / 2 - self.xi[j - 1]
            lbl = self.beta + 1 + N - 2 * j
            b_lam = mp.exp(lam - self.eta / 2) * mp.sinh(2 * lam - self.eta) * self.bcoef(lbl)
            out *= b_lam / self.g_minus(lam, eps) \
                * mp.sinh(self.eta * lbl) / mp.sinh(self.eta * (self.beta + N - j))
        return out

    # -- matrices: object arrays of mpc, multiplied by the lattice kernels ---

    def r6v(self, lam):
        a, b, c, z = mp.sinh(lam + self.eta), mp.sinh(lam), mp.sinh(self.eta), mp.mpc(0)
        return np.array([[a, z, z, z], [z, b, c, z], [z, c, b, z], [z, z, z, a]],
                        dtype=object)

    def s_local(self, lam, beta):
        return np.array([[mp.exp(lam - self.eta * (beta + self.alpha)),
                          mp.exp(lam + self.eta * (beta - self.alpha))],
                         [mp.mpc(1), mp.mpc(1)]], dtype=object)

    def s_local_inv(self, lam, beta):
        s = self.s_local(lam, beta)
        return np.array([[1, -s[0, 1]], [-1, s[0, 0]]], dtype=object) / (s[0, 0] - s[0, 1])

    def kmat_minus(self, lam):
        off = self.km * mp.sinh(2 * lam - self.eta)
        k = np.array([[mp.sinh(lam - self.eta / 2 + self.sm), off * mp.exp(self.tm)],
                      [off * mp.exp(-self.tm), mp.sinh(self.sm - lam + self.eta / 2)]],
                     dtype=object)
        return k / mp.sinh(self.sm)

    def bulk_monodromy(self, lam) -> AuxOp:
        out = AuxOp.identity(self.dim) * mp.mpc(1)
        for n in range(self.N, 0, -1):
            out = apply_local(out, self.r6v(lam - self.xi[n - 1] - self.eta / 2), n)
        return out

    def u_minus(self, lam) -> AuxOp:
        """M(lam) K_-(lam) Mhat(lam), Mhat = (-1)^N sigma0^y M^{t0}(-lam) sigma0^y."""
        mhat = (-1) ** self.N * self.bulk_monodromy(-lam).t0().left_scalar(SY).right_scalar(SY)
        return self.bulk_monodromy(lam).right_scalar(self.kmat_minus(lam)) @ mhat

    def u_tilde_block(self, name, lam, label):
        """Block ``name`` of S_0^{-1}(-lam+eta/2 | label) U_-(lam) S_0(lam-eta/2 | label)."""
        eta = self.eta
        ut = self.u_minus(lam).left_scalar(self.s_local_inv(-lam + eta / 2, label))
        return getattr(ut.right_scalar(self.s_local(lam - eta / 2, label)), name)

    def s_chain(self, beta):
        """S_{1...N}({xi} | beta), each site's factor stacked over the labels
        beta + sigma^z of the sites right of it."""
        out = np.eye(self.dim, dtype=complex) * mp.mpc(1)
        for n in range(self.N, 0, -1):
            nb = self.N - n
            stack = np.array([self.s_local(-self.xi[n - 1], beta + k)
                              for k in range(-nb, nb + 1, 2)])
            out = apply_local(out, stack[_sz_index(nb)], n)
        return out


# working precision of the mirror, in decimal digits
DPS = 40


def sp_direct_mp(q_spec, p_spec, params: ModelParams, gauge: GaugeParams) -> complex:
    """Dense bilinear contraction of two separate states at DPS digits."""
    from .sov import all_h

    with mp.workdps(DPS):
        model = _MpModel(params, gauge)
        N, dim = model.N, model.dim
        eta = model.eta

        # S(beta) D^SOS S(beta)^-1 and S(beta) A^SOS S(beta)^-1 are the tilde
        # blocks, so the states are built on S(beta)|0> and <0|S(beta)^-1
        d_ops = [_mat(model.u_tilde_block("D", model.xi[j] + eta / 2, model.beta + 1))
                 for j in range(N)]
        a_ops = [_mat(model.u_tilde_block("A", eta / 2 - model.xi[j], model.beta - 1))
                 for j in range(N)]
        s_chain = _mat(model.s_chain(model.beta))
        s_inv = s_chain ** -1

        def k_fac(j):
            return mp.sinh(2 * model.xi[j] + eta) / mp.sinh(2 * model.xi[j] - eta)

        def q_poly_mp(poly, lam):
            out = mp.mpc(1)
            for r in poly.roots:
                out *= model.vs(lam) - model.vs(_c(r))
            return out

        def u_w(n):
            xn = model.xi[n - 1]
            return mp.sinh(2 * xn - eta) / mp.sinh(2 * xn + eta) \
                * model.a_bulk(xn + eta / 2) * model.d_bulk(-xn - eta / 2) \
                / (model.a_bulk(-xn + eta / 2) * model.d_bulk(xn - eta / 2))

        def v_w(n, eps):
            lam = model.xi[n - 1] + eta / 2
            return model.a_eps_small(lam, eps) / model.a_eps_small(lam, eps.flipped())

        # right state for p_spec
        a_norm_p = [model.a_minus_norm(eta / 2 - model.xi[j], p_spec.eps)
                    for j in range(N)]
        right = mp.matrix(dim, 1)
        for h in all_h(N):
            vec = s_chain[:, dim - 1]
            scale = mp.mpc(1)
            for j in range(N - 1, -1, -1):
                if h[j] == 1:
                    vec = d_ops[j] * vec
                    scale /= k_fac(j) * a_norm_p[j]
            w = mp.mpc(1)
            for n in range(N):
                w *= q_poly_mp(p_spec.poly, model.xi_shift(n + 1, h[n]))
            w *= mp.exp(-sum((h[j] * model.xi[j] for j in range(N)), mp.mpc(0)))
            w *= model.vdm([model.xi_shift(n + 1, h[n]) for n in range(N)])
            right += (w * scale) * vec
        right = right / model.norm_const(p_spec.eps)

        # left state for q_spec
        a_norm_q = [model.a_minus_norm(eta / 2 - model.xi[j], q_spec.eps)
                    for j in range(N)]
        left = mp.matrix(1, dim)
        for h in all_h(N):
            row = s_inv[0, :]
            scale = mp.mpc(1)
            for j in range(N):
                if h[j] == 0:
                    row = row * a_ops[j]
                    scale /= a_norm_q[j]
            w = mp.mpc(1)
            for n in range(N):
                w *= q_poly_mp(q_spec.poly, model.xi_shift(n + 1, h[n]))
                if h[n] == 1:
                    w *= u_w(n + 1) * v_w(n + 1, q_spec.eps)
            w *= mp.exp(-sum((h[j] * model.xi[j] for j in range(N)), mp.mpc(0)))
            w *= model.vdm([model.xi_shift(n + 1, h[n]) for n in range(N)])
            left += (w * scale) * row
        left = left / model.norm_const(q_spec.eps)

        out = (left * right)[0]
        return complex(out)
