"""Extended-precision mirror of the dense scalar-product oracle.

The SoV h-sum degenerates as the inhomogeneities coalesce: the assembled
separate states cancel through ~xi^{N(N-1)/2} and double precision runs out
of digits long before the regular determinant representations do.  This
module re-evaluates the same dense contraction with mpmath so the
homogeneous-limit sweeps keep a trustworthy reference column.

Only small chains are intended (N <= 3 keeps it quick); formulas mirror the
float implementations one-to-one.
"""

from __future__ import annotations

import mpmath as mp

from .trig import ModelParams
from .gauge import GaugeParams
from .sov import EpsChoice


def _c(z):
    return mp.mpc(complex(z))


def _zeros(n, m):
    return mp.matrix(n, m)


def _site_index(bits):
    idx = 0
    for b in bits:
        idx = 2 * idx + b
    return idx


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

    # -- matrices ----------------------------------------------------------

    def r6v(self, lam):
        r = _zeros(4, 4)
        r[0, 0] = r[3, 3] = mp.sinh(lam + self.eta)
        r[1, 1] = r[2, 2] = mp.sinh(lam)
        r[1, 2] = r[2, 1] = mp.sinh(self.eta)
        return r

    def s_local(self, lam, beta):
        s = _zeros(2, 2)
        s[0, 0] = mp.exp(lam - self.eta * (beta + self.alpha))
        s[0, 1] = mp.exp(lam + self.eta * (beta - self.alpha))
        s[1, 0] = s[1, 1] = mp.mpc(1)
        return s

    def kmat_minus(self, lam):
        k = _zeros(2, 2)
        off = self.km * mp.sinh(2 * lam - self.eta)
        k[0, 0] = mp.sinh(lam - self.eta / 2 + self.sm)
        k[0, 1] = off * mp.exp(self.tm)
        k[1, 0] = off * mp.exp(-self.tm)
        k[1, 1] = mp.sinh(self.sm - lam + self.eta / 2)
        return k / mp.sinh(self.sm)

    def _embed_aux_site(self, r4, n):
        """Full (2 dim x 2 dim) operator of a two-space factor on (aux, site n)."""
        N, dim = self.N, self.dim
        full = _zeros(2 * dim, 2 * dim)
        for a in range(2):
            for b in range(2):
                for s in range(dim):
                    bits = [(s >> (N - 1 - j)) & 1 for j in range(N)]
                    for snew in range(2):
                        tb = list(bits)
                        tb[n - 1] = snew
                        t = _site_index(tb)
                        full[a * dim + s, b * dim + t] += r4[2 * a + bits[n - 1], 2 * b + snew]
        return full

    def bulk_monodromy(self, lam):
        out = mp.eye(2 * self.dim)
        for n in range(self.N, 0, -1):
            out = out * self._embed_aux_site(self.r6v(lam - self.xi[n - 1] - self.eta / 2), n)
        return out

    def _aux_t0(self, m):
        dim = self.dim
        out = _zeros(2 * dim, 2 * dim)
        for a in range(2):
            for b in range(2):
                for s in range(dim):
                    for t in range(dim):
                        out[b * dim + s, a * dim + t] = m[a * dim + s, b * dim + t]
        return out

    def _aux_scalar_left(self, k2, m):
        dim = self.dim
        out = _zeros(2 * dim, 2 * dim)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    if k2[a, c] == 0:
                        continue
                    for s in range(dim):
                        for t in range(dim):
                            out[a * dim + s, b * dim + t] += k2[a, c] * m[c * dim + s, b * dim + t]
        return out

    def _aux_scalar_right(self, m, k2):
        dim = self.dim
        out = _zeros(2 * dim, 2 * dim)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    if k2[c, b] == 0:
                        continue
                    for s in range(dim):
                        for t in range(dim):
                            out[a * dim + s, b * dim + t] += m[a * dim + s, c * dim + t] * k2[c, b]
        return out

    def u_minus(self, lam):
        m = self.bulk_monodromy(lam)
        sy = _zeros(2, 2)
        sy[0, 1] = mp.mpc(0, -1)
        sy[1, 0] = mp.mpc(0, 1)
        mhat = self._aux_scalar_left(sy, self._aux_scalar_right(
            self._aux_t0(self.bulk_monodromy(-lam)), sy)) * (-1) ** self.N
        return self._aux_scalar_right(m, self.kmat_minus(lam)) * mhat

    def u_tilde_block(self, name, lam, label):
        eta = self.eta
        u = self.u_minus(lam)
        sl = self.s_local(-lam + eta / 2, label)
        det = sl[0, 0] - sl[0, 1]
        sli = _zeros(2, 2)
        sli[0, 0] = 1 / det
        sli[0, 1] = -sl[0, 1] / det
        sli[1, 0] = -1 / det
        sli[1, 1] = sl[0, 0] / det
        sr = self.s_local(lam - eta / 2, label)
        ut = self._aux_scalar_left(sli, self._aux_scalar_right(u, sr))
        dim = self.dim
        a = {"A": 0, "B": 0, "C": 1, "D": 1}[name]
        b = {"A": 0, "B": 1, "C": 0, "D": 1}[name]
        return ut[a * dim:(a + 1) * dim, b * dim:(b + 1) * dim]

    def s_chain(self, beta):
        N, dim = self.N, self.dim
        out = mp.eye(dim)
        for n in range(N, 0, -1):
            factor = _zeros(dim, dim)
            for s in range(dim):
                bits = [(s >> (N - 1 - j)) & 1 for j in range(N)]
                k = sum(1 - 2 * bits[j] for j in range(n, N))
                s2 = self.s_local(-self.xi[n - 1], beta + k)
                for snew in range(2):
                    tb = list(bits)
                    tb[n - 1] = snew
                    factor[s, _site_index(tb)] += s2[bits[n - 1], snew]
            out = out * factor
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
        d_ops = [model.u_tilde_block("D", model.xi[j] + eta / 2, model.beta + 1)
                 for j in range(N)]
        a_ops = [model.u_tilde_block("A", eta / 2 - model.xi[j], model.beta - 1)
                 for j in range(N)]
        s_chain = model.s_chain(model.beta)
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
