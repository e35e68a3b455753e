"""Extended-precision referee: the SoV determinant of a pair of separate states.

The SoV h-sum degenerates as the inhomogeneities coalesce: its N x N
dressed-Vandermonde matrix cancels through ~xi^{N(N-1)/2}, and double
precision runs out of digits long before the regular determinant
representations do.  ``sp_sov_mp`` evaluates the same determinant, the one
``scalar.sp_sov`` takes in double, with mpmath, so the homogeneous-limit
sweeps keep a trustworthy reference column at every chain length.  It forms
no 2^N object: the matrix entries and the prefactors are scalars, O(N^2) of
them, and the determinant costs O(N^3).

The working precision follows the cancellation: it starts at DPS digits and
doubles until two successive values agree.
"""

from __future__ import annotations

import mpmath as mp

from .trig import ModelParams
from .gauge import GaugeParams
from .sov import EpsChoice


def _c(z):
    return mp.mpc(complex(z))


class _MpModel:
    """The scalars of one (params, gauge) pair; exact copies of the double
    inputs, evaluated at the working precision of each call."""

    def __init__(self, params: ModelParams, gauge: GaugeParams):
        self.N = params.N
        self.eta = _c(params.eta)
        self.xi = [_c(x) for x in params.xi]
        self.alpha = _c(gauge.alpha)
        self.beta = _c(gauge.beta)
        bm, bp = params.boundary_minus, params.boundary_plus
        self.sm, self.km, self.tm = _c(bm.sigma), _c(bm.kappa), _c(bm.tau)
        self.am_, self.bm_ = _c(bm.alpha), _c(bm.beta)
        self.ap_, self.bp_ = _c(bp.alpha), _c(bp.beta)
        self.eps_plus = gauge.eps_plus

    def vs(self, lam):
        return mp.cosh(2 * lam) / 2

    def poly(self, poly, lam):
        """A TrigPoly at lam: prod_r (vs(lam) - vs(r)) over its roots r."""
        out = mp.mpc(1)
        for r in poly.roots:
            out *= self.vs(lam) - self.vs(_c(r))
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
        return self.a_eps_small(lam, eps) * ep * eps.a_plus * (-1) ** self.N \
            * mp.sinh(eps.a_plus * self.ap_) * mp.cosh(eps.b_plus * self.bp_) \
            / (mp.sinh(u + ep * self.ap_) * mp.cosh(u - ep * self.bp_))

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
        """The Gram constant without its ratio of shifted-grid Vandermondes,
        which the SoV determinant's prefactor cancels exactly."""
        N = self.N
        v = self.vdm(self.xi)
        if v == 0:
            raise ZeroDivisionError("the Gram constant vanishes: Vhat(xi) = 0, "
                                    "the inhomogeneities coincide")
        out = (-1) ** N * v
        for j in range(1, N + 1):
            lam = self.eta / 2 - self.xi[j - 1]
            lbl = self.beta + 1 + N - 2 * j
            b_lam = mp.exp(lam - self.eta / 2) * mp.sinh(2 * lam - self.eta) * self.bcoef(lbl)
            out *= b_lam / self.g_minus(lam, eps) \
                * mp.sinh(self.eta * lbl) / mp.sinh(self.eta * (self.beta + N - j))
        return out


# working precision of the first evaluation, in decimal digits
DPS = 40
# doublings of DPS that sp_sov_mp tries before it gives up
DOUBLINGS = 5


def _sov_det(model: _MpModel, q_spec, p_spec):
    """det(sov_matrix) / norm at the working precision: the value
    scalar.sp_sov takes, whose shifted-grid Vandermonde prefactor cancels
    against the one in the Gram constant, so neither is formed."""
    N = model.N
    grid = [(model.xi_shift(n, 0), model.xi_shift(n, 1)) for n in range(1, N + 1)]
    mat = mp.matrix(N, N)
    for i, (x0, x1) in enumerate(grid):
        ratio = model.a_eps_small(x0, p_spec.eps) \
            / model.a_eps_small(x0, q_spec.eps.flipped())
        w0 = model.poly(p_spec.poly, x0) * model.poly(q_spec.poly, x0)
        w1 = -ratio * model.poly(p_spec.poly, x1) * model.poly(q_spec.poly, x1)
        for j in range(N):
            mat[i, j] = w0 * model.vs(x1) ** j + w1 * model.vs(x0) ** j
    return mp.det(mat) / model.norm_const(p_spec.eps)


def sp_sov_mp(q_spec, p_spec, params: ModelParams, gauge: GaugeParams) -> complex:
    """The SoV determinant of a pair, at the precision its cancellation needs.

    Starts at DPS digits and doubles until two successive values agree to
    1e-20, relative; raises ArithmeticError if that takes more than
    DOUBLINGS doublings (a NaN never settles).
    """
    prev = None
    for k in range(DOUBLINGS + 1):
        with mp.workdps(DPS * 2 ** k):
            val = _sov_det(_MpModel(params, gauge), q_spec, p_spec)
            if prev is not None and abs(val - prev) <= 1e-20 * abs(val):
                return complex(val)
        prev = val
    raise ArithmeticError(f"SoV determinant unsettled at {DPS * 2 ** DOUBLINGS} digits")

