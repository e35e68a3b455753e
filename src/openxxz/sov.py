"""SoV bases of the gauged transfer matrix.

Right states are generated from the all-down reference by gauged D operators
at the shifted inhomogeneities, left states from the all-up reference by
gauged A operators; normalization uses the sign-choice family of boundary
normalization functions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product as _iterprod

import numpy as np

from .trig import ModelParams, bulk_a, bulk_d, vdm_hat
from .lattice import qdet_m
from .gauge import GaugeParams, bcoef_minus, s_chain, sos_apply, sos_factors


@dataclass(frozen=True)
class EpsChoice:
    """Sign vector selecting a branch of the normalization function."""

    a_plus: int = 1
    a_minus: int = 1
    b_plus: int = 1
    b_minus: int = 1

    def __post_init__(self):
        if self.a_plus * self.a_minus * self.b_plus * self.b_minus != 1:
            raise ValueError("sign product must be +1")

    def flipped(self) -> "EpsChoice":
        return EpsChoice(-self.a_plus, -self.a_minus, -self.b_plus, -self.b_minus)


ADMISSIBLE_EPS = (
    EpsChoice(1, 1, 1, 1),
    EpsChoice(1, -1, -1, 1),
    EpsChoice(-1, 1, 1, -1),
    EpsChoice(-1, -1, -1, -1),
)


def all_h(N: int):
    """All bit tuples, ordered with h_1 as the most significant bit."""
    return [h for h in _iterprod((0, 1), repeat=N)]


def h_index(h) -> int:
    idx = 0
    for b in h:
        idx = 2 * idx + b
    return idx


def a_eps_small(lam, eps: EpsChoice, params: ModelParams):
    """Boundary factor a_eps(lam) entering the normalization function.

    Elementwise in lam: a scalar or a numpy array of points.
    """
    bp, bm = params.boundary_plus, params.boundary_minus
    eta = params.eta
    u = lam - eta / 2
    num = np.sinh(u + eps.a_plus * bp.alpha) * np.cosh(u - eps.b_plus * bp.beta) \
        * np.sinh(u + eps.a_minus * bm.alpha) * np.cosh(u + eps.b_minus * bm.beta)
    den = np.sinh(eps.a_plus * bp.alpha) * np.cosh(eps.b_plus * bp.beta) \
        * np.sinh(eps.a_minus * bm.alpha) * np.cosh(eps.b_minus * bm.beta)
    return num / den


def big_a_eps(lam, eps: EpsChoice, params: ModelParams):
    """The function multiplying Q(lam - eta) in the T-Q equation.

    Elementwise in lam: a scalar or a numpy array of points.  Raises if any
    point lies on a pole sinh(2 lam) = 0.
    """
    s2 = np.sinh(2 * lam)
    if (abs(s2) < 1e-14).any():
        raise ValueError("pole of the normalization function at sinh(2 lam) = 0")
    pref = (-1) ** params.N * np.sinh(2 * lam + params.eta) / s2
    return pref * a_eps_small(lam, eps, params) * bulk_a(lam, params) * bulk_d(-lam, params)


def big_a_eps_logderiv(lam, eps: EpsChoice, params: ModelParams) -> complex:
    """Logarithmic lambda-derivative of big_a_eps."""
    bp, bm = params.boundary_plus, params.boundary_minus
    eta = params.eta
    u = lam - eta / 2
    total = 2 / np.tanh(2 * lam + eta) - 2 / np.tanh(2 * lam)
    total += 1 / np.tanh(u + eps.a_plus * bp.alpha) + np.tanh(u - eps.b_plus * bp.beta)
    total += 1 / np.tanh(u + eps.a_minus * bm.alpha) + np.tanh(u + eps.b_minus * bm.beta)
    for x in params.xi:
        total += 1 / np.tanh(lam - x + eta / 2)   # a(lam)
        total += 1 / np.tanh(lam + x + eta / 2)   # d(-lam)
    return complex(total)


def branch_ratio(lam, eps_p: EpsChoice, eps: EpsChoice, params: ModelParams):
    """a_{eps'}(lam) / a_{-eps}(lam), the boundary ratio of two sign branches.

    Elementwise in lam: a scalar or a numpy array of points.
    """
    return a_eps_small(lam, eps_p, params) / a_eps_small(lam, eps.flipped(), params)


def g_minus(lam, eps: EpsChoice, gauge: GaugeParams, params: ModelParams):
    """Normalization function of the SoV states for the given sign branch.

    a_eps(lam) with its two + boundary factors divided by their values at the
    gauge branch eps_+ in place of their values at u = 0.  Elementwise in lam.
    """
    bp = params.boundary_plus
    u = lam - params.eta / 2
    ep = gauge.eps_plus
    return a_eps_small(lam, eps, params) * ep * eps.a_plus * (-1) ** params.N \
        * np.sinh(eps.a_plus * bp.alpha) * np.cosh(eps.b_plus * bp.beta) \
        / (np.sinh(u + ep * bp.alpha) * np.cosh(u - ep * bp.beta))


def a_minus_norm(lam, eps: EpsChoice, gauge: GaugeParams, params: ModelParams) -> complex:
    """A_-(lam) = g_-(lam) a(lam) d(-lam)."""
    return g_minus(lam, eps, gauge, params) * bulk_a(lam, params) * bulk_d(-lam, params)


def cond3bis_margin(params: ModelParams, eps_plus: int = 1) -> float:
    """Distance (mod 2 i pi) from the basis-degeneracy lines.

    The Gram normalization vanishes whenever tau_+ - tau_- + eta (N - 2j + 1)
    hits eps (alpha_- + beta_-) - eps_+ (alpha_+ - beta_+) - (eps_+ + eps) i pi/2
    for some j and sign eps; the margin is the smallest such distance.
    """
    bp, bm = params.boundary_plus, params.boundary_minus
    margin = np.inf
    for j in range(1, params.N + 1):
        lhs = bp.tau - bm.tau + params.eta * (params.N - 2 * j + 1)
        for e in (1, -1):
            rhs = e * (bm.alpha + bm.beta) - eps_plus * (bp.alpha - bp.beta) \
                - (eps_plus + e) * 1j * np.pi / 2
            # distance to the lattice 2 i pi Z
            diff = lhs - rhs
            k = round(diff.imag / (2 * np.pi))
            margin = min(margin, abs(diff - 2j * np.pi * k))
    return float(margin)


def u_weight(n: int, params: ModelParams) -> complex:
    """Ratio weight u_n entering the left separate states (1-based n)."""
    eta = params.eta
    xn = params.xi[n - 1]
    a_p, d_m = bulk_a(xn + eta / 2, params), bulk_d(-xn - eta / 2, params)
    a_m, d_p = bulk_a(-xn + eta / 2, params), bulk_d(xn - eta / 2, params)
    return complex(np.sinh(2 * xn - eta) / np.sinh(2 * xn + eta)
                   * (a_p * d_m) / (a_m * d_p))


def v_weight(n: int, eps: EpsChoice, params: ModelParams) -> complex:
    """v_{n,eps} = a_eps(xi_n + eta/2) / a_{-eps}(xi_n + eta/2)."""
    return branch_ratio(params.xi[n - 1] + params.eta / 2, eps, eps, params)


@functools.lru_cache
def _bits(N: int) -> np.ndarray:
    """The bit tuples of all_h as a (2^N, N) integer table (cached, read-only)."""
    bits = np.array(all_h(N), dtype=int).reshape(-1, N)
    bits.setflags(write=False)
    return bits


def _bit_products(factors, bits) -> np.ndarray:
    """prod_j factors[j] ** bits[:, j] for each row of a 0/1 table."""
    return np.prod(np.where(bits == 1, factors, 1), axis=1)


def raw_states(params: ModelParams, gauge: GaugeParams, side: str, label) -> np.ndarray:
    """Unnormalized SoV states at one dynamical label, one row per h of all_h.

    Right: prod_{h_j = 1} D^SOS(xi_j + eta/2 | label) on the all-down state.
    Left: the all-up row times prod_{h_j = 0} A^SOS(eta/2 - xi_j | label).
    Both products run in site order, applied to the rows by ``sos_apply``;
    the rows double once per site.
    """
    N, eta, xi = params.N, params.eta, np.asarray(params.xi)
    dim = 2 ** N
    states = np.zeros((1, dim), dtype=complex)
    if side == "right":
        states[0, -1] = 1.0
        ops = sos_factors(xi + eta / 2, label, params, gauge, side)
        for j in range(N - 1, -1, -1):
            states = np.concatenate([states, sos_apply(states, ops[j], "D")])
        return states
    states[0, 0] = 1.0
    ops = sos_factors(eta / 2 - xi, label, params, gauge, side)
    for j in range(N):
        states = np.stack([sos_apply(states, ops[j], "A"), states], axis=1).reshape(-1, dim)
    return states


class SovBasis:
    """Left and right SoV bases for one (params, gauge) pair: the per-chain cache.

    Raw states are built once; the sign-branch dependence enters only through
    one scale per state and side, attached lazily per EpsChoice.  The chain
    gauge, the norm constant of each branch and the dressed states (see
    dressed_states) are also built on first use and kept, so a separate state
    costs one Q-product vector, one matvec and one gauge application.
    """

    def __init__(self, params: ModelParams, gauge: GaugeParams):
        self.params = params
        self.gauge = gauge
        if not params.is_generic():
            raise ValueError("inhomogeneities fail the genericity condition")
        self._raw = {"right": raw_states(params, gauge, "right", gauge.beta + 1),
                     "left": raw_states(params, gauge, "left", gauge.beta - 1)}
        self._scale_cache = {}
        self._dressed_cache = {}
        self._chain_gauge = None

    @property
    def chain_gauge(self) -> np.ndarray:
        """The chain gauge matrix S = s_chain(params, beta, alpha)."""
        if self._chain_gauge is None:
            self._chain_gauge = s_chain(self.params, self.gauge.beta, self.gauge.alpha)
            self._chain_gauge.setflags(write=False)
        return self._chain_gauge

    def ungauge(self, vec: np.ndarray, side: str) -> np.ndarray:
        """S |vec> on the right side, <vec| S^{-1} on the left side."""
        if side == "right":
            return self.chain_gauge @ vec
        return np.linalg.solve(self.chain_gauge.T, vec)  # row vector times S^{-1}

    # -- per-branch scalings ------------------------------------------------

    def scales(self, eps: EpsChoice) -> dict:
        """Scale of every raw state of each side ("right", "left") for eps.

        A right state carries 1 / (k_j A_-(eta/2 - xi_j)) for each h_j = 1,
        a left state 1 / A_-(eta/2 - xi_j) for each h_j = 0, where
        k_j = sinh(2 xi_j + eta) / sinh(2 xi_j - eta).
        """
        if eps not in self._scale_cache:
            params, gauge = self.params, self.gauge
            eta = params.eta
            xi = np.asarray(params.xi)
            a_norm = np.array([a_minus_norm(eta / 2 - x, eps, gauge, params)
                               for x in params.xi])
            k = np.sinh(2 * xi + eta) / np.sinh(2 * xi - eta)
            bits = _bits(params.N)
            self._scale_cache[eps] = {"right": _bit_products(1 / (k * a_norm), bits),
                                      "left": _bit_products(1 / a_norm, 1 - bits)}
        return self._scale_cache[eps]

    def states(self, side: str, eps: EpsChoice) -> np.ndarray:
        """All states of one side, one row per h of all_h."""
        return self._raw[side] * self.scales(eps)[side][:, None]

    def right_states(self, eps: EpsChoice) -> np.ndarray:
        return self.states("right", eps)

    def left_states(self, eps: EpsChoice) -> np.ndarray:
        return self.states("left", eps)

    def right_state(self, h, eps: EpsChoice) -> np.ndarray:
        i = h_index(h)
        return self._raw["right"][i] * self.scales(eps)["right"][i]

    def left_state(self, h, eps: EpsChoice) -> np.ndarray:
        i = h_index(h)
        return self._raw["left"][i] * self.scales(eps)["left"][i]

    def dressed_states(self, side: str, eps: EpsChoice, bis: bool = False) -> np.ndarray:
        """The states of one side, each times its sov_weights factor without Q.

        Row h is sov_weights(1, params, side, eps, bis)[h] * states(side, eps)[h],
        so an SoV state is the Q-products prod_n Q(xi_n^(h_n)) times this.
        """
        key = (side, eps, bis)
        if key not in self._dressed_cache:
            w = sov_weights(np.ones((self.params.N, 2)), self.params, side, eps, bis)
            self._dressed_cache[key] = w[:, None] * self.states(side, eps)
            self._dressed_cache[key].setflags(write=False)
        return self._dressed_cache[key]

    def norm_const(self, eps: EpsChoice) -> complex:
        return sov_norm_const(self.params, self.gauge, eps)

    def norm_const_dense(self, eps: EpsChoice) -> complex:
        """Matrix-element route: V(xi^(0)) <0|...|0bar> with the h=0 left state."""
        params = self.params
        dim = 2 ** params.N
        v0 = vdm_hat(params.xi_grid()[:, 0])
        h0 = tuple([0] * params.N)
        return complex(v0 * self.left_state(h0, eps)[dim - 1])


def _vdm_hat_rows(x) -> np.ndarray:
    """vdm_hat of every row of x, in the same factor form."""
    j, k = np.triu_indices(x.shape[1], 1)
    return np.prod(np.sinh(x[:, k] - x[:, j]) * np.sinh(x[:, k] + x[:, j]), axis=1)


def sov_weights(qtab, params: ModelParams, side: str = "right",
                eps: EpsChoice | None = None, bis: bool = False) -> np.ndarray:
    """Weights of the h-sum of an SoV state, one per h of all_h.

    qtab[n - 1, b] holds Q(xi_n^(b)) on the shifted grid.  A weight is
    prod_n Q(xi_n^(h_n)) e^{-sum_n h_n xi_n} Vhat(xi^(h)); on the left side it
    also carries prod_n (u_n v_n)^(h_n).  The second left form (bis) carries
    prod_n (-v_n)^(h_n) and Vhat(xi^(1-h)) Vhat(xi^(0)) / Vhat(xi^(1)) instead.
    """
    N, eta = params.N, params.eta
    xi = np.asarray(params.xi)
    bits = _bits(N)
    vdm = _vdm_hat_rows(xi + eta / 2 - bits * eta)
    w = np.prod(np.asarray(qtab)[np.arange(N), bits], axis=1) * np.exp(-(bits @ xi))
    if side == "right":
        return w * vdm
    v = np.array([v_weight(n, eps, params) for n in range(1, N + 1)])
    if bis:
        # flipping every bit reverses the order of all_h
        return w * _bit_products(-v, bits) * vdm[::-1] * vdm[0] / vdm[-1]
    u = np.array([u_weight(n, params) for n in range(1, N + 1)])
    return w * _bit_products(u * v, bits) * vdm


def resolution_weights(params: ModelParams) -> np.ndarray:
    """Weights e^{-2 sum h xi} Vhat(xi^(h)) of the identity resolution.

    The second e^{-sum h xi} enters as the table Q(xi_n^(0)) = 1,
    Q(xi_n^(1)) = e^{-xi_n}.  The Gram diagonal <h|h> is the norm constant
    over these weights.
    """
    xi = np.asarray(params.xi)
    return sov_weights(np.stack([np.ones_like(xi), np.exp(-xi)], axis=1), params)


def sov_state(qtab, basis: SovBasis, side: str, eps: EpsChoice,
              bis: bool = False) -> np.ndarray:
    """The weighted h-sum of basis states (see sov_weights), ungauged.

    The Q-products prod_n qtab[n - 1, h_n] weight the cached dressed states.
    A right state comes back as S |.>, a left one as <.| S^{-1}, with S the
    chain gauge.
    """
    N = basis.params.N
    qprod = np.prod(np.asarray(qtab)[np.arange(N), _bits(N)], axis=1)
    return basis.ungauge(qprod @ basis.dressed_states(side, eps, bis), side)


def label_product(label, gauge: GaugeParams, params: ModelParams) -> complex:
    """prod_j b_-(l_j) sinh(eta l_j) / sinh(eta (l_j + j - 1)), l_j = label + N + 1 - 2j.

    The B^SOS label part of the Gram constant (at label beta) and of the
    A^SOS reference element (at label + 1).  It does not read xi, so it stays
    finite at the homogeneous point.
    """
    N, eta = params.N, params.eta
    out = 1.0 + 0j
    for j in range(1, N + 1):
        lbl = label + N + 1 - 2 * j
        out *= bcoef_minus(lbl, gauge, params) * np.sinh(eta * lbl) \
            / np.sinh(eta * (lbl + j - 1))
    return complex(out)


@functools.lru_cache
def gram_const(params: ModelParams, gauge: GaugeParams, eps: EpsChoice) -> complex:
    """The Gram constant without its ratio Vhat(xi^(0)) / Vhat(xi^(1)) (cached).

    (-1)^N Vhat(xi) label_product(beta) prod_j e^{-xi_j} sinh(-2 xi_j) / g_-(eta/2 - xi_j).
    The SoV determinant's prefactor cancels that ratio exactly.
    """
    xi = np.asarray(params.xi)
    g = g_minus(params.eta / 2 - xi, eps, gauge, params)
    out = (-1) ** params.N * vdm_hat(xi) * label_product(gauge.beta, gauge, params) \
        * np.prod(np.exp(-xi) * np.sinh(-2 * xi) / g)
    return complex(out)


@functools.lru_cache
def sov_norm_const(params: ModelParams, gauge: GaugeParams, eps: EpsChoice) -> complex:
    """The Gram constant (cached): gram_const times Vhat(xi^(0)) / Vhat(xi^(1))."""
    grid = params.xi_grid()
    return complex(gram_const(params, gauge, eps) * vdm_hat(grid[:, 0]) / vdm_hat(grid[:, 1]))


@functools.lru_cache
def z_beta(params: ModelParams, gauge: GaugeParams) -> complex:
    """The label factor z_beta = 1 / label_product(beta) of the exchanged form (cached)."""
    return 1 / label_product(gauge.beta, gauge, params)


def gram_matrix(basis: SovBasis, eps: EpsChoice) -> np.ndarray:
    """Bilinear pairings <beta-1,h| k,beta+1> over all h, k."""
    return basis.left_states(eps) @ basis.right_states(eps).T


def identity_resolution_residual(basis: SovBasis, eps: EpsChoice) -> float:
    dim = 2 ** basis.params.N
    w = resolution_weights(basis.params)
    acc = basis.right_states(eps).T @ (w[:, None] * basis.left_states(eps))
    acc /= basis.norm_const(eps)
    return float(np.linalg.norm(acc - np.eye(dim)) / np.sqrt(dim))


# ---------------------------------------------------------------------------
# Action formulas of the gauged operators on the SoV states.
# ---------------------------------------------------------------------------

def act_interpolated(lam, basis: SovBasis, eps: EpsChoice, side: str) -> np.ndarray:
    """Interpolation formula for the gauged actions on every SoV state.

    Row h is <beta-1,h| A^SOS(lam | beta-1) on the left side and
    D^SOS(lam | beta+1) |h,beta+1> on the right side: a combination of state
    h and the N states with one bit of h flipped.
    """
    params, gauge = basis.params, basis.gauge
    N, eta = params.N, params.eta
    bm = params.boundary_minus
    bits = _bits(N)
    sgn = 1 - 2 * bits  # the flip raises a 0 bit and lowers a 1 bit
    xi = np.asarray(params.xi)
    x = xi + eta / 2 - bits * eta
    s2 = np.sinh(x) ** 2
    lam_s2 = np.sinh(lam) ** 2 - s2
    full = np.prod(lam_s2, axis=1)
    prod0 = np.prod(np.sinh(eta / 2) ** 2 - s2, axis=1)
    prod1 = np.prod(np.cosh(eta / 2) ** 2 + s2, axis=1)
    others = np.empty_like(x)
    denom = np.empty_like(x)
    for n in range(N):
        rest = np.arange(N) != n
        others[:, n] = np.prod(lam_s2[:, rest], axis=1)
        denom[:, n] = np.prod(s2[:, [n]] - s2[:, rest], axis=1)

    # the flip weight of site n, for h_n = 0 and h_n = 1
    a_up = np.array([a_minus_norm(v, eps, gauge, params) for v in x[0]])
    a_dn = np.array([a_minus_norm(-v, eps, gauge, params) for v in x[-1]])
    if side == "left":
        table, label, sign = np.stack([a_up, a_dn], axis=1), gauge.beta - 1, -1
    else:
        k = np.sinh(2 * xi + eta) / np.sinh(2 * xi - eta)
        table, label, sign = np.stack([k * a_dn, a_up / k], axis=1), gauge.beta + 1, 1
    base = table[np.arange(N), bits] / (np.sinh(2 * x - sgn * eta) * np.sinh(2 * x) * denom)
    coef = np.sinh(2 * lam - eta) * np.sinh(lam + sgn * x) * others * base
    hop_coef = np.exp(eta / 2 - sgn * x) * base

    # the second value term carries a minus sign: with the gauge matrix as
    # defined, S_0^{-1}(-i pi/2) sigma^z S_0(i pi/2) = -Id, so the gauged
    # operator at eta/2 + i pi/2 equals -i coth(sigma_-) det_q M(i pi/2).
    q0 = (-1) ** N * qdet_m(0, params)
    q1 = (-1) ** N * qdet_m(1j * np.pi / 2, params) / np.tanh(bm.sigma)
    term_id = q0 * np.cosh(lam - eta / 2) * full / prod0 \
        - q1 * np.sinh(lam - eta / 2) * full / prod1
    # asymptotic operator contribution (its 2^(2N+1) scale cancels)
    c_inf = sign * np.exp(-3 * eta / 2 + sign * eta * label) / np.sinh(eta * label) \
        * np.exp(lam + eta) * np.sinh(2 * lam - eta) * full
    bracket = bm.kappa * np.exp(-sign * eta * label) \
        * np.sinh(eta * gauge.alpha + bm.tau) / np.sinh(bm.sigma) \
        + q0 / (2 * prod0) + q1 / (2 * prod1)

    states = basis.states(side, eps)
    flipped = states[np.arange(2 ** N)[:, None] ^ (1 << np.arange(N - 1, -1, -1))]
    return (term_id + c_inf * bracket)[:, None] * states \
        + np.einsum("hn,hnd->hd", coef + c_inf[:, None] * hop_coef, flipped)


def _max_row_residual(lhs, rhs) -> float:
    """The largest rel_residual between matching rows of lhs and rhs."""
    diff = np.linalg.norm(lhs - rhs, axis=1)
    scale = np.maximum(np.maximum(np.linalg.norm(lhs, axis=1),
                                  np.linalg.norm(rhs, axis=1)), 1e-300)
    return float(np.max(diff / scale))


def verify_sov_actions(basis: SovBasis, eps: EpsChoice, seed: int = 0):
    """Residuals of the B pseudo-eigenstate relations and interpolated actions."""
    from .trig import rng_for

    params, gauge = basis.params, basis.gauge
    N, eta = params.N, params.eta
    beta = gauge.beta
    rng = rng_for(seed, "sov-actions")
    lam = complex(rng.uniform(0.2, 1.1), rng.uniform(-0.4, 0.4))
    out = []
    scales = basis.scales(eps)
    # a_h(lam, h) a_h(-lam, h) for every h
    shifted = np.asarray(params.xi) + eta / 2 - _bits(N) * eta
    a_pair = np.prod(np.sinh(lam - shifted) * np.sinh(-lam - shifted), axis=1)
    blam = np.exp(lam - eta / 2) * np.sinh(2 * lam - eta)

    def act(rows, name, label, side):
        return sos_apply(rows, sos_factors([lam], label, params, gauge, side)[0], name)

    # right states at label beta-1 for the act-BR check
    rights_m = raw_states(params, gauge, "right", beta - 1) * scales["right"][:, None]
    lhs = act(rights_m, "B", beta - 1, "right")
    coef = (-1) ** N * a_pair * blam * bcoef_minus(beta - N - 1, gauge, params) \
        * np.sinh(eta * (beta - N - 1)) / np.sinh(eta * (beta - 1))
    out.append(("act-BR", _max_row_residual(lhs, coef[:, None] * basis.right_states(eps))))

    # left states at label beta+1 for the act-BL check
    lefts_p = raw_states(params, gauge, "left", beta + 1) * scales["left"][:, None]
    lhs = act(lefts_p, "B", beta + 1, "left")
    coef = (-1) ** N * a_pair * blam * bcoef_minus(beta + N + 1, gauge, params) \
        * np.sinh(eta * beta) / np.sinh(eta * (beta + N))
    out.append(("act-BL", _max_row_residual(lhs, coef[:, None] * basis.left_states(eps))))

    # interpolated A (left) and D (right) actions against the operators
    lhs = act(basis.left_states(eps), "A", beta - 1, "left")
    out.append(("act-AL", _max_row_residual(lhs, act_interpolated(lam, basis, eps, "left"))))
    lhs = act(basis.right_states(eps), "D", beta + 1, "right")
    out.append(("act-DR", _max_row_residual(lhs, act_interpolated(lam, basis, eps, "right"))))

    return out
