"""Separate states and their scalar products.

Four routes to the same number: the dense contraction oracle, the SoV
dressed-Vandermonde determinant, the exchanged-variable determinant that is
regular in the homogeneous limit, and (on-shell) the Slavnov / Gaudin
jacobian forms with their rank-one-corrected rectangular generalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trig import ModelParams, TrigPoly, bulk_ad, varsigma, vdm_hat
from .lattice import det_scaled
from .gauge import GaugeParams, bcoef_minus
from .sov import (
    EpsChoice,
    SovBasis,
    a_eps_small,
    big_a_eps,
    big_a_eps_logderiv,
    g_minus,
    raw_states,
    sov_norm_const,
    sov_state,
    sov_weights,
)
from .detid import VsRational, a_functional_values, fbar_j, g_levels, level_handle, x_weights

Poly = np.polynomial.polynomial


@dataclass(frozen=True)
class SeparateStateSpec:
    """A separate state: its trig polynomial, sign branch, and side."""

    poly: TrigPoly
    eps: EpsChoice
    side: str = "right"


# ---------------------------------------------------------------------------
# State assembly and the direct oracle.
# ---------------------------------------------------------------------------

def separate_state(spec: SeparateStateSpec, basis: SovBasis,
                   use_bis: bool = False) -> np.ndarray:
    """Assemble the 2^N-term separate state in the computational basis."""
    qtab = spec.poly(basis.params.xi_grid())
    vec = sov_state(qtab, basis, spec.side, spec.eps, use_bis)
    return vec / basis.norm_const(spec.eps)


def sp_direct(q_spec: SeparateStateSpec, p_spec: SeparateStateSpec,
              basis: SovBasis) -> complex:
    """Bilinear contraction of the assembled left and right states."""
    left = separate_state(SeparateStateSpec(q_spec.poly, q_spec.eps, "left"), basis)
    right = separate_state(SeparateStateSpec(p_spec.poly, p_spec.eps, "right"), basis)
    return complex(left @ right)


# ---------------------------------------------------------------------------
# SoV dressed-Vandermonde determinant.
# ---------------------------------------------------------------------------

def sov_matrix(q_spec: SeparateStateSpec, p_spec: SeparateStateSpec,
               params: ModelParams) -> np.ndarray:
    """SoV determinant matrix of a pair: h-summed columns over the shifted grid.

    Entry (i, j) is sum_h (-r_i)^h P(xi_i^(h)) Q(xi_i^(h)) vs(xi_i^(1-h))^j,
    with r_i = a_{eps_P}(xi_i + eta/2) / a_{-eps_Q}(xi_i + eta/2).
    """
    grid = params.xi_grid()
    lam0 = grid[:, 0]
    ratio = a_eps_small(lam0, p_spec.eps, params) \
        / a_eps_small(lam0, q_spec.eps.flipped(), params)
    w = p_spec.poly(grid)
    w[:, 1] *= -ratio
    w *= q_spec.poly(grid)
    powers = varsigma(grid[:, ::-1])[:, :, None] ** np.arange(params.N)
    return w[:, 0, None] * powers[:, 0] + w[:, 1, None] * powers[:, 1]


def sp_sov(q_spec: SeparateStateSpec, p_spec: SeparateStateSpec,
           params: ModelParams, gauge: GaugeParams) -> complex:
    """Determinant with h-summed columns over the shifted grid."""
    norm = sov_norm_const(params, gauge, p_spec.eps)
    grid = params.xi_grid()
    v0, v1 = vdm_hat(grid[:, 0]), vdm_hat(grid[:, 1])
    mat = sov_matrix(q_spec, p_spec, params)
    return complex(det_scaled(mat) * v0 / (v1 * norm))


# ---------------------------------------------------------------------------
# The a-set and the exchanged-variable representation.
# ---------------------------------------------------------------------------

DEFAULT_A_TILDE = 0.5 + 1j / 3


@dataclass(frozen=True)
class ASet:
    """Parameters a_l of the boundary ratio for a branch pair (eps, eps')."""

    values: tuple
    mixed_sign: bool  # True when eps = -eps' (arbitrary a-tilde pair)

    @property
    def n_a(self) -> int:
        return len(self.values)

    @property
    def total(self) -> complex:
        return complex(sum(self.values))


def build_aset(eps: EpsChoice, eps_p: EpsChoice, params: ModelParams,
               a_tilde=DEFAULT_A_TILDE) -> ASet:
    """The a-parameters entering the ratio of normalization factors."""
    bp, bm = params.boundary_plus, params.boundary_minus
    if eps == eps_p.flipped():
        return ASet(values=(complex(a_tilde), -complex(a_tilde)), mixed_sign=True)
    components = (
        ("a_plus", eps_p.a_plus * bp.alpha),
        ("a_minus", eps_p.a_minus * bm.alpha),
        ("b_plus", eps_p.b_plus * (-bp.beta + 1j * np.pi / 2)),
        ("b_minus", eps_p.b_minus * (bm.beta + 1j * np.pi / 2)),
    )
    values = tuple(val for name, val in components
                   if getattr(eps, name) == getattr(eps_p, name))
    return ASet(values=values, mixed_sign=False)


def aset_ratio_residual(aset: ASet, eps: EpsChoice, eps_p: EpsChoice,
                        params: ModelParams) -> float:
    """Check of the product representation of the branch ratio at the grid."""
    worst = 0.0
    for n in range(1, params.N + 1):
        xi = params.xi[n - 1]
        lam0 = xi + params.eta / 2
        direct = a_eps_small(lam0, eps_p, params) \
            / a_eps_small(lam0, eps.flipped(), params)
        prod = np.prod([np.sinh(xi + a) / np.sinh(xi - a) for a in aset.values]) \
            if aset.values else 1.0
        worst = max(worst, abs(direct - prod) / abs(direct))
    return worst


def f_eps(lam, aset: ASet, params: ModelParams):
    """The structured handle attached to the exchanged representation.

    Elementwise in lam: a scalar or a numpy array of points.
    """
    a, _ = bulk_ad(-lam, params)
    _, d = bulk_ad(lam, params)
    out = (-1) ** params.N * a * d / np.sinh(2 * lam)
    for al in aset.values:
        out *= np.sinh(lam - al + params.eta / 2) / np.sinh(al)
    return out


def g_eps_handle(level: int, aset: ASet, params: ModelParams):
    """The correction function g at the requested level (None when absent).

    The handle is elementwise in lam, as f_eps is.
    """
    if aset.mixed_sign or aset.n_a != 4:
        return None
    N = params.N
    eta = params.eta
    a_sum = aset.total
    prod_sinh = np.prod([np.sinh(a) for a in aset.values])

    def f(lam):
        return f_eps(lam, aset, params)

    def g_base(lam):
        a, d = bulk_ad(lam, params)
        am, dm = bulk_ad(-lam, params)
        return np.sinh(a_sum - eta) / prod_sinh * a * d * am * dm

    if level == N:
        return g_base
    if level > N:
        fb_top = fbar_j(f, level, eta)

        def g(lam):
            return (-1) ** (level - N) * g_base(lam) - fb_top(lam)
        return g

    # fbar^(j) is a polynomial in varsigma of degree N + j; the recursion
    # reads the coefficients of prod_l sinh(a_l) times fbar^(j) and g_base,
    # for j above the requested level only
    fb_fns = {j: fbar_j(f, j, eta) for j in range(level, N + 1)}
    radius = 2.0 + max(abs(varsigma(x)) for x in params.xi)
    fb_coef = {j: VsRational.from_function(lambda lam, fb=fb: prod_sinh * fb(lam),
                                           N + j, (), radius)
               for j, fb in fb_fns.items() if j > level}
    grid = varsigma(params.xi_grid()).ravel()
    ref_coef = VsRational(np.sinh(a_sum - eta) * Poly.polyfromroots(grid), ())
    gamma, delta = g_levels(fb_coef, ref_coef, a_sum, eta, N, level, N)
    return level_handle(gamma[level], delta[level], fb_fns, g_base)


def z_beta(params: ModelParams, gauge: GaugeParams) -> complex:
    out = 1.0 + 0j
    N, eta = params.N, params.eta
    for j in range(1, N + 1):
        lbl = gauge.beta + 1 + N - 2 * j
        out *= np.sinh(eta * (gauge.beta + N - j)) \
            / (bcoef_minus(lbl, gauge, params) * np.sinh(eta * lbl))
    return complex(out)


def z_bar(aset: ASet, eps_p: EpsChoice, params: ModelParams,
          gauge: GaugeParams) -> complex:
    out = 1.0 + 0j
    for xi in params.xi:
        out *= np.exp(xi) * g_minus(params.eta / 2 - xi, eps_p, gauge, params)
        for a in aset.values:
            out *= np.sinh(a) / np.sinh(xi - a)
    return complex(out)


def gamma_prefactor(aset: ASet, total_degree: int, params: ModelParams) -> complex:
    """The counting prefactor; exactly zero in the vanishing mixed-sign case."""
    N, eta = params.N, params.eta
    a_sum = aset.total
    prod_sinh = np.prod([np.sinh(a) for a in aset.values])
    if total_degree >= N:
        out = 1.0 + 0j
        for j in range(1, total_degree - N + 1):
            out *= prod_sinh / np.sinh(j * eta - a_sum)
        return complex(out)
    out = 1.0 + 0j
    for j in range(0, N - total_degree):
        out *= np.sinh(-j * eta - a_sum) / prod_sinh
    return complex(out)


def sp_thm52(q_spec: SeparateStateSpec, p_spec: SeparateStateSpec,
             params: ModelParams, gauge: GaugeParams,
             a_tilde=DEFAULT_A_TILDE):
    """Exchanged-variable determinant representation of the scalar product.

    Returns (value, vanishing_flag); the flag marks the structurally zero
    mixed-sign case with too few roots.  Raises ValueError for two constant
    states on matching branches: the correction g then enters through the
    last column of an empty determinant, and the result would be wrong.
    """
    eps, eps_p = q_spec.eps, p_spec.eps
    aset = build_aset(eps, eps_p, params, a_tilde)
    n_tot = q_spec.poly.degree + p_spec.poly.degree
    gam = gamma_prefactor(aset, n_tot, params)
    if abs(gam) < 1e-280:
        return 0.0 + 0j, True
    g = g_eps_handle(n_tot, aset, params) if eps == eps_p else None
    if g is not None and n_tot == 0:
        raise ValueError("sp_thm52 has no total-degree-0 form on matching sign branches")
    zs = np.array(q_spec.poly.roots + p_spec.poly.roots)
    gz = g(zs) if g is not None else 0.0
    afun = a_functional_values(zs, f_eps(zs, aset, params), f_eps(-zs, aset, params),
                               gz, params.eta)
    val = (-1) ** (params.N * n_tot) * z_beta(params, gauge) \
        * z_bar(aset, eps_p, params, gauge) * gam * afun
    return complex(val), False


# ---------------------------------------------------------------------------
# On-shell forms: Slavnov, Gaudin, and the rank-one-corrected rectangle.
# ---------------------------------------------------------------------------

def slavnov_matrix(p_roots, q_roots, eps: EpsChoice, params: ModelParams) -> np.ndarray:
    """Jacobian d tau(p_j) / d q_k from the closed root-derivative formula.

    Assembled in extended precision: the determinant built on top cancels
    through the graded column scales.
    """
    eta = np.clongdouble(params.eta)
    p_roots = [np.clongdouble(p) for p in p_roots]
    q_roots = [np.clongdouble(q) for q in q_roots]
    qpoly = TrigPoly(tuple(q_roots))
    n_p, n_q = len(p_roots), len(q_roots)
    out = np.zeros((n_p, n_q), dtype=np.clongdouble)
    for j, p in enumerate(p_roots):
        qp = qpoly(p)
        if abs(qp) < 1e-280:
            raise ValueError("p root collides with a q root")
        a_p = big_a_eps(p, eps, params)
        a_m = big_a_eps(-p, eps, params)
        q_m = qpoly(p - eta)
        q_pl = qpoly(p + eta)
        tau_p = (a_p * q_m + a_m * q_pl) / qp
        for k, qk in enumerate(q_roots):
            val = a_p * q_m / (varsigma(p - eta) - varsigma(qk)) \
                + a_m * q_pl / (varsigma(p + eta) - varsigma(qk)) \
                - tau_p * qp / (varsigma(p) - varsigma(qk))
            out[j, k] = -np.sinh(2 * qk) * val / qp
    return out


def _root_weights(q_roots, g, aset: ASet, params: ModelParams) -> np.ndarray:
    """Rank-one correction weights X^g_k of f_eps over the on-shell roots."""
    q_roots = [np.clongdouble(q) for q in q_roots]
    return x_weights(q_roots, [g(q) for q in q_roots],
                     [f_eps(-q, aset, params) for q in q_roots], np.clongdouble(params.eta))


def h_q_factor(q_roots, g, aset: ASet, params: ModelParams) -> complex:
    """1 plus the rank-one correction sum over the on-shell roots."""
    if g is None:
        return 1.0 + 0j
    return 1 + np.sum(_root_weights(q_roots, g, aset, params))


def sp_slavnov(q_spec: SeparateStateSpec, p_spec: SeparateStateSpec,
               params: ModelParams, gauge: GaugeParams) -> complex:
    """Jacobian determinant form for an on-shell Q and equal root counts."""
    eps = q_spec.eps
    if eps != p_spec.eps:
        raise ValueError("the jacobian form is stated for matching sign branches")
    q_roots = [np.clongdouble(q) for q in q_spec.poly.roots]
    p_roots = [np.clongdouble(p) for p in p_spec.poly.roots]
    n = len(q_roots)
    if len(p_roots) != n:
        raise ValueError("equal root counts required; use the rectangular form")
    eta = np.clongdouble(params.eta)
    aset = build_aset(eps, eps, params)
    g = g_eps_handle(2 * n, aset, params)
    qpoly = TrigPoly(tuple(q_roots))
    pref = z_beta(params, gauge) * z_bar(aset, eps, params, gauge) \
        * gamma_prefactor(aset, 2 * n, params) \
        * h_q_factor(q_roots, g, aset, params)
    for p in p_roots:
        pref *= qpoly(p) / (np.sinh(2 * p + eta) * np.sinh(2 * p - eta))
    for q in q_roots:
        pref *= -big_a_eps(q, eps, params) / np.sinh(2 * q + eta)
    pref *= vdm_hat([q - eta / 2 for q in q_roots]) \
        / vdm_hat([q + eta / 2 for q in q_roots])
    det = det_scaled(slavnov_matrix(p_roots, q_roots, eps, params)) if n else 1.0
    return complex(pref * det / (vdm_hat(list(reversed(q_roots))) * vdm_hat(p_roots)))


def gaudin_matrix(q_roots, eps: EpsChoice, params: ModelParams) -> np.ndarray:
    """Logarithmic-derivative matrix of the Bethe system at its roots."""
    eta = np.clongdouble(params.eta)
    q_roots = [np.clongdouble(q) for q in q_roots]
    n = len(q_roots)
    out = np.zeros((n, n), dtype=np.clongdouble)
    for j, qj in enumerate(q_roots):
        for k, qk in enumerate(q_roots):
            if k != j:
                out[j, k] = -np.sinh(2 * qk) * (
                    1 / (varsigma(qj + eta) - varsigma(qk))
                    - 1 / (varsigma(qj - eta) - varsigma(qk)))
            else:
                val = -big_a_eps_logderiv(-qj, eps, params) \
                    - big_a_eps_logderiv(qj, eps, params)
                for sgn in (1, -1):
                    shift = qj + sgn * eta
                    val += sgn * np.sinh(2 * shift) * np.sum(
                        [1 / (varsigma(shift) - varsigma(q)) for q in q_roots])
                    val -= sgn * np.sinh(2 * qj) / (varsigma(shift) - varsigma(qj))
                out[j, j] = val
    return out


def gaudin_norm(q_spec: SeparateStateSpec, params: ModelParams,
                gauge: GaugeParams) -> complex:
    """Norm-type pairing of an on-shell separate state with itself."""
    eps = q_spec.eps
    q_roots = [np.clongdouble(q) for q in q_spec.poly.roots]
    n = len(q_roots)
    eta = np.clongdouble(params.eta)
    aset = build_aset(eps, eps, params)
    g = g_eps_handle(2 * n, aset, params)
    qpoly = TrigPoly(tuple(q_roots))
    pref = z_beta(params, gauge) * z_bar(aset, eps, params, gauge) \
        * gamma_prefactor(aset, 2 * n, params) \
        * h_q_factor(q_roots, g, aset, params)
    for q in q_roots:
        pref *= big_a_eps(q, eps, params) ** 2 * qpoly(q - eta) \
            / (np.sinh(2 * q + eta) ** 2 * np.sinh(2 * q - eta))
    pref *= vdm_hat([q - eta / 2 for q in q_roots]) \
        / vdm_hat([q + eta / 2 for q in q_roots])
    det = det_scaled(gaudin_matrix(q_roots, eps, params)) if n else 1.0
    return complex(pref * det / (vdm_hat(list(reversed(q_roots))) * vdm_hat(q_roots)))


def sp_slavnov_gen(q_spec: SeparateStateSpec, p_spec: SeparateStateSpec,
                   params: ModelParams, gauge: GaugeParams) -> complex:
    """Rectangular generalization with the rank-one correction column."""
    eps = q_spec.eps
    if eps != p_spec.eps:
        raise ValueError("the jacobian form is stated for matching sign branches")
    q_roots = [np.clongdouble(q) for q in q_spec.poly.roots]
    p_roots = [np.clongdouble(p) for p in p_spec.poly.roots]
    n_q, n_p = len(q_roots), len(p_roots)
    if n_p <= n_q:
        raise ValueError("rectangular form requires more p roots than q roots")
    eta = np.clongdouble(params.eta)
    aset = build_aset(eps, eps, params)
    g = g_eps_handle(n_p + n_q, aset, params)

    qpoly = TrigPoly(tuple(q_roots))

    s_mat = np.zeros((n_p, n_p), dtype=np.clongdouble)
    s_mat[:, :n_q] = slavnov_matrix(p_roots, q_roots, eps, params)
    for j, p in enumerate(p_roots):
        qp = qpoly(p)
        for k in range(n_q, n_p):
            acc = 0.0 + 0j
            for sgn in (1, -1):
                acc += sgn * big_a_eps(-sgn * p, eps, params) \
                    * np.sinh(2 * p + sgn * eta) \
                    * qpoly(p + sgn * eta) / qp \
                    * varsigma(p + sgn * eta / 2) ** (k - n_q)
            s_mat[j, k] = acc

    # rank-one correction: a single non-zero column at the last position
    p_col = np.zeros(n_p, dtype=np.clongdouble)
    if g is not None:
        w = _root_weights(q_roots, g, aset, params)
        cosh_q = np.cosh(2 * np.array(q_roots) - eta)
        for j, p in enumerate(p_roots):
            qp = qpoly(p)
            val = g(p) * np.sinh(2 * p + eta) * np.sinh(2 * p - eta) / qp ** 2
            for sgn in (1, -1):
                pref = sgn * big_a_eps(-sgn * p, eps, params) \
                    * np.sinh(2 * p + sgn * eta) * qpoly(p + sgn * eta) / qp
                val -= pref * np.sum(2 * w / (np.cosh(2 * p + sgn * eta) - cosh_q))
            p_col[j] = val
    s_mat[:, n_p - 1] += p_col

    # prefactors per the rectangular-exchange derivation: the jacobian columns
    # absorb one f(-q_k) each and no 1/(sinh eta sinh 2q_k) factors survive
    pref = (-1) ** (params.N * (n_p + n_q)) * z_beta(params, gauge) \
        * z_bar(aset, eps, params, gauge) \
        * gamma_prefactor(aset, n_p + n_q, params)
    for p in p_roots:
        pref *= qpoly(p) / (np.sinh(2 * p + eta) * np.sinh(2 * p - eta))
    for q in q_roots:
        pref *= f_eps(-q, aset, params)
    pref *= vdm_hat([q - eta / 2 for q in q_roots]) \
        / vdm_hat([q + eta / 2 for q in q_roots])
    denom = vdm_hat(list(reversed(q_roots))) * vdm_hat(p_roots)
    return complex(pref * det_scaled(s_mat) / denom)


# ---------------------------------------------------------------------------
# Bethe-type operator form of the separate states (verification route).
# ---------------------------------------------------------------------------

def bethe_form_state(q_spec: SeparateStateSpec, basis: SovBasis) -> np.ndarray:
    """Rebuild a separate state by dressed-B operator products on a reference.

    On chains whose boundary satisfies the homogeneous-equation constraint the
    reduced coefficient b_-(beta - N - 1) vanishes and the dressed B operators
    degenerate to 0/0; the construction is only defined away from those zeros.
    """
    from .gauge import sos_block

    params, gauge = basis.params, basis.gauge
    N, eta = params.N, params.eta
    beta = gauge.beta
    roots = list(q_spec.poly.roots)
    m = len(roots)
    for i in range(1, m + 1):
        for lbl in (beta + 1 - 2 * i - N, beta - 1 + 2 * i + N):
            if abs(bcoef_minus(lbl, gauge, params)) < 1e-10:
                raise ValueError("dressed-B chain hits a zero of the reduced "
                                 "b coefficient; Bethe form undefined here")
    eps, side = q_spec.eps, q_spec.side
    # reference at the shifted label, brought back by one dressed B per root
    label = beta + 1 - 2 * m if side == "right" else beta - 1 + 2 * m
    states = raw_states(params, gauge, side, label) * basis.scales(eps)[side][:, None]
    w = sov_weights(np.ones((N, 2)), params, side, eps)
    vec = w @ states / basis.norm_const(eps)

    if side == "right":
        for i in range(m - 1, -1, -1):
            lam = roots[i]
            lbl = beta + 1 - 2 * (i + 1)
            b_op = sos_block("B", lam, lbl, params, gauge)
            blam = np.exp(lam - eta / 2) * np.sinh(2 * lam - eta) \
                * bcoef_minus(lbl - N, gauge, params)
            coef = (-1) ** N / blam * np.sinh(eta * lbl) / np.sinh(eta * (lbl - N))
            vec = coef * (b_op @ vec)
        return basis.ungauge(vec, side)

    for i in range(m - 1, -1, -1):
        lam = roots[i]
        lbl = beta - 1 + 2 * (i + 1)
        b_op = sos_block("B", lam, lbl, params, gauge)
        blam = np.exp(lam - eta / 2) * np.sinh(2 * lam - eta) \
            * bcoef_minus(lbl + N, gauge, params)
        coef = (-1) ** N / blam * np.sinh(eta * (lbl + N - 1)) / np.sinh(eta * (lbl - 1))
        vec = coef * (vec @ b_op)
    return basis.ungauge(vec, side)
