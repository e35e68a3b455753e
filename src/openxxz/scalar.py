"""Separate states and their scalar products.

Four routes to the same number: the dense contraction oracle, the SoV
dressed-Vandermonde determinant, the exchanged-variable determinant that is
regular in the homogeneous limit, and (on-shell) the Slavnov and Gaudin
forms with their rank-one-corrected rectangular generalization.  The
Slavnov and rectangular forms are ``detid.slavnov_form`` of the chain's
handle values; no Slavnov-type matrix is assembled here.  The
normalization factors the routes share (the Gram constant, z_beta and g_-)
come from ``sov``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .trig import VS_COLLISION, ModelParams, TrigPoly, bulk_a, bulk_d, varsigma, vdm_hat
from .lattice import det_scaled
from .gauge import GaugeParams
from .sov import (
    EpsChoice,
    SovBasis,
    big_a_eps,
    big_a_eps_logderiv,
    branch_ratio,
    g_minus,
    gram_const,
    sov_state,
    z_beta,
)
from .detid import a_functional_values, g_family, slavnov_form, x_weights


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
    qtab = spec.poly.at_varsigma(_grid_varsigma(basis.params))
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

@functools.lru_cache
def _grid_varsigma(params: ModelParams) -> np.ndarray:
    """varsigma on the shifted grid, read-only: entry [n - 1, h] is vs(xi_n^(h)).

    Every separate state and SoV matrix evaluates its Q and P there."""
    out = varsigma(params.xi_grid())
    out.setflags(write=False)
    return out


@functools.lru_cache
def _sov_grid(params: ModelParams, eps_p: EpsChoice, eps: EpsChoice):
    """The pair-independent terms of sov_matrix, read-only: the varsigma table
    of the shifted grid, -r_i and the powers vs(xi_i^(1-h))^j."""
    vs = _grid_varsigma(params)
    neg_ratio = -branch_ratio(params.xi_grid()[:, 0], eps_p, eps, params)
    powers = vs[:, ::-1, None] ** np.arange(params.N)
    for arr in (neg_ratio, powers):
        arr.setflags(write=False)
    return vs, neg_ratio, powers


def sov_matrix(q_spec: SeparateStateSpec, p_spec: SeparateStateSpec,
               params: ModelParams) -> np.ndarray:
    """SoV determinant matrix of a pair: h-summed columns over the shifted grid.

    Entry (i, j) is sum_h (-r_i)^h P(xi_i^(h)) Q(xi_i^(h)) vs(xi_i^(1-h))^j,
    with r_i = a_{eps_P}(xi_i + eta/2) / a_{-eps_Q}(xi_i + eta/2).
    """
    vs, neg_ratio, powers = _sov_grid(params, p_spec.eps, q_spec.eps)
    w = p_spec.poly.at_varsigma(vs)
    w[:, 1] *= neg_ratio
    w *= q_spec.poly.at_varsigma(vs)
    return w[:, 0, None] * powers[:, 0] + w[:, 1, None] * powers[:, 1]


def sp_sov(q_spec: SeparateStateSpec, p_spec: SeparateStateSpec,
           params: ModelParams, gauge: GaugeParams) -> complex:
    """Determinant with h-summed columns over the shifted grid, over the Gram constant."""
    mat = sov_matrix(q_spec, p_spec, params)
    return complex(det_scaled(mat) / gram_const(params, gauge, p_spec.eps))


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
    xi = np.asarray(params.xi)
    direct = branch_ratio(params.xi_grid()[:, 0], eps_p, eps, params)
    prod = np.prod([np.sinh(xi + a) / np.sinh(xi - a) for a in aset.values], axis=0)
    return float(np.max(np.abs(direct - prod) / np.abs(direct)))


def f_eps(lam, aset: ASet, params: ModelParams):
    """The structured handle attached to the exchanged representation.

    Elementwise in lam: a scalar or a numpy array of points.
    """
    out = (-1) ** params.N * bulk_a(-lam, params) * bulk_d(lam, params) / np.sinh(2 * lam)
    for al in aset.values:
        out *= np.sinh(lam - al + params.eta / 2) / np.sinh(al)
    return out


@functools.lru_cache
def g_eps_handle(level: int, aset: ASet, params: ModelParams):
    """The correction function g at the requested level (None when absent).

    The handle is elementwise in lam, as f_eps is.  fbar^(j) is a polynomial
    in varsigma of degree N + j, and the recursion reads the coefficients of
    prod_l sinh(a_l) times it, with the shifted grid as reference roots.
    """
    if aset.mixed_sign or aset.n_a != 4:
        return None
    prod_sinh = np.prod([np.sinh(a) for a in aset.values])
    radius = 2.0 + max(abs(varsigma(x)) for x in params.xi)
    g = g_family(lambda lam: prod_sinh * f_eps(lam, aset, params), params.xi_grid().ravel(),
                 aset.total, params.eta, level, params.N, params.N, radius=radius)
    return lambda lam: g(lam) / prod_sinh


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


@functools.lru_cache
def _pair_frame(eps: EpsChoice, eps_p: EpsChoice, total_degree: int, params: ModelParams,
                gauge: GaugeParams, a_tilde):
    """What every determinant form reads besides the roots, built once per chain,
    branch pair and total degree: the a-set, gamma, g (None off matching
    branches) and the prefactor (-1)^{N n} z_beta zbar gamma."""
    aset = build_aset(eps, eps_p, params, a_tilde)
    gam = gamma_prefactor(aset, total_degree, params)
    g = g_eps_handle(total_degree, aset, params) if eps == eps_p else None
    return aset, gam, g, (-1) ** (params.N * total_degree) * z_beta(params, gauge) \
        * z_bar(aset, eps_p, params, gauge) * gam


def sp_thm52(q_spec: SeparateStateSpec, p_spec: SeparateStateSpec,
             params: ModelParams, gauge: GaugeParams,
             a_tilde=DEFAULT_A_TILDE):
    """Exchanged-variable determinant representation of the scalar product.

    Returns (value, vanishing_flag); the flag marks the structurally zero
    mixed-sign case with too few roots.  Raises ValueError for two constant
    states on matching branches: the correction g then enters through the
    last column of an empty determinant, and the result would be wrong.
    """
    n_tot = q_spec.poly.degree + p_spec.poly.degree
    aset, gam, g, pref = _pair_frame(q_spec.eps, p_spec.eps, n_tot, params, gauge, a_tilde)
    if abs(gam) < 1e-280:
        return 0.0 + 0j, True
    if g is not None and n_tot == 0:
        raise ValueError("sp_thm52 has no total-degree-0 form on matching sign branches")
    zs = np.array(q_spec.poly.roots + p_spec.poly.roots)
    gz = g(zs) if g is not None else 0.0
    afun = a_functional_values(zs, f_eps(zs, aset, params), f_eps(-zs, aset, params),
                               gz, params.eta)
    return complex(pref * afun), False


# ---------------------------------------------------------------------------
# On-shell forms: Slavnov, Gaudin, and the rank-one-corrected rectangle.
# ---------------------------------------------------------------------------

def _slavnov(variant: int, q_spec: SeparateStateSpec, p_spec: SeparateStateSpec,
             params: ModelParams, gauge: GaugeParams) -> complex:
    """The pair prefactor times detid's Slavnov-type form ``variant`` on the
    clongdouble roots q (on-shell) then p, with f_eps and g of the pair."""
    eps = q_spec.eps
    if eps != p_spec.eps:
        raise ValueError("the on-shell forms are stated for matching sign branches")
    zs = np.array(q_spec.poly.roots + p_spec.poly.roots, dtype=np.clongdouble)
    if not len(zs):
        # g enters through the last column of an empty determinant
        raise ValueError("sp_slavnov has no total-degree-0 form on matching sign branches")
    aset, _, g, pref = _pair_frame(eps, eps, len(zs), params, gauge, DEFAULT_A_TILDE)
    n_q = q_spec.poly.degree
    form = slavnov_form(variant, zs[:n_q], zs[n_q:], f_eps(zs, aset, params),
                        f_eps(-zs, aset, params), g(zs), np.clongdouble(params.eta))
    return complex(pref * form)


def sp_slavnov(q_spec: SeparateStateSpec, p_spec: SeparateStateSpec,
               params: ModelParams, gauge: GaugeParams) -> complex:
    """Slavnov form for an on-shell Q and equal root counts."""
    if q_spec.poly.degree != p_spec.poly.degree:
        raise ValueError("equal root counts required; use the rectangular form")
    return _slavnov(1, q_spec, p_spec, params, gauge)


def sp_slavnov_gen(q_spec: SeparateStateSpec, p_spec: SeparateStateSpec,
                   params: ModelParams, gauge: GaugeParams) -> complex:
    """Rectangular generalization with the rank-one correction column."""
    if p_spec.poly.degree <= q_spec.poly.degree:
        raise ValueError("rectangular form requires more p roots than q roots")
    return _slavnov(3, q_spec, p_spec, params, gauge)


def gaudin_matrix(q_roots, eps: EpsChoice, params: ModelParams) -> np.ndarray:
    """Logarithmic-derivative matrix of the Bethe system at its roots.

    Off the diagonal, -sinh(2 q_k) (1/(vs(q_j + eta) - vs(q_k)) - 1/(vs(q_j - eta) - vs(q_k)));
    the same formula at k = j is the last term of the diagonal.
    """
    eta = np.clongdouble(params.eta)
    q = np.array(q_roots, dtype=np.clongdouble)
    inv = {sgn: 1 / (varsigma(q + sgn * eta)[:, None] - varsigma(q)) for sgn in (1, -1)}
    out = -np.sinh(2 * q) * (inv[1] - inv[-1])
    logderiv = [big_a_eps_logderiv(-qj, eps, params) + big_a_eps_logderiv(qj, eps, params)
                for qj in q]
    diag = sum(sgn * np.sinh(2 * (q + sgn * eta)) * inv[sgn].sum(axis=1) for sgn in (1, -1))
    out[np.diag_indices(len(q))] += diag - np.array(logderiv)
    return out


def gaudin_norm(q_spec: SeparateStateSpec, params: ModelParams,
                gauge: GaugeParams) -> complex:
    """Norm-type pairing of an on-shell separate state with itself."""
    eps, eta = q_spec.eps, np.clongdouble(params.eta)
    q = np.array(q_spec.poly.roots, dtype=np.clongdouble)
    if not len(q):
        # g enters through the last column of an empty determinant
        raise ValueError("gaudin_norm has no total-degree-0 form on matching sign branches")
    aset, _, g, pref = _pair_frame(eps, eps, 2 * len(q), params, gauge, DEFAULT_A_TILDE)
    qpoly = TrigPoly(tuple(q))
    pref = pref * vdm_hat(q - eta / 2) / vdm_hat(q + eta / 2) / (vdm_hat(q[::-1]) * vdm_hat(q))
    pref *= (1 + np.sum(x_weights(q, g(q), f_eps(-q, aset, params), eta))) \
        * np.prod(big_a_eps(q, eps, params) ** 2 * qpoly(q - eta)
                  / (np.sinh(2 * q + eta) ** 2 * np.sinh(2 * q - eta)))
    return complex(pref * det_scaled(gaudin_matrix(q, eps, params)))


# Newton steps onshell_roots takes before it gives up
NEWTON_STEPS = 20


def _tq_table(p, qpoly: TrigPoly, eps: EpsChoice, params: ModelParams):
    """Q(p), A(p) Q(p - eta) and A(-p) Q(p + eta) on an array of roots p."""
    eta = np.clongdouble(params.eta)
    return qpoly(p), big_a_eps(p, eps, params) * qpoly(p - eta), \
        big_a_eps(-p, eps, params) * qpoly(p + eta)


def bethe_log_residual(q, eps: EpsChoice, params: ModelParams) -> np.ndarray:
    """F_j = log(-A(-q_j) Q(q_j + eta) / (A(q_j) Q(q_j - eta))) with Q built on q.

    Zero at the Bethe roots; gaudin_matrix is its Jacobian dF_j / dq_k.
    """
    _, t_minus, t_plus = _tq_table(q, TrigPoly(tuple(q)), eps, params)
    return np.log(-t_plus / t_minus)


def onshell_roots(q0, eps: EpsChoice, params: ModelParams) -> np.ndarray:
    """The Bethe roots near q0, by Newton on bethe_log_residual in clongdouble with
    gaudin_matrix as the Jacobian; each step is solved in complex128 (LAPACK has
    no clongdouble kernel).  Returns clongdouble roots once a step falls to 1e-18
    of them; raises ValueError on a non-finite residual or step, on two converged
    roots whose varsigma values lie within VS_COLLISION (the Gaudin matrix is then
    singular and Q no Bethe state), and with the last residual when NEWTON_STEPS
    steps do not converge."""
    q = np.array(q0, dtype=np.clongdouble)
    for _ in range(NEWTON_STEPS):
        res = bethe_log_residual(q, eps, params)
        step = np.linalg.solve(gaudin_matrix(q, eps, params).astype(complex),
                               res.astype(complex))
        if not np.isfinite(step).all():
            raise ValueError("non-finite Bethe residual or Newton step")
        q = q - step
        if np.max(np.abs(step)) <= 1e-18 * np.max(np.abs(q)):
            vs = varsigma(q)
            gaps = np.abs(np.subtract.outer(vs, vs))[np.triu_indices(len(q), 1)]
            if np.any(gaps < VS_COLLISION):
                raise ValueError(f"coinciding Bethe roots: varsigma values {gaps.min():.1e} apart")
            return q
    raise ValueError(f"Newton on the Bethe equations did not converge in {NEWTON_STEPS} "
                     f"steps; last residual {float(np.max(np.abs(res))):.1e}")
