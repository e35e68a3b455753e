"""Transfer-matrix spectrum and the functional T-Q characterization.

The brute-force route diagonalizes the dense transfer matrix once and
interpolates each eigenvalue as a polynomial in varsigma; the functional
route reconstructs the same data from Q polynomials solving the homogeneous
or inhomogeneous T-Q equation on a collocation grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .trig import (
    DELTA_MIN,
    ModelParams,
    TrigPoly,
    bulk_ad,
    canonical_root,
    varsigma,
)
from .lattice import transfer, qdet_k_plus, qdet_m, qdet_u_minus
from .sov import EpsChoice, SovBasis, big_a_eps, sov_state

# deterministic generic evaluation point for the one-shot diagonalization,
# and the smallest relative eigenvalue gap it accepts there
LAMBDA_STAR = 0.4371 + 0.2193j
GAP_TOL = 1e-9
# held-out points of the eigenvector check
EIGEN_CHECK_LAMS = (0.48 + 0.21j, 0.92 - 0.14j, 1.21 + 0.33j)


@dataclass(frozen=True)
class TauPoly:
    """One transfer-matrix eigenvalue as a polynomial in varsigma."""

    coeffs: tuple
    eigvec_right: np.ndarray
    eigvec_left: np.ndarray
    label: int

    def __call__(self, lam):
        """tau(lam) as a complex for a scalar lam, as an array for an array."""
        val = self.at_varsigma(varsigma(lam))
        return val if np.ndim(val) else complex(val)

    def at_varsigma(self, vs):
        """tau at the points whose varsigma values are vs, by Horner's rule."""
        return _horner(self.coeffs, vs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class QSolution:
    """Monic Q polynomial solving a T-Q equation, with solve diagnostics."""

    q: TrigPoly
    inhomogeneous: bool
    eps: EpsChoice
    residual: float
    singular_ratio: float


def brute_spectrum(params: ModelParams):
    """All 2^N eigenvalue polynomials from dense diagonalization."""
    if params.N > 7:
        raise ValueError("dense spectrum capped at N = 7")
    N = params.N
    # one generic point for the diagonalization, then N+3 varsigma points
    # through which each eigenvalue is interpolated
    pts = [0.31 + 0.12j, 0.57 - 0.21j, 0.83 + 0.27j, 1.07 - 0.09j, 1.31 + 0.06j,
           0.45 + 0.36j, 0.69 - 0.33j, 0.93 + 0.18j, 1.19 - 0.28j, 0.39 - 0.04j]
    pts = pts[:N + 3]
    t0, *tmats = transfer(np.array([LAMBDA_STAR] + pts), params)
    evals, vr = np.linalg.eig(t0)
    order = np.argsort(evals.real + 1e-6 * evals.imag)
    evals, vr = evals[order], vr[:, order]
    gaps = np.abs(evals[:, None] - evals[None, :]) + np.eye(len(evals))
    if gaps.min() < GAP_TOL * np.abs(evals).max():
        raise ValueError("near-degenerate transfer spectrum; resample parameters")
    vl = np.linalg.inv(vr)  # rows are left eigenvectors, normalized to vl vr = 1

    vs = np.array([varsigma(p) for p in pts])
    vander = np.vander(vs, N + 3, increasing=True)
    # entry k of a sample row is vl[k] @ tp @ vr[:, k]
    samples = np.array([np.sum(vl * (tp @ vr).T, axis=1) for tp in tmats])
    coeffs = np.linalg.solve(vander, samples)

    out = []
    for k in range(2 ** N):
        out.append(TauPoly(coeffs=tuple(coeffs[:, k]), eigvec_right=vr[:, k].copy(),
                           eigvec_left=vl[k].copy(), label=k))
    return out


def tau_leading_coeff(params: ModelParams) -> complex:
    """Expected top varsigma coefficient, from the exponential asymptotics."""
    bm, bp = params.boundary_minus, params.boundary_plus
    return complex(8 * bp.kappa * bm.kappa * np.cosh(bp.tau - bm.tau)
                   / (np.sinh(bp.sigma) * np.sinh(bm.sigma)))


def tau_special_values(params: ModelParams) -> tuple:
    """The closed-form values of every eigenvalue, as (lam, tau(lam)) pairs."""
    eta = params.eta
    v1 = 2 * (-1) ** params.N * np.cosh(eta) * qdet_m(0, params)
    v2 = -2 * np.cosh(eta) * qdet_m(1j * np.pi / 2, params) \
        / (np.tanh(params.boundary_plus.sigma) * np.tanh(params.boundary_minus.sigma))
    return (eta / 2, v1), (eta / 2 + 1j * np.pi / 2, v2)


def sov_quadratic_rhs(n: int, params: ModelParams) -> complex:
    """Right side of the per-site quadratic condition on eigenvalues."""
    xn = params.xi[n - 1]
    eta = params.eta
    return complex(-qdet_k_plus(xn, params.boundary_plus, eta)
                   * qdet_u_minus(xn, params)
                   / (np.sinh(2 * xn + eta) * np.sinh(2 * xn - eta)))


def verify_tau(taus, params: ModelParams, eps: EpsChoice):
    """Worst residual over ``taus`` of each of the four spectral conditions.

    The held-out transfer matrices come from one call for the whole list.
    """
    N, eta = params.N, params.eta
    out = []

    # (i) degree: reproduce the transfer eigenvalue at held-out points
    lams = (0.52 + 0.23j, 1.11 - 0.17j, 0.77 + 0.31j)
    res = 0.0
    for lam, tmat in zip(lams, transfer(np.array(lams), params)):
        for tau in taus:
            ev = tau.eigvec_left @ tmat @ tau.eigvec_right \
                / (tau.eigvec_left @ tau.eigvec_right)
            res = max(res, abs(tau(lam) - ev) / abs(ev))
    out.append(("degree-interp", res))

    # (ii) leading asymptotics
    expected = tau_leading_coeff(params)
    out.append(("asymptotics", max(abs(tau.coeffs[-1] - expected) / abs(expected)
                                   for tau in taus)))

    # (iii) special values
    for name, (lam, val) in zip(("value-eta/2", "value-eta/2+ipi/2"), tau_special_values(params)):
        out.append((name, max(abs(tau(lam) - val) / abs(val) for tau in taus)))

    # (iv) per-site quadratic conditions
    rhs = [sov_quadratic_rhs(n, params) for n in range(1, N + 1)]
    res = 0.0
    for tau in taus:
        for n in range(1, N + 1):
            lhs = tau(params.xi[n - 1] + eta / 2) * tau(params.xi[n - 1] - eta / 2)
            res = max(res, abs(lhs - rhs[n - 1]) / abs(rhs[n - 1]))
    out.append(("quadratic", res))
    return out


def q_discrete(tau: TauPoly, params: ModelParams, eps: EpsChoice) -> np.ndarray:
    """Values of Q on the shifted-inhomogeneity grid, normalized per site.

    Row n - 1 holds Q(xi_n^(0)) = 1 and Q(xi_n^(1)): the table sov_state reads.
    """
    x0, x1 = params.xi_grid().T
    a0, a1 = big_a_eps(x0, eps, params), big_a_eps(-x1, eps, params)
    if np.any(np.abs(a0) < 1e-13):
        raise ValueError("vanishing normalization function on the grid")
    ratio = tau(x0) / a0
    alt = a1 / tau(x1)
    if np.any(np.abs(ratio - alt) > 1e-9 * np.maximum(np.abs(alt), 1.0)):
        raise ValueError("inconsistent discrete Q ratio; non-generic parameters")
    return np.stack([np.ones_like(ratio), ratio], axis=1)


def sov_eigenvector(tau: TauPoly, basis: SovBasis, eps: EpsChoice, side: str = "right",
                    qvals=None) -> np.ndarray:
    """Assemble the SoV eigenvector for one eigenvalue polynomial on the chain of ``basis``."""
    if qvals is None:
        qvals = q_discrete(tau, basis.params, eps)
    out = sov_state(qvals, basis, side, eps)
    if np.max(np.abs(out)) < 1e-13:
        raise ValueError("zero SoV eigenvector: inadmissible tau")
    return out


def eigen_residual(taus, vecs: np.ndarray, params: ModelParams, side: str = "right"):
    """Worst relative residual of T(lam) v = tau(lam) v (right) or v T = tau v
    (left) over the rows v of ``vecs``, row i paired with ``taus[i]``."""
    vecs = np.asarray(vecs)
    norms = np.linalg.norm(vecs, axis=1)
    res = 0.0
    for lam, tm in zip(EIGEN_CHECK_LAMS, transfer(np.array(EIGEN_CHECK_LAMS), params)):
        vals = np.array([tau(lam) for tau in taus])
        diff = vecs @ (tm.T if side == "right" else tm) - vals[:, None] * vecs
        res = max(res, np.max(np.linalg.norm(diff, axis=1) / (np.abs(vals) * norms)))
    return float(res)


# ---------------------------------------------------------------------------
# Inhomogeneous-term bookkeeping and boundary constraining.
# ---------------------------------------------------------------------------

def f_frak(r: int, eps: EpsChoice, params: ModelParams) -> complex:
    """Scalar controlling the inhomogeneous term at degree r."""
    bp, bm = params.boundary_plus, params.boundary_minus
    eta = params.eta
    combo = eps.a_plus * bp.alpha + eps.a_minus * bm.alpha \
        - eps.b_plus * bp.beta + eps.b_minus * bm.beta
    pref = 2 * bp.kappa * bm.kappa / (np.sinh(bp.sigma) * np.sinh(bm.sigma))
    return complex(pref * (np.cosh(bp.tau - bm.tau)
                           - eps.a_plus * eps.a_minus
                           * np.cosh(combo + (params.N - 1 - 2 * r) * eta)))


def big_f_eps(lam, eps: EpsChoice, params: ModelParams):
    """Inhomogeneous term of the T-Q equation, elementwise in lam."""
    a, d = bulk_ad(lam, params)
    am, dm = bulk_ad(-lam, params)
    return f_frak(params.N, eps, params) * a * am * d * dm \
        * (np.cosh(2 * lam) ** 2 - np.cosh(params.eta) ** 2)


def constrain_boundary(r: int, eps: EpsChoice, params: ModelParams,
                       eps_plus: int = 1) -> ModelParams:
    """Adjust tau_- so the degree-r inhomogeneity scalar vanishes.

    The cosh equation has two branches; one of them can land exactly on the
    basis-degeneracy lines (for r < N it collides with a zero of the
    normalization product), so the branch is accepted only if the
    non-degeneracy margin survives.
    """
    from .sov import cond3bis_margin

    bp, bm = params.boundary_plus, params.boundary_minus
    eta = params.eta
    combo = eps.a_plus * bp.alpha + eps.a_minus * bm.alpha \
        - eps.b_plus * bp.beta + eps.b_minus * bm.beta
    target = eps.a_plus * eps.a_minus * np.cosh(combo + (params.N - 1 - 2 * r) * eta)

    def candidates():
        for sign in (1, -1):
            tau_m = bp.tau - sign * np.arccosh(target + 0j)
            yield replace(params, boundary_minus=replace(bm, tau=complex(tau_m)))
        for sign in (1, -1):
            tau_p = bm.tau + sign * np.arccosh(target + 0j)
            yield replace(params, boundary_plus=replace(bp, tau=complex(tau_p)))

    for cand in candidates():
        if abs(f_frak(r, eps, cand)) < 1e-12 \
                and cond3bis_margin(cand, eps_plus) > DELTA_MIN:
            return cand
    raise ValueError("could not constrain the boundary at this degree "
                     "without degenerating the basis")


# ---------------------------------------------------------------------------
# Linear T-Q solver.
# ---------------------------------------------------------------------------

def _collocation_points(count: int):
    """Two Chebyshev arcs clear of the sinh(2 lam) zeros.

    The wide real arc reaches varsigma magnitudes ~90 so monic polynomials
    with large roots stay resolvable; the offset arc breaks the degeneracy
    of purely real sampling.
    """
    n1 = (count + 1) // 2
    n2 = count - n1
    k1 = np.arange(n1)
    arc1 = 1.45 + 1.25 * np.cos(np.pi * (2 * k1 + 1) / (2 * n1))
    k2 = np.arange(n2)
    arc2 = 1.2 + 0.9 * np.cos(np.pi * (2 * k2 + 1) / (2 * n2)) + 0.45j
    return np.concatenate([arc1, arc2])


def _horner(coeffs, x):
    """sum_k coeffs[k] x^k by Horner's rule, the steps of numpy's ``polyval``
    in its order, so both round alike: on an array of x with numpy's array
    products, on a Python complex x with Python's (the same as numpy's
    scalar products)."""
    out = coeffs[-1] + x * 0
    for c in coeffs[-2::-1]:
        out = c + out * x
    return out


def _polished_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots in varsigma of the monic sum_k coeffs[k] vs^k, one Newton step each.

    The roots are the sorted eigenvalues of the companion matrix, built as
    ``np.polynomial.polynomial.polyroots`` builds it, and the derivative's
    coefficients are ``polyder``'s.  The polish runs one root at a time (see
    ``solve_tq``), Horner in Python ``complex``, whose products round as
    numpy's scalar ones do; Python's complex quotient does not, so the
    Newton quotient is numpy's.
    """
    deg = len(coeffs) - 1
    if deg == 1:
        roots = np.array([-coeffs[0] / coeffs[1]])
    else:
        companion = np.zeros((deg, deg), dtype=coeffs.dtype)
        companion.reshape(-1)[deg::deg + 1] = 1
        companion[:, -1] -= coeffs[:-1] / coeffs[-1]
        roots = np.linalg.eigvals(companion)
        roots.sort()
    c, dc = coeffs.tolist(), (coeffs[1:] * np.arange(1, deg + 1)).tolist()
    for i, r in enumerate(roots.tolist()):
        dp = _horner(dc, r)
        if abs(dp) > 1e-13:
            roots[i] = r - np.complex128(_horner(c, r)) / np.complex128(dp)
    return roots


@functools.lru_cache
def _tq_grid(params: ModelParams, eps: EpsChoice, inhomogeneous: bool, degree: int):
    """The tau-independent terms of the collocation system, read-only.

    Built once per (chain, branch, mode, degree) and shared by the solves of
    every eigenvalue, on the collocation grid pts: the (3, len(pts)) table
    of varsigma at pts, pts - eta and pts + eta, on which tau and the
    root-form Q are evaluated; A(pts), A(-pts); the inhomogeneous term (zero
    in homogeneous mode); and in the monomials varsigma^k, k = 0..degree,
    V(pts), A(pts) V(pts - eta) and A(-pts) V(pts + eta).
    """
    pts = _collocation_points(max(4 * params.N, degree + 3))
    eta = params.eta
    vs = np.array([varsigma(pts), varsigma(pts - eta), varsigma(pts + eta)])
    a_p = big_a_eps(pts, eps, params)
    a_m = big_a_eps(-pts, eps, params)
    f = big_f_eps(pts, eps, params) if inhomogeneous else np.zeros(len(pts), complex)

    def vander(row):
        return np.vander(row, degree + 1, increasing=True)

    out = (vs, a_p, a_m, f, vander(vs[0]), a_p[:, None] * vander(vs[1]),
           a_m[:, None] * vander(vs[2]))
    for arr in out:
        arr.setflags(write=False)
    return out


def solve_tq(tau: TauPoly, params: ModelParams, eps: EpsChoice,
             mode: str = "homogeneous", degree: int | None = None) -> QSolution:
    """Least-squares solve for the monic Q of the T-Q functional equation.

    Per eigenvalue this evaluates tau on the cached grid, fits, roots the
    fit by ``_polished_roots`` and evaluates the residual of the root-form Q
    on the cached varsigma table; the roots, the residual and the singular
    ratio are those of the ``np.polynomial`` form of the same steps.  The
    Newton polish stays scalar, one root at a time, because numpy's array
    complex products round differently from its scalar ones: a vectorised
    polish would move the roots, and every record read from them, in the
    last bits.
    """
    inhom = mode == "inhomogeneous"
    if mode not in ("homogeneous", "inhomogeneous"):
        raise ValueError(f"unknown mode {mode!r}")
    deg = params.N if degree is None else degree
    if isinstance(deg, bool) or not isinstance(deg, (int, np.integer)) or deg < 0:
        raise ValueError(f"degree must be a non-negative integer, got {degree!r}")
    if not inhom and abs(f_frak(deg, eps, params)) > 1e-8:
        raise ValueError("homogeneous mode requires the degree-q scalar to vanish")

    vs, a_p, a_m, f, v0, vm, vp = _tq_grid(params, eps, inhom, deg)

    # row i is the equation at pts[i] in the monomials varsigma^k, k = 0..deg
    t = tau.at_varsigma(vs[0])
    rows = t[:, None] * v0 - vm - vp
    target = f - rows[:, deg]
    # each collocation equation is weighted to unit scale: the wide arc
    # spans many orders of magnitude across rows
    w = np.maximum(np.maximum(np.max(np.abs(rows), axis=1), np.abs(target)), 1e-300)
    a_mat = rows[:, :deg] / w[:, None]
    b_vec = target / w

    col_scale = np.linalg.norm(a_mat, axis=0)
    col_scale[col_scale == 0] = 1.0
    # lstsq returns the singular values of the scaled matrix as well
    sol, _, _, sv = np.linalg.lstsq(a_mat / col_scale, b_vec, rcond=None)
    coeffs = np.append(sol / col_scale, 1.0)
    singular_ratio = float(sv[-1] / sv[0]) if len(sv) else 1.0
    q = TrigPoly(roots=tuple(canonical_root(_polished_roots(coeffs)))) if deg > 0 \
        else TrigPoly(roots=())

    # report the equation residual of the root-form Q on the collocation
    # grid, relative to the size of the balanced terms
    qv = q.at_varsigma(vs)
    terms = np.array([t * qv[0], a_p * qv[1], a_m * qv[2], f])
    val = terms[0] - terms[1] - terms[2] - terms[3]
    res = np.max(np.abs(val) / np.max(np.abs(terms), axis=0))
    return QSolution(q=q, inhomogeneous=inhom, eps=eps, residual=float(res),
                     singular_ratio=singular_ratio)
