"""Helpers shared by the test modules."""

import numpy as np

from openxxz.scalar import _tq_table
from openxxz.sov import big_a_eps
from openxxz.trig import TrigPoly, varsigma


def tq_ratio(lam, q, eps, params) -> complex:
    """Eigenvalue reconstruction from Q through the T-Q ratio."""
    eta = params.eta
    return complex((big_a_eps(lam, eps, params) * q(lam - eta)
                    + big_a_eps(-lam, eps, params) * q(lam + eta)) / q(lam))


def a_h(lam, h, params) -> complex:
    """prod_n sinh(lam - xi_n - eta/2 + h_n eta) for a bit tuple h."""
    xi = np.asarray(params.xi)
    hh = np.asarray(h)
    return complex(np.prod(np.sinh(lam - xi - params.eta / 2 + hh * params.eta)))


def jacobian(p, q, table, eta) -> np.ndarray:
    """Jacobian d tau(p_j) / d q_k from the closed root-derivative formula.

    Reads the T-Q table of p, with tau(p) Q(p) the sum of its terms.
    """
    qp, t_minus, t_plus = table
    if np.any(np.abs(qp) < 1e-280):
        raise ValueError("p root collides with a q root")
    vq = varsigma(q)
    val = t_minus[:, None] / (varsigma(p - eta)[:, None] - vq) \
        + t_plus[:, None] / (varsigma(p + eta)[:, None] - vq) \
        - (t_minus + t_plus)[:, None] / (varsigma(p)[:, None] - vq)
    return -np.sinh(2 * q) * val / qp[:, None]


def slavnov_matrix(p_roots, q_roots, eps, params) -> np.ndarray:
    """Jacobian d tau(p_j) / d q_k from the closed root-derivative formula.

    Assembled in extended precision, from the T-Q table of p.
    """
    p = np.array(p_roots, dtype=np.clongdouble)
    q = np.array(q_roots, dtype=np.clongdouble)
    table = _tq_table(p, TrigPoly(tuple(q)), eps, params)
    return jacobian(p, q, table, np.clongdouble(params.eta))
