"""Helpers shared by the test modules."""

import numpy as np

from openxxz.scalar import _jacobian, _tq_table
from openxxz.sov import big_a_eps
from openxxz.trig import TrigPoly


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


def slavnov_matrix(p_roots, q_roots, eps, params) -> np.ndarray:
    """Jacobian d tau(p_j) / d q_k from the closed root-derivative formula.

    Assembled in extended precision, from the T-Q table the on-shell
    determinant forms use.
    """
    p = np.array(p_roots, dtype=np.clongdouble)
    q = np.array(q_roots, dtype=np.clongdouble)
    table = _tq_table(p, TrigPoly(tuple(q)), eps, params)
    return _jacobian(p, q, table, np.clongdouble(params.eta))
