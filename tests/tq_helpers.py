"""Helpers shared by the test modules."""

from openxxz.sov import big_a_eps


def tq_ratio(lam, q, eps, params) -> complex:
    """Eigenvalue reconstruction from Q through the T-Q ratio."""
    eta = params.eta
    return complex((big_a_eps(lam, eps, params) * q(lam - eta)
                    + big_a_eps(-lam, eps, params) * q(lam + eta)) / q(lam))
