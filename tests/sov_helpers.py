"""Helpers shared by the test modules: closed forms of the SoV construction
with no caller in the package, and the Bethe-form rebuild of a separate
state by dressed-B operator products."""

import numpy as np

from openxxz.gauge import GaugeParams, bcoef_minus, sos_apply, sos_factors
from openxxz.scalar import SeparateStateSpec
from openxxz.sov import SovBasis, label_product, raw_states, sov_weights
from openxxz.trig import ModelParams, bulk_ad


def app_c_product(params: ModelParams, gauge: GaugeParams, label) -> complex:
    """Closed form of <0| prod_k A^SOS(eta/2 - xi_k | label) |0bar>."""
    N, eta = params.N, params.eta
    xi = np.asarray(params.xi)
    a, _ = bulk_ad(eta / 2 - xi, params)
    _, d = bulk_ad(xi - eta / 2, params)
    j, k = np.triu_indices(N, 1)
    return complex((-1) ** N * label_product(label + 1, gauge, params)
                   * np.prod(np.exp(-xi) * np.sinh(-2 * xi) * a * d)
                   * np.prod(np.sinh(xi[j] + xi[k]) / np.sinh(xi[j] + xi[k] - eta)))


def u_weight_product_form(n: int, params: ModelParams) -> complex:
    """u_n as -prod_{j != n} of its sinh ratios."""
    eta = params.eta
    xn = params.xi[n - 1]
    out = -1.0 + 0j
    for j, xj in enumerate(params.xi, start=1):
        if j == n:
            continue
        out *= np.sinh(xn - xj + eta) * np.sinh(xn + xj + eta) \
            / (np.sinh(xn + xj - eta) * np.sinh(xn - xj - eta))
    return complex(out)


def bethe_form_state(q_spec: SeparateStateSpec, basis: SovBasis) -> np.ndarray:
    """Rebuild a separate state by dressed-B operator products on a reference.

    On chains whose boundary satisfies the homogeneous-equation constraint the
    reduced coefficient b_-(beta - N - 1) vanishes and the dressed B operators
    degenerate to 0/0; the construction is only defined away from those zeros.
    """
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
            b_op = sos_factors([lam], lbl, params, gauge, side)[0]
            blam = np.exp(lam - eta / 2) * np.sinh(2 * lam - eta) \
                * bcoef_minus(lbl - N, gauge, params)
            coef = (-1) ** N / blam * np.sinh(eta * lbl) / np.sinh(eta * (lbl - N))
            vec = coef * sos_apply(vec[None], b_op, "B")[0]
        return basis.ungauge(vec, side)

    for i in range(m - 1, -1, -1):
        lam = roots[i]
        lbl = beta - 1 + 2 * (i + 1)
        b_op = sos_factors([lam], lbl, params, gauge, side)[0]
        blam = np.exp(lam - eta / 2) * np.sinh(2 * lam - eta) \
            * bcoef_minus(lbl + N, gauge, params)
        coef = (-1) ** N / blam * np.sinh(eta * (lbl + N - 1)) / np.sinh(eta * (lbl - 1))
        vec = coef * sos_apply(vec[None], b_op, "B")[0]
    return basis.ungauge(vec, side)
