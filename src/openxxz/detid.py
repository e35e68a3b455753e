"""Dressed-Vandermonde functional and the determinant exchange identities.

Everything here is physics-free: the functional, the structured rational
families it is evaluated on, the identities swapping the roles of the two
point sets, and their Slavnov-type rewritings, over arbitrary complex point
sets and function handles.

The z -> infinity limits appearing in the downward g-recursions are resolved
by exact leading-coefficient extraction: the symmetrized combinations are
rational functions of varsigma with known denominators, so their numerator
coefficients are recovered by sampling on a circle and inverse DFT, never by
large-argument evaluation.
"""

from __future__ import annotations

import numpy as np

from .trig import TrigPoly, canonical_root, varsigma, vdm_hat
from .lattice import det_scaled

Poly = np.polynomial.polynomial


def functional_matrix(zs, fz, fmz, gz, eta) -> np.ndarray:
    """Matrix of the functional from the values f(z_i), f(-z_i) and g(z_i).

    Entry (i, j) is f(z_i) vs(z_i + eta/2)^j + f(-z_i) vs(z_i - eta/2)^j, and
    g(z_i) is added to the last column.  The dtype follows the inputs.
    """
    zs = np.asarray(zs)
    powers = np.arange(len(zs))
    vp = varsigma(zs + eta / 2)[:, None] ** powers
    vm = varsigma(zs - eta / 2)[:, None] ** powers
    mat = np.asarray(fz)[:, None] * vp + np.asarray(fmz)[:, None] * vm
    mat[:, -1] += gz
    return mat


def a_functional(zs, f, eta, g=None) -> complex:
    """Dressed Vandermonde ratio A_{z}[f, g].

    det over i, j of  sum_eps f(eps z_i) vs(z_i + eps eta/2)^{j-1}
    plus g(z_i) added to the last column, divided by vdm_hat(z).
    """
    zs = list(zs)
    gz = [g(z) for z in zs] if g is not None else 0.0
    return a_functional_values(zs, [f(z) for z in zs], [f(-z) for z in zs], gz, eta)


def a_functional_values(zs, fz, fmz, gz, eta) -> complex:
    """A_{z}[f, g] from the values f(z_i), f(-z_i) and g(z_i) (see functional_matrix)."""
    zs = list(zs)
    if not zs:
        return 1.0 + 0j
    denom = vdm_hat(zs)
    if abs(denom) < 1e-280:
        raise ValueError("Vandermonde collision in the functional's point set")
    return complex(det_scaled(functional_matrix(zs, fz, fmz, gz, eta)) / denom)


def f_special(a_set, z_set, eta):
    """The structured handle prod sinh(lam+a)/sinh(2 lam) * prod (vs-vs(z))/(vs(+eta/2)-vs(z))."""
    a_set = tuple(a_set)
    z_set = tuple(z_set)
    zpoly = TrigPoly(z_set)

    def f(lam):
        out = 1.0 + 0j
        for a in a_set:
            out *= np.sinh(lam + a)
        return out / np.sinh(2 * lam) * zpoly(lam) / zpoly(lam + eta / 2)

    f.poles = tuple(varsigma(z - eta / 2) for z in z_set) \
        + tuple(varsigma(z + eta / 2) for z in z_set)
    return f


def fbar_j(f, j: int, eta):
    """Symmetrized combination f(lam) vs(lam+eta/2)^{j-1} + f(-lam) vs(lam-eta/2)^{j-1}."""
    def fb(lam):
        return f(lam) * varsigma(lam + eta / 2) ** (j - 1) \
            + f(-lam) * varsigma(lam - eta / 2) ** (j - 1)
    return fb


# ---------------------------------------------------------------------------
# Exact rational representation in varsigma.
# ---------------------------------------------------------------------------

class VsRational:
    """Rational function of varsigma: numerator coefficients over fixed poles."""

    def __init__(self, num, poles):
        self.num = np.trim_zeros(np.asarray(num, dtype=complex), "b")
        self.poles = tuple(poles)

    def __call__(self, lam):
        vs = varsigma(lam)
        den = np.prod([vs - p for p in self.poles]) if self.poles else 1.0
        return Poly.polyval(vs, self.num) / den

    def coeff(self, k: int) -> complex:
        return complex(self.num[k]) if k < len(self.num) else 0.0 + 0j

    @classmethod
    def from_function(cls, fn, degree: int, poles, radius: float | None = None):
        """Sample fn(lam) * prod(vs - pole) on a circle and inverse-DFT."""
        poles = tuple(poles)
        if radius is None:
            radius = 2.0 + max((abs(p) for p in poles), default=0.0)
        npts = degree + 1
        ks = np.arange(npts)
        vs_pts = radius * np.exp(2j * np.pi * ks / npts)
        vals = np.zeros(npts, dtype=complex)
        for i, vs in enumerate(vs_pts):
            lam = canonical_root(vs)
            den = np.prod([vs - p for p in poles]) if poles else 1.0
            vals[i] = fn(lam) * den
        coeffs = np.fft.fft(vals) / npts / radius ** ks
        return cls(coeffs, poles)

    @classmethod
    def from_vs_poly(cls, coeffs, poles):
        """Polynomial in varsigma promoted over the common denominator."""
        poles = tuple(poles)
        return cls(Poly.polymul(np.asarray(coeffs, dtype=complex),
                                Poly.polyfromroots(poles)), poles)


def _level_coeff(gamma, delta, fb_coef, ref_coef, L: int, k: int) -> complex:
    """Coefficient k of fbar^(L) + g^(L), with g^(L) as combined by ``g_levels``."""
    out = fb_coef[L].coeff(k) + delta[L] * ref_coef.coeff(k)
    for j, c in gamma[L].items():
        out += c * fb_coef[j].coeff(k)
    return out


def g_levels(fb_coef, ref_coef, a_sum, eta, top: int, low: int, offset: int):
    """The downward recursion for the correction functions, from ``top`` to ``low``.

    Level L is kept as g^(L) = sum_j gamma[L][j] fbar^(j) + delta[L] * ref.
    ``fb_coef`` and ``ref_coef`` hold the exactly interpolated numerator
    coefficients of fbar^(j) and of the reference over a common denominator.
    fbar^(L) has degree offset + L and g^(L) cancels its top coefficient;
    coefficient offset + L of level L + 1 is the z -> infinity limit that
    fixes the step down to level L.
    """
    gamma = {top: {}}
    delta = {top: 1.0 + 0j}
    for L in range(top - 1, low - 1, -1):
        den = np.sinh((L + 1 - top) * eta - a_sum)
        if abs(den) < 1e-10:
            raise ValueError("resonant induction denominator; perturb the a-set")
        k_fac = _level_coeff(gamma, delta, fb_coef, ref_coef, L + 1, offset + L) / den
        new_gamma = {j: -c for j, c in gamma[L + 1].items()}
        new_gamma[L] = new_gamma.get(L, 0.0) + (k_fac - 1.0)
        new_gamma[L + 1] = new_gamma.get(L + 1, 0.0) - 1.0
        gamma[L] = new_gamma
        delta[L] = -delta[L + 1]
    return gamma, delta


def level_handle(gamma_l, delta_l, fb_fns, ref_fn):
    """The callable sum_j gamma_l[j] fbar^(j) + delta_l * ref of one level."""
    def g(lam):
        out = delta_l * ref_fn(lam)
        for j, c in gamma_l.items():
            out += c * fb_fns[j](lam)
        return out

    return g


def _ghat_family(a_set, x_set, eta, low: int):
    """The correction functions of the exchange identities, down to level ``low``.

    The infinite-point limits need only the top band of numerator
    coefficients, which circle sampling recovers accurately.  Returns
    (callables by level, (gamma, delta, fbar coefficients, reference)).
    """
    n = len(x_set)
    poles = tuple(varsigma(x + eta / 2) for x in x_set) \
        + tuple(varsigma(x - eta / 2) for x in x_set)
    a_sum = sum(a_set)
    f_ex = f_special(tuple(eta / 2 - a for a in a_set), x_set, eta)

    fb_fns = {j: fbar_j(f_ex, j, eta) for j in range(low, n + 1)}
    fb_coef = {j: VsRational.from_function(fb_fns[j], 2 * n + j, poles)
               for j in range(low, n + 1)}
    xpoly = TrigPoly(x_set)
    xd = VsRational.from_vs_poly(
        np.sinh(a_sum - eta) * Poly.polyfromroots([varsigma(x) for x in x_set]), poles)

    def ref(lam):
        return np.sinh(a_sum - eta) * xpoly(lam)

    gamma, delta = g_levels(fb_coef, xd, a_sum, eta, n, low, 2 * n)
    ghat_fns = {L: level_handle(gamma[L], delta[L], fb_fns, ref) for L in gamma}
    return ghat_fns, (gamma, delta, fb_coef, xd)


def check_identity_D(variant: int, a_set, x_set, z_set, eta):
    """Relative difference of the two sides of the exchange identities."""
    a_set, x_set, z_set = tuple(a_set), tuple(x_set), tuple(z_set)
    n_a, n, m = len(a_set), len(x_set), len(z_set)
    a_sum = sum(a_set)
    f_az = f_special(a_set, z_set, eta)
    f_ex = f_special(tuple(eta / 2 - a for a in a_set), x_set, eta)
    lhs = a_functional(x_set, f_az, eta)

    xpoly = TrigPoly(x_set)

    if variant == 1:
        assert n == m
        if n_a == 4:
            def g(lam):
                return np.sinh(a_sum - eta) * xpoly(lam)
        else:
            g = None
        rhs = (-1) ** n * a_functional(z_set, f_ex, eta, g)
    elif variant == 2:
        assert n < m
        if n_a == 4:
            fb_m = fbar_j(f_ex, m, eta)

            def g(lam):
                return (-1) ** (m - n) * np.sinh(a_sum - eta) * xpoly(lam) - fb_m(lam)
        else:
            g = None
        denom = np.prod([np.sinh(a_sum - j * eta) for j in range(1, m - n + 1)])
        rhs = (-1) ** m * a_functional(z_set, f_ex, eta, g) / denom
    elif variant == 3:
        assert n_a == 2 and m < n
        pref = (-1) ** m * np.prod([np.sinh(a_sum + j * eta) for j in range(n - m)])
        rhs = pref * a_functional(z_set, f_ex, eta)
    elif variant == 4:
        assert n_a == 4 and m < n
        ghat, _ = _ghat_family(a_set, x_set, eta, m)
        pref = (-1) ** m * np.prod([np.sinh(a_sum + j * eta) for j in range(n - m)])
        rhs = pref * a_functional(z_set, f_ex, eta, ghat[m])
    else:
        raise ValueError(f"unknown variant {variant}")

    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale, lhs, rhs


def degree_cancellation_residual(a_set, x_set, eta) -> float:
    """Top-coefficient cancellation of fbar^(L) + ghat^(L) at every level."""
    n = len(x_set)
    _, (gamma, delta, fb_coef, xd) = _ghat_family(a_set, x_set, eta, 1)
    worst = 0.0
    for L in range(1, n + 1):
        top = _level_coeff(gamma, delta, fb_coef, xd, L, 2 * n + L)
        ref = max(abs(fb_coef[L].coeff(2 * n + L)), 1e-300)
        worst = max(worst, abs(top) / ref)
    return worst


# ---------------------------------------------------------------------------
# On-shell systems and the Slavnov-type rewritings.
# ---------------------------------------------------------------------------

def phi_ratio(lam, x_set, eta) -> complex:
    """sinh(2l-eta)/sinh(2l+eta) * X(l+eta)/X(l-eta) for X built on x_set."""
    xpoly = TrigPoly(tuple(x_set))
    return np.sinh(2 * lam - eta) / np.sinh(2 * lam + eta) \
        * xpoly(lam + eta) / xpoly(lam - eta)


def onshell_residual(f, x_set, eta) -> float:
    vals = [abs(f(-x) - f(x) * phi_ratio(x, [xx for xx in x_set], eta))
            for x in x_set]
    return float(max(vals))


def onshell_solve(f, x_init, eta, tol: float = 1e-11, maxit: int = 50):
    """Newton iteration driving f(-x_k) = f(x_k) phi_x(x_k).

    The residual is measured relative to the size of the two balanced terms.
    """
    x = np.asarray(x_init, dtype=complex).copy()
    L = len(x)

    def system(xv):
        res = np.empty(L, dtype=complex)
        scl = np.empty(L)
        for k in range(L):
            lhs = f(-xv[k])
            rhs = f(xv[k]) * phi_ratio(xv[k], xv, eta)
            res[k] = lhs - rhs
            scl[k] = max(abs(lhs), abs(rhs), 1e-300)
        return res, scl

    best = None
    for _ in range(maxit):
        r, scl = system(x)
        err = np.max(np.abs(r) / scl)
        if best is None or err < best[0]:
            best = (err, x.copy())
        if err < tol:
            return x
        jac = np.zeros((L, L), dtype=complex)
        step = 1e-7
        for k in range(L):
            xp = x.copy()
            xp[k] += step
            xm = x.copy()
            xm[k] -= step
            jac[:, k] = (system(xp)[0] - system(xm)[0]) / (2 * step)
        x = x - np.linalg.solve(jac, r)
    if best[0] < 10 * tol:
        return best[1]
    raise ValueError("on-shell Newton iteration did not converge")


def x_weights(x_set, gx, fmx, eta):
    """X^g_{f,k} = g(x_k) sinh(2x_k - eta) / (f(-x_k) X'(x_k) X(x_k - eta)).

    Takes the values gx = g(x_k) and fmx = f(-x_k); the dtype follows them.
    """
    xpoly = TrigPoly(tuple(x_set))
    return np.array([gk * np.sinh(2 * xk - eta)
                     / (fk * xpoly.deriv(xk) * xpoly(xk - eta))
                     for xk, gk, fk in zip(x_set, gx, fmx)])


def check_identity_E(variant: int, f, g, x_set, y_set, eta):
    """Relative difference of the functional against its Slavnov-type form.

    Kinematic factors and determinants are assembled in extended precision:
    the Slavnov-type matrices are graded by the phi ratios and plain double
    assembly loses the graded digits in the determinant cancellation.  The
    handles f and g themselves are evaluated at their native precision.
    """
    ld = np.clongdouble
    etx = ld(eta)
    x_set = list(x_set)
    y_set = list(y_set)
    l1, l2 = len(x_set), len(y_set)
    xs = np.array(x_set, dtype=ld)
    ys = np.array(y_set, dtype=ld)

    xpoly = TrigPoly(tuple(xs))
    fx = np.array([ld(complex(f(complex(x)))) for x in x_set])
    fmx = np.array([ld(complex(f(-complex(x)))) for x in x_set])
    fy = np.array([ld(complex(f(complex(y)))) for y in y_set])
    fmy = np.array([ld(complex(f(-complex(y)))) for y in y_set])
    gx = np.array([ld(complex(g(complex(x)))) for x in x_set]) if g is not None \
        else np.zeros(l1, dtype=ld)
    gy = np.array([ld(complex(g(complex(y)))) for y in y_set]) if g is not None \
        else np.zeros(l2, dtype=ld)

    # left side: the dressed-Vandermonde functional in the same precision
    pts = np.concatenate([xs, ys])
    mat = functional_matrix(pts, np.concatenate([fx, fy]), np.concatenate([fmx, fmy]),
                            np.concatenate([gx, gy]), etx)
    lhs = det_scaled(mat) / vdm_hat(pts)

    phis = np.array([phi_ratio(x, xs, etx) for x in xs])
    xg = x_weights(xs, gx, fmx, etx)
    sg = 1 + np.sum(xg)

    vs_m = vdm_hat(xs - etx / 2)
    vs_p = vdm_hat(xs + etx / 2)
    v_xrev = vdm_hat(xs[::-1])
    v_y = vdm_hat(ys)

    if variant == 1:
        assert l1 == l2
        res_onshell = float(max(abs(fmx[k] - fx[k] * phis[k])
                                / max(abs(fmx[k]), abs(fx[k] * phis[k]))
                                for k in range(l1)))
        mat = np.zeros((l1, l1), dtype=ld)
        for i in range(l1):
            for k in range(l1):
                acc = ld(0)
                for sgn, fv in ((1, fy[i]), (-1, fmy[i])):
                    xk_shift = np.prod([varsigma(ys[i] + sgn * etx) - varsigma(xs[j])
                                        for j in range(l1) if j != k]) \
                        if l1 > 1 else ld(1)
                    acc += fv * xk_shift / (varsigma(ys[i]) - varsigma(xs[k]))
                mat[i, k] = acc
        pref = np.prod(np.sinh(etx) * fmx * np.sinh(2 * xs))
        rhs = pref * vs_m / vs_p * sg * det_scaled(mat) / (v_xrev * v_y)
        scale = max(abs(lhs), abs(rhs), 1e-300)
        return float(abs(lhs - rhs) / scale), res_onshell

    if variant == 2:
        assert l1 == l2
        mat = np.zeros((l1, l1), dtype=ld)
        for i in range(l1):
            for k in range(l1):
                bethe = fmx[k] - fx[k] * phis[k]
                acc = ld(0)
                for sgn, fv in ((1, fy[i]), (-1, fmy[i])):
                    vsy = varsigma(ys[i] + sgn * etx / 2)
                    term = fmx[k] / (vsy - varsigma(xs[k] + etx / 2)) \
                        - fx[k] * phis[k] / (vsy - varsigma(xs[k] - etx / 2))
                    # minus sign: Schur complement through the
                    # Sherman-Morrison inverse, cf. the rectangular variant
                    term -= bethe / sg * np.sum(
                        xg / (vsy - varsigma(xs - etx / 2)))
                    acc += fv * xpoly(ys[i] + sgn * etx) * term
                acc += gy[i] / xpoly(ys[i]) * bethe / sg
                mat[i, k] = acc
        rhs = vs_m / vs_p * sg * det_scaled(mat) / (v_xrev * v_y)
        scale = max(abs(lhs), abs(rhs), 1e-300)
        return float(abs(lhs - rhs) / scale), None

    if variant == 3:
        assert l1 < l2
        mat = np.zeros((l2, l2), dtype=ld)
        for i in range(l2):
            for k in range(l2):
                acc = ld(0)
                if k < l1:
                    for sgn, fv in ((1, fy[i]), (-1, fmy[i])):
                        vsy = varsigma(ys[i] + sgn * etx / 2)
                        term = fmx[k] / (vsy - varsigma(xs[k] + etx / 2)) \
                            - fx[k] * phis[k] / (vsy - varsigma(xs[k] - etx / 2))
                        acc += fv * xpoly(ys[i] + sgn * etx) * term
                else:
                    for sgn, fv in ((1, fy[i]), (-1, fmy[i])):
                        vsy = varsigma(ys[i] + sgn * etx / 2)
                        term = vsy ** (k - l1)
                        if k == l2 - 1 and l1:
                            term -= np.sum(xg / (vsy - varsigma(xs - etx / 2)))
                        acc += fv * xpoly(ys[i] + sgn * etx) * term
                    if k == l2 - 1:
                        acc += gy[i] / xpoly(ys[i])
                mat[i, k] = acc
        rhs = vs_m / vs_p * det_scaled(mat) / (v_xrev * v_y)
        scale = max(abs(lhs), abs(rhs), 1e-300)
        return float(abs(lhs - rhs) / scale), None

    raise ValueError(f"unknown variant {variant}")


# ---------------------------------------------------------------------------
# Random handles for the generic checks.
# ---------------------------------------------------------------------------

def random_fn_handle(rng, eta):
    """Low-order rational-trig handle with poles well off the sampling region."""
    nzeros = int(rng.integers(1, 4))
    npoles = int(rng.integers(0, 3))
    w = rng.uniform(0.2, 1.2, nzeros) + 1j * rng.uniform(-0.5, 0.5, nzeros)
    v = rng.uniform(2.0, 3.0, npoles) + 1j * rng.uniform(0.6, 1.4, npoles)
    c = complex(rng.normal(), rng.normal())
    c0 = complex(rng.normal(), rng.normal())

    def f(lam):
        out = c
        for wi in w:
            out *= np.sinh(lam - wi)
        for vi in v:
            out /= np.sinh(lam - vi)
        return out + c0

    return f


def generic_point_set(rng, n, eta, others=(), sep: float = 0.08,
                      max_phi: float = 3e3, tries: int = 500):
    """Random points whose plain and eta-shifted varsigma values stay separated.

    Near-collisions of vs(x_k +/- eta) with vs(x_l) blow up the phi ratios and
    the rank-one corrections; this is the identity-suite analog of the chain's
    genericity condition on the shifted inhomogeneities.  ``max_phi`` bounds
    the aggregate ratio magnitudes of the candidate set itself.
    """
    others = varsigma(np.asarray(others, dtype=complex))
    # columns of vs: the point, then the point shifted by eta, -eta, eta/2, -eta/2
    shifts = np.array([0, 1, -1, 0.5, -0.5]) * eta
    # the points are compared with each other, their shifts with the points
    # and with the others
    keep = np.ones((n, 5, n + len(others)), dtype=bool)
    keep[np.arange(n), 0, np.arange(n)] = False
    keep[:, 0, n:] = False
    for _ in range(tries):
        pts = rng.uniform(0.2, 1.3, n) + 1j * rng.uniform(-0.45, 0.45, n)
        vs = varsigma(pts[:, None] + shifts)
        near = abs(vs[:, :, None] - np.concatenate([vs[:, 0], others])) < sep
        if (near & keep).any():
            continue
        if max_phi is not None and n > 0:
            # phi_ratio of every point, from the same varsigma values
            s = np.sinh(2 * pts[:, None] + np.array([-eta, eta]))
            x = (vs[:, 1:3, None] - vs[:, 0]).prod(axis=2)
            mags = abs(s[:, 0] / s[:, 1] * x[:, 0] / x[:, 1])
            if mags.max() > max_phi or mags.min() < 1 / max_phi:
                continue
        return list(pts)
    raise RuntimeError("could not sample a generic point set")


def balanced_g_handle(rng, f, x_set, eta):
    """Random g rescaled so the correction weights X^g stay order one.

    Unbalanced g inflates the rank-one correction terms and the determinant
    comparison loses the corresponding digits; rescaling keeps the identity
    checks numerically meaningful without restricting the function class.
    """
    g0 = random_fn_handle(rng, eta)
    w = x_weights(x_set, [g0(x) for x in x_set], [f(-x) for x in x_set], eta)
    scale = np.median(np.abs(w))
    if scale < 1e-280:
        return g0
    c = 1.0 / scale

    def g(lam):
        return c * g0(lam)

    return g


def trig_lagrange(nodes, values):
    """Trigonometric Lagrange interpolant sum_i v_i prod_{j!=i} sinh(l-n_j)/sinh(n_i-n_j).

    Node values are reproduced exactly (each basis function vanishes
    identically at the other nodes), which is what the on-shell construction
    needs.
    """
    nodes = list(nodes)
    values = list(values)

    def f(lam):
        out = 0.0 + 0j
        for i, (ni, vi) in enumerate(zip(nodes, values)):
            term = vi
            for j, nj in enumerate(nodes):
                if j != i:
                    term *= np.sinh(lam - nj) / np.sinh(ni - nj)
            out += term
        return out

    return f


def onshell_handle_family(rng, x_set, eta):
    """A generic handle exactly on-shell for x_set.

    Random values are prescribed at the x nodes, the mirrored values
    f(-x_k) = phi(x_k) f(x_k) enforce the on-shell system exactly, and two
    extra nodes keep the interpolant generic.
    """
    x_set = list(x_set)
    vals = rng.normal(size=len(x_set)) + 1j * rng.normal(size=len(x_set))
    mirror = [v * phi_ratio(xk, x_set, eta) for xk, v in zip(x_set, vals)]
    nodes = x_set + [-xk for xk in x_set]
    values = list(vals) + mirror
    for _ in range(2):
        nodes.append(complex(rng.uniform(1.6, 2.2), rng.uniform(0.6, 1.0)))
        values.append(complex(rng.normal(), rng.normal()))
    return trig_lagrange(nodes, values)
