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
# generic_point_set's least varsigma separation, phi-ratio bound and draws
POINT_SEP, POINT_MAX_PHI, POINT_TRIES = 0.08, 3e3, 500


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


def g_levels(fb_coef, ref_coef, a_sum, eta, top: int, low: int, offset: int):
    """The downward recursion for the correction functions, from ``top`` to ``low``.

    Level L is kept as g^(L) = sum_j gamma[L][j] fbar^(j) + delta[L] * ref.
    ``fb_coef`` and ``ref_coef`` hold the exactly interpolated numerator
    coefficients of fbar^(j) (j > low) and of the reference over a common
    denominator.  fbar^(L) has degree offset + L and g^(L) cancels its top
    coefficient; coefficient offset + L of level L + 1 is the z -> infinity
    limit that fixes the step down to level L.
    """
    gamma = {top: {}}
    delta = {top: 1.0 + 0j}
    for L in range(top - 1, low - 1, -1):
        den = np.sinh((L + 1 - top) * eta - a_sum)
        if abs(den) < 1e-10:
            raise ValueError("resonant induction denominator; perturb the a-set")
        k = offset + L
        coef = fb_coef[L + 1].coeff(k) + delta[L + 1] * ref_coef.coeff(k)
        for j, c in gamma[L + 1].items():
            coef += c * fb_coef[j].coeff(k)
        new_gamma = {j: -c for j, c in gamma[L + 1].items()}
        new_gamma[L] = new_gamma.get(L, 0.0) + (coef / den - 1.0)
        new_gamma[L + 1] = new_gamma.get(L + 1, 0.0) - 1.0
        gamma[L] = new_gamma
        delta[L] = -delta[L + 1]
    return gamma, delta


def g_family(f, ref_roots, a_sum, eta, level: int, top: int, offset: int,
             poles=(), radius=None):
    """The correction function g^(level) of the handle f, elementwise in lam.

    At ``top`` it is the reference sinh(a_sum - eta) prod_r (vs - vs(r)) over
    ``ref_roots``; above, (-1)^(level - top) times the reference minus
    fbar^(level).  Below, ``g_levels`` runs on the numerator coefficients of
    fbar^(j) (degree offset + j over ``poles``), sampled on a circle of the
    given radius: the infinite-point limits need only their top band, which
    circle sampling recovers accurately.
    """
    ref_poly = TrigPoly(tuple(ref_roots))
    ref_scale = np.sinh(a_sum - eta)

    def base(lam):
        return ref_scale * ref_poly(lam)

    if level == top:
        return base
    if level > top:
        fb_level = fbar_j(f, level, eta)

        def g_above(lam):
            return (-1) ** (level - top) * base(lam) - fb_level(lam)
        return g_above

    fb_fns = {j: fbar_j(f, j, eta) for j in range(level, top + 1)}
    fb_coef = {j: VsRational.from_function(fb_fns[j], offset + j, poles, radius)
               for j in range(level + 1, top + 1)}
    ref_coef = VsRational.from_vs_poly(
        ref_scale * Poly.polyfromroots(varsigma(np.asarray(ref_roots))), poles)
    gamma, delta = g_levels(fb_coef, ref_coef, a_sum, eta, top, level, offset)

    def g(lam):
        out = delta[level] * base(lam)
        for j, c in gamma[level].items():
            out += c * fb_fns[j](lam)
        return out

    return g


def check_identity_D(variant: int, a_set, x_set, z_set, eta):
    """Relative difference of the two sides of the exchange identities.

    Every variant reads (-1)^m c A_z[f_ex, g^(m)] on the right, with g present
    for four a's only and c = 1 / prod_{j=1}^{m-n} sinh(a_sum - j eta) for
    m >= n, prod_{j=0}^{n-m-1} sinh(a_sum + j eta) for m < n; ``variant``
    names which case the sizes fall in.
    """
    a_set, x_set, z_set = tuple(a_set), tuple(x_set), tuple(z_set)
    n_a, n, m = len(a_set), len(x_set), len(z_set)
    cases = {1: n == m, 2: n < m, 3: n_a == 2 and m < n, 4: n_a == 4 and m < n}
    if variant not in cases:
        raise ValueError(f"unknown variant {variant}")
    assert cases[variant]
    a_sum = sum(a_set)
    f_ex = f_special(tuple(eta / 2 - a for a in a_set), x_set, eta)
    g = g_family(f_ex, x_set, a_sum, eta, m, n, 2 * n, f_ex.poles) if n_a == 4 else None
    if m >= n:
        c = 1 / np.prod([np.sinh(a_sum - j * eta) for j in range(1, m - n + 1)])
    else:
        c = np.prod([np.sinh(a_sum + j * eta) for j in range(n - m)])
    lhs = a_functional(x_set, f_special(a_set, z_set, eta), eta)
    rhs = (-1) ** m * c * a_functional(z_set, f_ex, eta, g)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale, lhs, rhs


def degree_cancellation_residual(a_set, x_set, eta) -> float:
    """Top-coefficient cancellation of fbar^(L) + g^(L) at every level.

    The coefficients are read from fresh circle samples of the sum, not from
    the ones the recursion used.
    """
    n = len(x_set)
    f_ex = f_special(tuple(eta / 2 - a for a in a_set), x_set, eta)
    worst = 0.0
    for L in range(1, n + 1):
        fb = fbar_j(f_ex, L, eta)
        g = g_family(f_ex, x_set, sum(a_set), eta, L, n, 2 * n, f_ex.poles)
        alone = VsRational.from_function(fb, 2 * n + L, f_ex.poles)
        both = VsRational.from_function(lambda lam: fb(lam) + g(lam), 3 * n, f_ex.poles)
        worst = max(worst, abs(both.coeff(2 * n + L))
                    / max(abs(alone.coeff(2 * n + L)), 1e-300))
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
        lhs = f(-xv)
        rhs = f(xv) * phi_ratio(xv, xv, eta)
        return lhs - rhs, np.maximum(np.maximum(abs(lhs), abs(rhs)), 1e-300)

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


def bethe_kernel(ys, w_pm, xs, c_plus, c_minus, eta) -> np.ndarray:
    """Entry (i, k) = sum_s w_s(y_i) [c_plus_k / (vs(y_i + s eta/2) - vs(x_k + eta/2))
    + c_minus_k / (vs(y_i + s eta/2) - vs(x_k - eta/2))], with w_pm = (w_+, w_-)."""
    vx_plus, vx_minus = varsigma(xs + eta / 2), varsigma(xs - eta / 2)
    out = 0
    for sgn, w in zip((1, -1), w_pm):
        vy = varsigma(ys + sgn * eta / 2)[:, None]
        out = out + w[:, None] * (c_plus / (vy - vx_plus) + c_minus / (vy - vx_minus))
    return out


def correction_column(ys, w_pm, head, xs, xg, eta) -> np.ndarray:
    """The rank-one column: head_i minus bethe_kernel's row sums with c_+ = 0, c_- = X^g.

    That is head_i - sum_s w_s(y_i) sum_k X^g_k / (vs(y_i + s eta/2) - vs(x_k - eta/2)).
    """
    return head - bethe_kernel(ys, w_pm, xs, 0, xg, eta).sum(axis=1)


def check_identity_E(variant: int, f, g, x_set, y_set, eta):
    """Relative difference of the functional against its Slavnov-type form.

    Kinematic factors and determinants are assembled in extended precision:
    the Slavnov-type matrices are graded by the phi ratios and plain double
    assembly loses the graded digits in the determinant cancellation.  The
    handles f and g (elementwise in lam) are evaluated at their native
    precision.  Returns the difference and, for variant 1, the on-shell
    residual of f.
    """
    ld = np.clongdouble
    etx = ld(eta)
    l1, l2 = len(x_set), len(y_set)
    pts = np.array(list(x_set) + list(y_set), dtype=complex)
    fz, fmz = np.asarray(f(pts), dtype=ld), np.asarray(f(-pts), dtype=ld)
    gz = np.asarray(g(pts), dtype=ld) if g is not None else np.zeros(l1 + l2, dtype=ld)
    pts = pts.astype(ld)
    xs, ys = pts[:l1], pts[l1:]
    fx, fy, fmx, fmy, gy = fz[:l1], fz[l1:], fmz[:l1], fmz[l1:], gz[l1:]

    # left side: the dressed-Vandermonde functional in the same precision
    lhs = det_scaled(functional_matrix(pts, fz, fmz, gz, etx)) / vdm_hat(pts)

    xpoly = TrigPoly(tuple(xs))
    fx_phi = fx * phi_ratio(xs, xs, etx)
    xg = x_weights(xs, gz[:l1], fmx, etx)
    sg = 1 + np.sum(xg)
    w_pm = (fy * xpoly(ys + etx), fmy * xpoly(ys - etx))
    pref = vdm_hat(xs - etx / 2) / vdm_hat(xs + etx / 2) / (vdm_hat(xs[::-1]) * vdm_hat(ys))

    res_onshell = None
    if variant == 1:
        assert l1 == l2
        res_onshell = float(np.max(abs(fmx - fx_phi) / np.maximum(abs(fmx), abs(fx_phi))))
        vx = varsigma(xs)
        mat = sum(w[:, None] / ((varsigma(ys + sgn * etx)[:, None] - vx)
                                * (varsigma(ys)[:, None] - vx))
                  for sgn, w in zip((1, -1), w_pm))
        pref *= np.prod(np.sinh(etx) * fmx * np.sinh(2 * xs)) * sg
    elif variant in (2, 3):
        kernel = bethe_kernel(ys, w_pm, xs, fmx, -fx_phi, etx)
        corr = correction_column(ys, w_pm, gy / xpoly(ys), xs, xg, etx)
        if variant == 2:
            assert l1 == l2
            # the Schur complement through the Sherman-Morrison inverse
            mat = kernel + corr[:, None] * (fmx - fx_phi) / sg
            pref *= sg
        else:
            assert l1 < l2
            mat = np.concatenate(
                [kernel, functional_matrix(ys, *w_pm, 0, etx)[:, :l2 - l1]], axis=1)
            mat[:, -1] += corr
    else:
        raise ValueError(f"unknown variant {variant}")
    rhs = pref * det_scaled(mat)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return float(abs(lhs - rhs) / scale), res_onshell


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


def generic_point_set(rng, n, eta, others=()):
    """Random points whose plain and eta-shifted varsigma values stay separated.

    Near-collisions of vs(x_k +/- eta) with vs(x_l) blow up the phi ratios and
    the rank-one corrections; this is the identity-suite analog of the chain's
    genericity condition on the shifted inhomogeneities.  ``POINT_MAX_PHI``
    bounds the aggregate ratio magnitudes of the candidate set itself.
    """
    others = varsigma(np.asarray(others, dtype=complex))
    # columns of vs: the point, then the point shifted by eta, -eta, eta/2, -eta/2
    shifts = np.array([0, 1, -1, 0.5, -0.5]) * eta
    # the points are compared with each other, their shifts with the points
    # and with the others
    keep = np.ones((n, 5, n + len(others)), dtype=bool)
    keep[np.arange(n), 0, np.arange(n)] = False
    keep[:, 0, n:] = False
    for _ in range(POINT_TRIES):
        pts = rng.uniform(0.2, 1.3, n) + 1j * rng.uniform(-0.45, 0.45, n)
        vs = varsigma(pts[:, None] + shifts)
        near = abs(vs[:, :, None] - np.concatenate([vs[:, 0], others])) < POINT_SEP
        if (near & keep).any():
            continue
        if n > 0:
            # phi_ratio of every point, from the same varsigma values
            s = np.sinh(2 * pts[:, None] + np.array([-eta, eta]))
            x = (vs[:, 1:3, None] - vs[:, 0]).prod(axis=2)
            mags = abs(s[:, 0] / s[:, 1] * x[:, 0] / x[:, 1])
            if mags.max() > POINT_MAX_PHI or mags.min() < 1 / POINT_MAX_PHI:
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
