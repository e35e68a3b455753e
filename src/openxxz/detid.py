"""Dressed-Vandermonde functional and the determinant exchange identities.

Everything here is physics-free: the functional, the structured rational
families it is evaluated on, the identities swapping the roles of the two
point sets, and their Slavnov-type rewritings, over arbitrary complex point
sets and function handles.  On-shell systems are not solved here: the
chain's Bethe roots come from ``scalar.onshell_roots``, and the chain's
on-shell forms (``scalar.sp_slavnov``, ``scalar.sp_slavnov_gen``) use this
module's Slavnov-type assembly, ``slavnov_form``.

A handle (f, g and every correction function built here) takes an array of
lam and returns an array of the same shape; a scalar lam gives a scalar.
Each handle is called once per point array, never point by point.

The z -> infinity limits appearing in the downward g-recursions are resolved
by exact leading-coefficient extraction: the symmetrized combinations are
rational functions of varsigma with known denominators, so their numerator
coefficients are recovered by sampling on a circle and inverse DFT, never by
large-argument evaluation.  Each g-family samples its handle on one circle.
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
    plus g(z_i) added to the last column, divided by vdm_hat(z).  f and g are
    each called once on the array of points (f at z and at -z).
    """
    zs = np.asarray(zs)
    gz = g(zs) if g is not None else 0.0
    return a_functional_values(zs, f(zs), f(-zs), gz, eta)


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
    a_set = np.asarray(a_set, dtype=complex)
    zs = np.asarray(z_set, dtype=complex)
    z_vs = varsigma(zs)

    def f(lam):
        lam = np.asarray(lam)
        col = lam[..., None]
        ratio = (varsigma(col) - z_vs) / (varsigma(col + eta / 2) - z_vs)
        return np.sinh(col + a_set).prod(axis=-1) / np.sinh(2 * lam) * ratio.prod(axis=-1)

    f.poles = tuple(varsigma(zs - eta / 2)) + tuple(varsigma(zs + eta / 2))
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

def circle_coefficients(sample, npts: int, poles, radius=None) -> np.ndarray:
    """Numerator coefficients of sample(lam) * prod(vs - pole), vs = varsigma(lam).

    ``sample`` is called once, on the canonical roots of npts points of the
    circle |vs| = radius, and returns its values along the last axis; the
    inverse DFT gives the coefficients of every row at once.
    """
    poles = np.asarray(poles, dtype=complex)
    if radius is None:
        radius = 2.0 + np.max(np.abs(poles), initial=0.0)
    ks = np.arange(npts)
    vs_pts = radius * np.exp(2j * np.pi * ks / npts)
    vals = sample(canonical_root(vs_pts)) * np.prod(vs_pts[:, None] - poles, axis=-1)
    return np.fft.fft(vals, axis=-1) / npts / radius ** ks


class VsRational:
    """Rational function of varsigma over fixed poles, kept by its numerator coefficients."""

    def __init__(self, num):
        self.num = np.trim_zeros(np.asarray(num, dtype=complex), "b")

    def coeff(self, k: int) -> complex:
        return complex(self.num[k]) if k < len(self.num) else 0.0 + 0j

    @classmethod
    def from_function(cls, fn, degree: int, poles, radius: float | None = None):
        """Sample fn(lam) * prod(vs - pole) on a circle of degree + 1 points and inverse-DFT."""
        return cls(circle_coefficients(fn, degree + 1, poles, radius))


def g_levels(fb_coef, ref_coef, a_sum, eta, top: int, low: int, offset: int):
    """The downward recursion for the correction functions, from ``top`` to ``low``.

    Level L is kept as g^(L) = sum_j gamma[j - L] fbar^(j) + delta * ref.
    Row j - low - 1 of ``fb_coef`` holds the exactly interpolated numerator
    coefficients of fbar^(j) (low < j <= top), and ``ref_coef`` those of the
    reference, over a common denominator.  fbar^(L) has degree offset + L and
    g^(L) cancels its top coefficient; coefficient offset + L of level L + 1
    is the z -> infinity limit that fixes the step down to level L.  Returns
    gamma and delta of level ``low``.
    """
    gamma = np.zeros(top - low + 1, dtype=complex)
    delta = 1.0 + 0j
    for L in range(top - 1, low - 1, -1):
        den = np.sinh((L + 1 - top) * eta - a_sum)
        if abs(den) < 1e-10:
            raise ValueError("resonant induction denominator; perturb the a-set")
        k = offset + L
        coef = fb_coef[L - low, k] + delta * ref_coef[k] + gamma[1:] @ fb_coef[:, k]
        gamma = -gamma
        gamma[L - low] += coef / den - 1.0
        gamma[L + 1 - low] -= 1.0
        delta = -delta
    return gamma, delta


def g_family(f, ref_roots, a_sum, eta, level: int, top: int, offset: int,
             poles=(), radius=None):
    """The correction function g^(level) of the handle f, as a handle.

    At ``top`` it is the reference sinh(a_sum - eta) prod_r (vs - vs(r)) over
    ``ref_roots``; above, (-1)^(level - top) times the reference minus
    fbar^(level).  Below, ``g_levels`` runs on the numerator coefficients of
    fbar^(j), level < j <= top (degree offset + j over ``poles``): f and
    f(-lam) are sampled once, on one circle of offset + top + 2 points of the
    given radius, and each fbar^(j) is a row of powers of vs(lam +- eta/2)
    under one FFT.  The infinite-point limits need only the top band, which
    circle sampling recovers accurately; the one spare point keeps this
    circle apart from the ones degree_cancellation_residual reads.  Every g
    calls f twice per point array, whatever the level.
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

    def rows(lam):
        powers = np.arange(level, top)[:, None]
        return f(lam) * varsigma(lam + eta / 2) ** powers \
            + f(-lam) * varsigma(lam - eta / 2) ** powers

    npts = offset + top + 2
    fb_coef = circle_coefficients(rows, npts, poles, radius)
    # the reference's numerator coefficients, exact from its roots in vs
    ref_coef = ref_scale * np.poly(np.append(varsigma(np.asarray(ref_roots)), poles))[::-1]
    gamma, delta = g_levels(fb_coef, np.pad(ref_coef, (0, npts)), a_sum, eta, top, level,
                            offset)

    def g(lam):
        vp, vm = varsigma(lam + eta / 2), varsigma(lam - eta / 2)
        return delta * base(lam) + f(lam) * vp ** (level - 1) * Poly.polyval(vp, gamma) \
            + f(-lam) * vm ** (level - 1) * Poly.polyval(vm, gamma)

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
    if not cases[variant]:
        raise ValueError(f"variant {variant} does not fit {n_a} a, {n} x and {m} z points")
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
    xs = np.asarray(x_set)
    return float(np.max(np.abs(f(-xs) - f(xs) * phi_ratio(xs, x_set, eta))))


def x_weights(x_set, gx, fmx, eta):
    """X^g_{f,k} = g(x_k) sinh(2x_k - eta) / (f(-x_k) X'(x_k) X(x_k - eta)).

    Takes the arrays gx = g(x_k) and fmx = f(-x_k); the dtype follows them.
    """
    xs = np.asarray(x_set)
    xpoly = TrigPoly(tuple(xs))
    return gx * np.sinh(2 * xs - eta) / (fmx * xpoly.deriv(xs) * xpoly(xs - eta))


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


def slavnov_form(variant: int, xs, ys, fz, fmz, gz, eta):
    """The Slavnov-type form of the functional A_{x u y}[f, g] from handle values.

    fz, fmz and gz hold f(z), f(-z) and g(z) on z = x then y (zeros without
    g).  Variant 1 is the on-shell form (x on-shell for f) and variant 2 its
    Sherman-Morrison rewriting, both for as many x as y; variant 3 is the
    rectangular form for fewer x than y.  The dtype follows the inputs.
    """
    l1, l2 = len(xs), len(ys)
    if variant not in (1, 2, 3):
        raise ValueError(f"unknown variant {variant}")
    if not (l1 < l2 if variant == 3 else l1 == l2):
        raise ValueError(f"variant {variant} needs {'fewer' if variant == 3 else 'as many'} "
                         f"x than y points, got {l1} and {l2}")
    fx, fy, fmx, fmy, gy = fz[:l1], fz[l1:], fmz[:l1], fmz[l1:], gz[l1:]
    xpoly = TrigPoly(tuple(xs))
    fx_phi = fx * phi_ratio(xs, xs, eta)
    xg = x_weights(xs, gz[:l1], fmx, eta)
    sg = 1 + np.sum(xg)
    w_pm = (fy * xpoly(ys + eta), fmy * xpoly(ys - eta))
    pref = vdm_hat(xs - eta / 2) / vdm_hat(xs + eta / 2) / (vdm_hat(xs[::-1]) * vdm_hat(ys))
    if variant == 1:
        vx = varsigma(xs)
        mat = sum(w[:, None] / ((varsigma(ys + sgn * eta)[:, None] - vx)
                                * (varsigma(ys)[:, None] - vx))
                  for sgn, w in zip((1, -1), w_pm))
        pref *= np.prod(np.sinh(eta) * fmx * np.sinh(2 * xs)) * sg
    else:
        mat = bethe_kernel(ys, w_pm, xs, fmx, -fx_phi, eta)
        corr = correction_column(ys, w_pm, gy / xpoly(ys), xs, xg, eta)
        if variant == 2:
            # the Schur complement through the Sherman-Morrison inverse
            mat = mat + corr[:, None] * (fmx - fx_phi) / sg
            pref *= sg
        else:
            mat = np.concatenate([mat, functional_matrix(ys, *w_pm, 0, eta)[:, :l2 - l1]],
                                 axis=1)
            mat[:, -1] += corr
    return pref * det_scaled(mat)


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
    xs = pts[:l1]

    # left side: the dressed-Vandermonde functional in the same precision
    lhs = det_scaled(functional_matrix(pts, fz, fmz, gz, etx)) / vdm_hat(pts)
    rhs = slavnov_form(variant, xs, pts[l1:], fz, fmz, gz, etx)
    res_onshell = None
    if variant == 1:
        fmx, fx_phi = fmz[:l1], fz[:l1] * phi_ratio(xs, xs, etx)
        res_onshell = float(np.max(abs(fmx - fx_phi) / np.maximum(abs(fmx), abs(fx_phi))))
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
    xs = np.asarray(x_set)
    w = x_weights(xs, g0(xs), f(-xs), eta)
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
    needs.  The node denominators are computed once, here.
    """
    nodes = np.asarray(nodes, dtype=complex)
    values = np.asarray(values, dtype=complex)
    others = ~np.eye(len(nodes), dtype=bool)
    den = np.where(others, np.sinh(nodes[:, None] - nodes), 1).prod(axis=-1)

    def f(lam):
        num = np.where(others, np.sinh(np.asarray(lam)[..., None, None] - nodes), 1)
        return (values * num.prod(axis=-1) / den).sum(axis=-1)

    return f


def onshell_handle_family(rng, x_set, eta):
    """A generic handle exactly on-shell for x_set.

    Random values are prescribed at the x nodes, the mirrored values
    f(-x_k) = phi(x_k) f(x_k) enforce the on-shell system exactly, and two
    extra nodes keep the interpolant generic.
    """
    x_set = list(x_set)
    vals = rng.normal(size=len(x_set)) + 1j * rng.normal(size=len(x_set))
    mirror = vals * phi_ratio(np.asarray(x_set), x_set, eta)
    nodes = x_set + [-xk for xk in x_set]
    values = list(vals) + list(mirror)
    for _ in range(2):
        nodes.append(complex(rng.uniform(1.6, 2.2), rng.uniform(0.6, 1.0)))
        values.append(complex(rng.normal(), rng.normal()))
    return trig_lagrange(nodes, values)
