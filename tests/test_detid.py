import functools
import inspect

import numpy as np
import pytest

from openxxz import detid, scalar
from openxxz.sov import ADMISSIBLE_EPS
from openxxz.trig import canonical_root, random_params, rng_for, varsigma
from openxxz.detid import (
    VsRational,
    a_functional,
    balanced_g_handle,
    check_identity_D,
    check_identity_E,
    degree_cancellation_residual,
    f_special,
    fbar_j,
    g_family,
    generic_point_set,
    onshell_handle_family,
    onshell_residual,
    phi_ratio,
    random_fn_handle,
    trig_lagrange,
)

ETA = 0.73 + 0.11j


def rand_pts(rng, n, lo=0.2, hi=1.3, im=0.45):
    return list(rng.uniform(lo, hi, n) + 1j * rng.uniform(-im, im, n))


def test_a_functional_single_point():
    rng = rng_for(1, "af")
    f = random_fn_handle(rng, ETA)
    g = random_fn_handle(rng, ETA)
    z = 0.61 + 0.22j
    val = a_functional([z], f, ETA, g)
    assert val == pytest.approx(f(z) + f(-z) + g(z))


def test_a_functional_scaling():
    rng = rng_for(2, "af")
    f = random_fn_handle(rng, ETA)
    g = random_fn_handle(rng, ETA)
    zs = rand_pts(rng, 3)
    c = 1.7 - 0.4j
    v1 = a_functional(zs, f, ETA, g)
    v2 = a_functional(zs, lambda l: c * f(l), ETA, lambda l: c * g(l))
    assert v2 == pytest.approx(c ** 3 * v1)


def test_a_functional_cofactor_oracle():
    # independent evaluation by explicit cofactor expansion at L = 3
    rng = rng_for(3, "af")
    f = random_fn_handle(rng, ETA)
    g = random_fn_handle(rng, ETA)
    zs = rand_pts(rng, 3)
    mat = np.zeros((3, 3), dtype=complex)
    for i, z in enumerate(zs):
        for j in range(3):
            mat[i, j] = f(z) * varsigma(z + ETA / 2) ** j + f(-z) * varsigma(z - ETA / 2) ** j
        mat[i, 2] += g(z)

    def cof_det(m):
        if m.shape == (1, 1):
            return m[0, 0]
        return sum((-1) ** j * m[0, j] * cof_det(np.delete(np.delete(m, 0, 0), j, 1))
                   for j in range(m.shape[1]))

    from openxxz.trig import vdm_hat
    expected = cof_det(mat) / vdm_hat(zs)
    assert abs(a_functional(zs, f, ETA, g) - expected) < 1e-11 * abs(expected)


def test_a_functional_permutation_invariance():
    rng = rng_for(4, "af")
    f = random_fn_handle(rng, ETA)
    g = random_fn_handle(rng, ETA)
    zs = rand_pts(rng, 4)
    v1 = a_functional(zs, f, ETA, g)
    v2 = a_functional([zs[2], zs[0], zs[3], zs[1]], f, ETA, g)
    assert abs(v1 - v2) < 1e-12 * abs(v1)


def test_f_special_structure():
    rng = rng_for(5, "fs")
    a = rand_pts(rng, 4)
    z = rand_pts(rng, 2)
    f = f_special(a, z, ETA)
    # zero at lam = z_l in the varsigma sense, pole at sinh(2 lam) = 0
    assert abs(f(z[0])) < 1e-12
    # M = 0 reduces to the bare prefactor
    f0 = f_special(a, (), ETA)
    lam = 0.77 - 0.31j
    expected = np.prod([np.sinh(lam + al) for al in a]) / np.sinh(2 * lam)
    assert f0(lam) == pytest.approx(expected)


def test_fbar_leading_asymptotics():
    # leading varsigma coefficient of fbar^(j) for the exchanged handle
    rng = rng_for(6, "fs")
    a = rand_pts(rng, 4)
    x = rand_pts(rng, 3)
    n = 3
    poles = tuple(varsigma(xx + ETA / 2) for xx in x) \
        + tuple(varsigma(xx - ETA / 2) for xx in x)
    f_ex = f_special(tuple(ETA / 2 - al for al in a), x, ETA)
    for j in (1, 2, 3):
        rat = VsRational.from_function(fbar_j(f_ex, j, ETA), 2 * n + j, poles)
        lead = rat.coeff(2 * n + j)
        expected = np.sinh((j + 1 - n) * ETA - sum(a))
        assert abs(lead - expected) < 1e-11 * abs(expected)


@pytest.mark.parametrize("variant,na,nx,nz", [
    (1, 4, 3, 3), (1, 2, 3, 3), (2, 4, 2, 4), (2, 2, 2, 4),
    (3, 2, 4, 2), (4, 4, 4, 2), (4, 4, 5, 3),
])
def test_identity_D_variants(variant, na, nx, nz):
    rng = rng_for(7, "did", variant, na, nx, nz)
    worst = 0.0
    for _ in range(20):
        a = rand_pts(rng, na)
        x = generic_point_set(rng, nx, ETA)
        z = generic_point_set(rng, nz, ETA, others=x)
        d, _, _ = check_identity_D(variant, a, x, z, ETA)
        worst = max(worst, d)
    assert worst < 1e-9


def test_identity_D1_na2_has_no_g_column():
    # the correction polynomial carries delta_{na,4}: for two a's both sides
    # agree without any g
    rng = rng_for(8, "did")
    a = rand_pts(rng, 2)
    x, z = rand_pts(rng, 3), rand_pts(rng, 3)
    d, lhs, rhs = check_identity_D(1, a, x, z, ETA)
    f_ex = f_special(tuple(ETA / 2 - al for al in a), x, ETA)
    bare = (-1) ** 3 * a_functional(z, f_ex, ETA)
    assert abs(lhs - bare) < 1e-10 * abs(lhs)


def test_degree_cancellation():
    rng = rng_for(9, "dc")
    for _ in range(5):
        a = rand_pts(rng, 4)
        x = rand_pts(rng, 4)
        assert degree_cancellation_residual(a, x, ETA) < 1e-9


def test_degree_cancellation_detects_a_perturbed_recursion(monkeypatch):
    # the residual reads circles of 3n + 1 points, the recursion one of
    # 3n + 2: a 1e-6 relative error in one gamma coefficient must show
    rng = rng_for(9, "dc")
    a, x = rand_pts(rng, 4), rand_pts(rng, 4)
    assert degree_cancellation_residual(a, x, ETA) < 1e-9
    levels = detid.g_levels

    def perturbed(*args):
        gamma, delta = levels(*args)
        gamma = gamma.copy()
        gamma[0] *= 1 + 1e-6
        return gamma, delta

    monkeypatch.setattr(detid, "g_levels", perturbed)
    assert degree_cancellation_residual(a, x, ETA) > 1e-9


def _exchange_handle(rng, n):
    """f_ex of the exchange identities on a generic n-point set, with a and x."""
    a = rand_pts(rng, 4)
    x = generic_point_set(rng, n, ETA)
    return f_special(tuple(ETA / 2 - al for al in a), x, ETA), a, x


def test_handles_evaluate_arrays_as_points():
    rng = rng_for(40, "array-handles")
    lam = np.array(rand_pts(rng, 6)).reshape(2, 3)
    f_ex, a, x = _exchange_handle(rng, 4)
    f_rand = random_fn_handle(rng, ETA)
    handles = {"f_special": f_special(a, rand_pts(rng, 2), ETA),
               "fbar_j": fbar_j(f_ex, 3, ETA),
               "random_fn_handle": f_rand,
               "onshell_handle_family": onshell_handle_family(rng, x, ETA),
               "balanced_g_handle": balanced_g_handle(rng, f_rand, x, ETA)}
    for level in (2, 4, 6):
        handles[f"g_family level {level}"] = g_family(f_ex, x, sum(a), ETA, level, 4, 8,
                                                      f_ex.poles)
    for name, h in handles.items():
        arr = h(lam)
        pts = np.array([[h(point) for point in row] for row in lam])
        assert arr.shape == lam.shape, name
        assert np.max(np.abs(arr - pts) / np.abs(pts)) < 1e-14, name


def test_canonical_root_broadcasts_bit_for_bit():
    rng = rng_for(5, "roots")
    vals = [complex(v) for v in rng.normal(size=200) + 1j * rng.normal(size=200)]
    # the real axis holds both strip edges: Re(lam) = 0 for |v| <= 1/2 and
    # Im(lam) = pi/2 below -1/2; signed zeros pick the side
    edges = [complex(r, s) for r in np.linspace(-3, 3, 25) for s in (0.0, -0.0)] \
        + [complex(-0.0, s) for s in (0.0, -0.0, 0.3, -0.3)]
    values = np.array(vals + edges)
    pointwise = np.array([canonical_root(v) for v in values])
    assert canonical_root(values).tobytes() == pointwise.tobytes()
    assert canonical_root(values.reshape(2, -1)).tobytes() == pointwise.tobytes()


class Counted:
    """A handle that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, lam):
        self.calls += 1
        return self.fn(lam)


def test_handles_are_called_once_per_point_array():
    rng = rng_for(41, "call-count")
    f_ex, a, x = _exchange_handle(rng, 4)
    f, g = Counted(f_ex), Counted(random_fn_handle(rng, ETA))
    a_functional(rand_pts(rng, 4), f, ETA, g)
    assert (f.calls, g.calls) == (2, 1)
    lam = np.array(rand_pts(rng, 5))
    for level in (1, 2, 5):
        f.calls = 0
        g_level = g_family(f, x, sum(a), ETA, level, 4, 8, f_ex.poles)
        # the recursion below top samples f and f(-lam) on its circle once
        assert f.calls == (2 if level < 4 else 0)
        f.calls = 0
        g_level(lam)
        assert f.calls == 2


def test_one_circle_matches_per_level_coefficients(monkeypatch):
    # the coefficients the recursion reads, offset + L for each level L below
    # row j, against a circle of its own per fbar^(j)
    seen = {}
    levels, family = detid.g_levels, scalar.g_family

    def capture_levels(fb_coef, *args):
        seen["fb_coef"] = fb_coef
        return levels(fb_coef, *args)

    def capture_family(*args, **kwargs):
        bound = inspect.signature(family).bind(*args, **kwargs)
        bound.apply_defaults()
        seen["args"] = bound.arguments
        return family(*args, **kwargs)

    monkeypatch.setattr(detid, "g_levels", capture_levels)
    monkeypatch.setattr(scalar, "g_family", capture_family)

    def check(f, eta, level, top, offset, poles, radius):
        for j in range(level + 1, top + 1):
            per_level = VsRational.from_function(fbar_j(f, j, eta), offset + j, poles, radius)
            for k in range(offset + level, offset + j):
                one = seen["fb_coef"][j - level - 1, k]
                assert abs(one - per_level.coeff(k)) < 1e-12 * abs(per_level.coeff(k))

    for n, m in ((4, 2), (5, 3)):
        f_ex, a, x = _exchange_handle(rng_for(20, "circle", n, m), n)
        g_family(f_ex, x, sum(a), ETA, m, n, 2 * n, f_ex.poles)
        check(f_ex, ETA, m, n, 2 * n, f_ex.poles, None)
    E0 = ADMISSIBLE_EPS[0]
    for N in (3, 4, 5):
        params = random_params(N, seed=1)
        aset = scalar.build_aset(E0, E0, params)
        for level in range(N):
            scalar.g_eps_handle.__wrapped__(level, aset, params)
            got = seen["args"]
            check(got["f"], got["eta"], level, got["top"], got["offset"], got["poles"],
                  got["radius"])


def test_onshell_handle_family_is_onshell():
    rng = rng_for(10, "os")
    x0 = rand_pts(rng, 3)
    f = onshell_handle_family(rng, x0, ETA)
    assert onshell_residual(f, x0, ETA) < 1e-11


def test_phi_ratio_definition():
    x0 = rand_pts(rng_for(10, "os"), 3)
    lam = 0.83 + 0.21j
    num = np.prod([varsigma(lam + ETA) - varsigma(x) for x in x0])
    den = np.prod([varsigma(lam - ETA) - varsigma(x) for x in x0])
    expected = np.sinh(2 * lam - ETA) / np.sinh(2 * lam + ETA) * num / den
    assert phi_ratio(lam, x0, ETA) == pytest.approx(expected)


@pytest.mark.parametrize("L", [2, 3, 5])
def test_identity_E1_onshell(L):
    rng = rng_for(12, "eid1", L)
    worst = 0.0
    for _ in range(15):
        x = generic_point_set(rng, L, ETA)
        f = onshell_handle_family(rng, x, ETA)
        g = balanced_g_handle(rng, f, x, ETA)
        y = generic_point_set(rng, L, ETA, others=x)
        d, _ = check_identity_E(1, f, g, x, y, ETA)
        worst = max(worst, d)
    assert worst < 1e-9


@pytest.mark.parametrize("L", [2, 3, 5])
def test_identity_E2_generic(L):
    rng = rng_for(13, "eid2", L)
    worst = 0.0
    for _ in range(15):
        x = generic_point_set(rng, L, ETA)
        y = generic_point_set(rng, L, ETA, others=x)
        f = random_fn_handle(rng, ETA)
        g = balanced_g_handle(rng, f, x, ETA)
        d, _ = check_identity_E(2, f, g, x, y, ETA)
        worst = max(worst, d)
    assert worst < 1e-9


@pytest.mark.parametrize("l1,l2", [(2, 4), (1, 3), (3, 5)])
def test_identity_E3_rectangular(l1, l2):
    rng = rng_for(14, "eid3", l1, l2)
    worst = 0.0
    for _ in range(15):
        x = generic_point_set(rng, l1, ETA)
        y = generic_point_set(rng, l2, ETA, others=x)
        f = random_fn_handle(rng, ETA)
        g = balanced_g_handle(rng, f, x, ETA)
        d, _ = check_identity_E(3, f, g, x, y, ETA)
        worst = max(worst, d)
    assert worst < 1e-9


def test_identity_E3_g_zero_kills_correction():
    rng = rng_for(15, "eid3")
    f = random_fn_handle(rng, ETA)
    d, _ = check_identity_E(3, f, None, rand_pts(rng, 2), rand_pts(rng, 4), ETA)
    assert d < 1e-10


def test_identities_reject_mismatched_sizes():
    # size checks that survive python -O
    rng = rng_for(18, "sizes")
    f = random_fn_handle(rng, ETA)
    a, x3, x4, y3 = rand_pts(rng, 4), rand_pts(rng, 3), rand_pts(rng, 4), rand_pts(rng, 3)
    for variant, x, y in ((1, x3, x4), (2, x4, x3), (3, x3, y3), (3, x4, x3)):
        with pytest.raises(ValueError, match=f"variant {variant} needs"):
            check_identity_E(variant, f, None, x, y, ETA)
    for variant, x, z in ((1, x3, x4), (2, x4, x3), (3, x3, x4), (4, x4, x4)):
        with pytest.raises(ValueError, match=f"variant {variant} does not fit"):
            check_identity_D(variant, a, x, z, ETA)


def test_E2_reduces_to_E1_onshell():
    rng = rng_for(16, "eid")
    x = rand_pts(rng, 3)
    f = onshell_handle_family(rng, x, ETA)
    g = random_fn_handle(rng, ETA)
    y = rand_pts(rng, 3)
    d1, _ = check_identity_E(1, f, g, x, y, ETA)
    d2, _ = check_identity_E(2, f, g, x, y, ETA)
    assert d1 < 1e-9 and d2 < 1e-9


def test_trig_lagrange_reproduces_nodes():
    rng = rng_for(17, "tl")
    nodes = rand_pts(rng, 5)
    values = rng.normal(size=5) + 1j * rng.normal(size=5)
    f = trig_lagrange(nodes, values)
    for n, v in zip(nodes, values):
        assert abs(f(n) - v) < 1e-12 * max(1.0, abs(v))


def test_a_functional_reports_collision():
    rng = rng_for(30, "coll")
    f = random_fn_handle(rng, ETA)
    z = 0.61 + 0.22j
    with pytest.raises(ValueError):
        a_functional([z, z + 1e-300], f, ETA)


def _point_set_loop(rng, n, eta, others=(), sep=0.08, max_phi=3e3, tries=500):
    """The per-pair loop form of generic_point_set, kept as its reference."""
    others = [varsigma(o) for o in others]
    for _ in range(tries):
        pts = list(rng.uniform(0.2, 1.3, n) + 1j * rng.uniform(-0.45, 0.45, n))
        vs = [varsigma(p) for p in pts]
        shifted = [varsigma(p + s * eta) for p in pts for s in (1, -1, 0.5, -0.5)]
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                if abs(vs[i] - vs[j]) < sep:
                    ok = False
        for sh in shifted:
            for v in vs + others:
                if abs(sh - v) < sep:
                    ok = False
        if ok and max_phi is not None and n > 0:
            mags = [abs(phi_ratio(p, pts, eta)) for p in pts]
            if max(mags) > max_phi or min(mags) < 1 / max_phi:
                ok = False
        if ok:
            return pts
    raise RuntimeError("could not sample a generic point set")


def test_generic_point_set_matches_loop(monkeypatch):
    # same draws in the same order: equal points and equal generator states;
    # fewer tries than the default, so that some draws run out
    monkeypatch.setattr(detid, "POINT_TRIES", 50)
    found = 0
    for seed in range(200):
        draw = rng_for(seed, "point-set-pin")
        n = int(draw.integers(0, 6))
        eta = complex(draw.uniform(0.5, 0.9), draw.uniform(-0.25, 0.25))
        others = rand_pts(draw, int(draw.integers(0, 4)))
        sep = 0.08 if seed % 4 else 0.15
        monkeypatch.setattr(detid, "POINT_SEP", sep)
        outcomes = []
        for sampler in (generic_point_set, functools.partial(_point_set_loop, sep=sep, tries=50)):
            rng = rng_for(seed, "point-set")
            try:
                pts = sampler(rng, n, eta, others)
            except RuntimeError:
                pts = None
            outcomes.append((pts, rng.uniform()))
        assert outcomes[0] == outcomes[1], seed
        found += outcomes[0][0] is not None
    assert found > 150
