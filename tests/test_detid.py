import functools

import numpy as np
import pytest

from openxxz import detid
from openxxz.trig import rng_for, varsigma
from openxxz.detid import (
    VsRational,
    a_functional,
    balanced_g_handle,
    check_identity_D,
    check_identity_E,
    degree_cancellation_residual,
    f_special,
    fbar_j,
    generic_point_set,
    onshell_handle_family,
    onshell_residual,
    onshell_solve,
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


def test_onshell_solve_and_phi():
    rng = rng_for(10, "os")
    x0 = np.array(rand_pts(rng, 3))
    f = onshell_handle_family(rng, list(x0), ETA)
    assert onshell_residual(f, list(x0), ETA) < 1e-11
    xp = x0 + 1e-3 * (rng.normal(size=3) + 1j * rng.normal(size=3))
    xs = onshell_solve(f, xp, ETA, tol=1e-12)
    assert np.max(np.abs(np.sort_complex(xs) - np.sort_complex(x0))) < 1e-9
    # phi definition check
    lam = 0.83 + 0.21j
    num = np.prod([varsigma(lam + ETA) - varsigma(x) for x in x0])
    den = np.prod([varsigma(lam - ETA) - varsigma(x) for x in x0])
    expected = np.sinh(2 * lam - ETA) / np.sinh(2 * lam + ETA) * num / den
    assert phi_ratio(lam, list(x0), ETA) == pytest.approx(expected)


def test_onshell_solve_nonconvergence():
    rng = rng_for(11, "os")
    f = random_fn_handle(rng, ETA)
    with pytest.raises(ValueError):
        onshell_solve(f, [10.0 + 5j, 12.0 - 4j], ETA, maxit=5)


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
