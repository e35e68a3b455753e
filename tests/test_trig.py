import numpy as np
import pytest

from openxxz.trig import (
    BoundaryParams,
    ModelParams,
    TrigPoly,
    canonical_root,
    bulk_ad,
    random_params,
    reparam_boundary,
    rng_for,
    varsigma,
    vdm_hat,
)

from tq_helpers import a_h


def test_varsigma_special_points():
    assert varsigma(0.0) == pytest.approx(0.5)
    assert varsigma(1j * np.pi / 2) == pytest.approx(-0.5)


def test_varsigma_matches_exponential_form():
    # independent evaluation via the exponential definition of cosh
    lam = 0.3 + 0.1j
    expected = (np.exp(2 * lam) + np.exp(-2 * lam)) / 4
    assert abs(varsigma(lam) - expected) < 1e-14


def test_vdm_hat_small_cases():
    assert vdm_hat([]) == 1
    assert vdm_hat([0.7 + 0.2j]) == 1
    x1, x2 = 0.3 + 0.1j, 1.1 - 0.4j
    assert vdm_hat([x1, x2]) == pytest.approx(np.sinh(x2) ** 2 - np.sinh(x1) ** 2)


def test_vdm_hat_matches_determinant():
    rng = rng_for(7, "vdm")
    xs = rng.uniform(0.2, 1.4, 5) + 1j * rng.uniform(-0.5, 0.5, 5)
    mat = np.array([[np.sinh(x) ** (2 * j) for j in range(5)] for x in xs])
    det = np.linalg.det(mat)
    val = vdm_hat(xs)
    assert abs(val - det) / abs(det) < 1e-10


def test_vdm_hat_antisymmetry_and_collision():
    rng = rng_for(8, "vdm")
    xs = list(rng.uniform(0.2, 1.4, 4) + 1j * rng.uniform(-0.5, 0.5, 4))
    swapped = [xs[2], xs[1], xs[0], xs[3]]
    assert vdm_hat(swapped) == pytest.approx(-vdm_hat(xs))
    # sinh^2 collision: x and -x + i*pi have the same sinh^2
    assert abs(vdm_hat([xs[0], -xs[0] + 1j * np.pi, xs[1]])) < 1e-12


def test_bulk_ad_zero_and_shift():
    params = random_params(3, seed=11)
    a, _ = bulk_ad(params.xi[0] - params.eta / 2, params)
    assert abs(a) < 1e-12
    _, d = bulk_ad(params.xi[0] + params.eta / 2, params)
    assert abs(d) < 1e-12
    lam = 0.37 - 0.21j
    a_shift, _ = bulk_ad(lam - params.eta, params)
    _, d = bulk_ad(lam, params)
    assert d == pytest.approx(a_shift)


def test_a_h_limits():
    params = random_params(3, seed=12)
    lam = 0.9 + 0.3j
    a, d = bulk_ad(lam, params)
    assert a_h(lam, (0, 0, 0), params) == pytest.approx(d)
    assert a_h(lam, (1, 1, 1), params) == pytest.approx(a)
    h = (1, 0, 1)
    assert abs(a_h(params.xi_shifted(2, 0), h, params)) < 1e-12


def test_reparam_round_trip():
    b = reparam_boundary(0.8 + 0.3j, 0.6 - 0.2j, 0.1j)
    assert b.reparam_residual() < 1e-12
    lhs = np.sinh(b.alpha) * np.cosh(b.beta)
    assert abs(lhs - np.sinh(b.sigma) / (2 * b.kappa)) < 1e-12


def test_reparam_real_case():
    b = reparam_boundary(1.0, 0.5, 0.0)
    assert b.alpha + b.beta == pytest.approx(np.arcsinh(np.e))


def test_reparam_branch_symmetry():
    b = reparam_boundary(0.8 + 0.3j, 0.6 - 0.2j, 0.1j)
    alt = np.sinh(b.alpha + 1j * np.pi) * np.cosh(-b.beta + 1j * np.pi)
    assert alt == pytest.approx(np.sinh(b.alpha) * np.cosh(b.beta))


def test_reparam_rejects_zero_kappa():
    with pytest.raises(ValueError):
        reparam_boundary(1.0, 0.0, 0.0)


def test_canonical_root():
    assert canonical_root(0.5) == pytest.approx(0.0)
    assert canonical_root(-0.5) == pytest.approx(1j * np.pi / 2)
    lam = 0.4 + 0.2j
    assert canonical_root(varsigma(lam)) == pytest.approx(lam)


def test_canonical_root_strip():
    rng = rng_for(5, "roots")
    for _ in range(50):
        v = complex(rng.normal(), rng.normal())
        lam = canonical_root(v)
        assert abs(varsigma(lam) - v) < 1e-10 * max(1.0, abs(v))
        assert -np.pi / 2 < lam.imag <= np.pi / 2
        assert lam.real >= 0


def test_trig_poly_even_periodic():
    q = TrigPoly(roots=(0.3 + 0.2j, 1.1 - 0.1j))
    lam = 0.77 - 0.35j
    assert q(lam) == pytest.approx(q(-lam))
    assert q(lam) == pytest.approx(q(lam + 1j * np.pi))
    expected = np.prod([np.sinh(lam) ** 2 - np.sinh(r) ** 2 for r in q.roots])
    assert q(lam) == pytest.approx(expected)


def test_trigpoly_keeps_clongdouble():
    ld = np.clongdouble
    # roots divided in extended precision are not representable as complex
    roots = tuple(np.array([0.9 + 0.6j, 3.3 - 0.3j, 1.8 + 0.15j], dtype=ld) / ld(3))
    q = TrigPoly(roots=roots)
    assert all(type(r) is ld for r in q.roots)
    lam = ld(0.77 - 0.35j) / ld(3)
    expected = np.prod([varsigma(lam) - varsigma(r) for r in roots])
    assert type(q(lam)) is ld
    assert abs(q(lam) - expected) < 1e-17 * abs(expected)
    for k, rk in enumerate(roots):
        expected = np.sinh(2 * rk) * np.prod(
            [varsigma(rk) - varsigma(r) for j, r in enumerate(roots) if j != k])
        assert type(q.deriv(rk)) is ld
        assert abs(q.deriv(rk) - expected) < 1e-17 * abs(expected)
    # a complex array of lam widens to the roots' dtype, as a complex scalar does
    lams = np.array([0.77 - 0.35j, 0.41 + 0.2j])
    assert np.array_equal(q.deriv(lams), np.array([q.deriv(x) for x in lams]))
    assert q.deriv(lams).dtype == ld
    plain = TrigPoly(roots=tuple(complex(r) for r in roots))
    assert all(type(r) is complex for r in plain.roots)
    assert not isinstance(plain(complex(lam)), ld)


def test_varsigma_halfshift_identity():
    # (vs(l+e/2) - vs(x+e/2)) (vs(l+e/2) - vs(x-e/2)) = (vs(l)-vs(x)) (vs(l+e)-vs(x))
    rng = rng_for(6, "identity")
    for _ in range(20):
        lam, x, eta = (complex(rng.normal(), rng.normal()) * 0.7 for _ in range(3))
        for sgn in (1, -1):
            lhs = (varsigma(lam + sgn * eta / 2) - varsigma(x + eta / 2)) * \
                  (varsigma(lam + sgn * eta / 2) - varsigma(x - eta / 2))
            rhs = (varsigma(lam) - varsigma(x)) * (varsigma(lam + sgn * eta) - varsigma(x))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_model_params_genericity():
    params = random_params(4, seed=3)
    assert params.is_generic()
    bad = params.with_xi((params.xi[0], params.xi[0]) + params.xi[2:])
    assert not bad.is_generic()


def test_rng_determinism():
    a = rng_for(42, "suite", "case1").uniform(size=3)
    b = rng_for(42, "suite", "case1").uniform(size=3)
    c = rng_for(42, "suite", "case2").uniform(size=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_trig_poly_admissibility():
    params = random_params(2, seed=9)
    ok = TrigPoly(roots=(2.0 + 0.9j,))
    bad = TrigPoly(roots=(params.xi_shifted(1, 0),))
    assert ok.admissible_for(params)
    assert not bad.admissible_for(params)


def _canonical_root_reference(sigma_value):
    """The three unconditional np.where steps of canonical_root: the bitwise
    reference for the form that runs each step only where its mask holds."""
    lam = 0.5 * np.arccosh(2 * np.asarray(sigma_value, dtype=complex) + 0j)
    lam = np.where((lam.real < 0) | ((lam.real == 0) & (lam.imag < 0)), -lam, lam)
    lam = np.where(lam.imag <= -np.pi / 2, lam + 1j * np.pi,
                   np.where(lam.imag > np.pi / 2, lam - 1j * np.pi, lam))
    lam = np.where(abs(lam.imag + np.pi / 2) < 1e-15, lam.conj(), lam)
    return complex(lam) if lam.ndim == 0 else lam


def _same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.array_equal(got, ref)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(ref, part)))


def test_canonical_root_equals_unconditional_steps():
    rng = rng_for(7, "canonical-root-reference")
    # signed zeros, Re = 0 with Im < 0, Im = +-pi/2 and real values below -1/2
    edges = [complex(r, s) for r in (-3.0, -0.7, -0.5, -0.0, 0.0, 0.2, 0.5, 1.3)
             for s in (0.0, -0.0)] \
        + [complex(re, im) for re in (0.0, -0.0) for im in (-0.3, 0.3, -np.pi / 2, np.pi / 2)] \
        + [complex(-0.7, -1e-17), complex(-3, -1e-16), complex(-0.5, -5e-324)]
    # values whose root lies within 1e-15 of Im = -pi/2: the conj step
    near_edge = [complex(-0.7, -5e-16), complex(-0.7, -8e-16), complex(-2, -1e-15)]
    draws = list(rng.normal(size=300) + 1j * rng.normal(size=300)) \
        + list(-0.5 - 3 * rng.random(100) + 1j * rng.choice([-1, 1], 100)
               * 10.0 ** rng.uniform(-17, -14, 100))
    values = np.array(edges + near_edge + draws)
    ref = _canonical_root_reference(values)
    _same_bits(canonical_root(values), ref)
    _same_bits(canonical_root(values.reshape(2, -1)), ref.reshape(2, -1))
    for v, r in zip(values, ref):
        got = canonical_root(v)
        assert type(got) is complex
        _same_bits(got, r)
    # both the shift step and the conj step have roots to act on
    raw = 0.5 * np.arccosh(2 * values + 0j)
    assert np.any(raw.imag <= -np.pi / 2)
    assert np.any((raw.imag > -np.pi / 2) & (raw.imag + np.pi / 2 < 1e-15))


def test_trigpoly_at_varsigma_equals_call():
    lams = np.array([0.77 - 0.35j, 0.41 + 0.2j, -1.3 + 0.9j, 2.1 - 0.05j])
    ld = np.clongdouble
    plain = TrigPoly(roots=(0.3 + 0.2j, 1.1 - 0.1j, 0.6 + 0.7j))
    wide = TrigPoly(roots=tuple(np.array(plain.roots, dtype=ld) / ld(3)))
    for q in (plain, wide, TrigPoly(roots=())):
        for lam in (lams, lams.reshape(2, 2), lams.astype(ld), complex(lams[0]), ld(lams[1])):
            got, ref = q.at_varsigma(varsigma(lam)), q(lam)
            assert type(got) is type(ref) and np.shape(got) == np.shape(ref)
            assert np.array_equal(got, ref)
            if isinstance(ref, np.ndarray):
                assert got.dtype == ref.dtype
    assert wide(lams).dtype == ld
