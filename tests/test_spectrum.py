from dataclasses import replace

import numpy as np
import pytest

from openxxz.trig import TrigPoly, bulk_ad, canonical_root, random_params, varsigma
from openxxz.gauge import solve_gauge
from openxxz.sov import ADMISSIBLE_EPS, EpsChoice, SovBasis, big_a_eps
from openxxz.spectrum import (
    QSolution,
    TauPoly,
    _collocation_points,
    _tq_grid,
    big_f_eps,
    brute_spectrum,
    constrain_boundary,
    eigen_residual,
    f_frak,
    q_discrete,
    solve_tq,
    sov_eigenvector,
    tau_leading_coeff,
    verify_tau,
)
from tq_helpers import tq_ratio

EPS0 = EpsChoice(1, 1, 1, 1)


@pytest.fixture(scope="module")
def setup3():
    params = random_params(3, seed=1)
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    return params, gauge, brute_spectrum(params)


def test_spectrum_count_and_simplicity(setup3):
    params, _, taus = setup3
    assert len(taus) == 2 ** params.N
    vals = np.array([t(0.5 + 0.2j) for t in taus])
    gaps = np.abs(vals[:, None] - vals[None, :]) + np.eye(len(vals))
    assert gaps.min() > 1e-9 * np.abs(vals).max()


def test_single_site_spectrum_matches_direct():
    params = random_params(1, seed=21)
    from openxxz.lattice import transfer
    taus = brute_spectrum(params)
    lam = 0.83 - 0.19j
    direct = np.sort_complex(np.linalg.eigvals(transfer(lam, params)))
    interp = np.sort_complex(np.array([t(lam) for t in taus]))
    assert np.max(np.abs(direct - interp)) < 1e-10 * np.max(np.abs(direct))


def test_verify_tau_all_items(setup3):
    params, _, taus = setup3
    for tau in taus:
        for name, res in verify_tau([tau], params, EPS0):
            assert res < 1e-8, f"{name}: {res}"


def _verify_tau_one(tau, params):
    """The earlier per-eigenvalue form of verify_tau: the reference."""
    from openxxz.lattice import qdet_m, transfer
    from openxxz.spectrum import sov_quadratic_rhs

    N, eta = params.N, params.eta
    out = []
    res = 0.0
    for lam in (0.52 + 0.23j, 1.11 - 0.17j, 0.77 + 0.31j):
        tmat = transfer(lam, params)
        ev = tau.eigvec_left @ tmat @ tau.eigvec_right \
            / (tau.eigvec_left @ tau.eigvec_right)
        res = max(res, abs(tau(lam) - ev) / abs(ev))
    out.append(("degree-interp", res))
    expected = tau_leading_coeff(params)
    out.append(("asymptotics", abs(tau.coeffs[-1] - expected) / abs(expected)))
    v1 = 2 * (-1) ** N * np.cosh(eta) * qdet_m(0, params)
    v2 = -2 * np.cosh(eta) * qdet_m(1j * np.pi / 2, params) \
        / (np.tanh(params.boundary_plus.sigma) * np.tanh(params.boundary_minus.sigma))
    out.append(("value-eta/2", abs(tau(eta / 2) - v1) / abs(v1)))
    out.append(("value-eta/2+ipi/2", abs(tau(eta / 2 + 1j * np.pi / 2) - v2) / abs(v2)))
    res = 0.0
    for n in range(1, N + 1):
        lhs = tau(params.xi[n - 1] + eta / 2) * tau(params.xi[n - 1] - eta / 2)
        rhs = sov_quadratic_rhs(n, params)
        res = max(res, abs(lhs - rhs) / abs(rhs))
    out.append(("quadratic", res))
    return out


def test_verify_tau_whole_spectrum(setup3, monkeypatch):
    from openxxz import spectrum
    params, _, taus = setup3
    worst = {}
    for tau in taus:
        for name, res in _verify_tau_one(tau, params):
            worst[name] = max(worst.get(name, 0.0), res)

    points = []
    real_transfer = spectrum.transfer
    monkeypatch.setattr(spectrum, "transfer",
                        lambda lam, p: points.extend(np.atleast_1d(lam)) or real_transfer(lam, p))
    got = verify_tau(taus, params, EPS0)
    assert len(points) == 3
    assert [name for name, _ in got] == list(worst)
    assert dict(got) == worst


def test_verify_tau_detects_perturbation(setup3):
    params, _, taus = setup3
    coeffs = list(taus[0].coeffs)
    coeffs[1] *= 1 + 1e-3
    bad = replace(taus[0], coeffs=tuple(coeffs))
    worst = dict(verify_tau([bad], params, EPS0))
    assert worst["quadratic"] > 1e-6


def test_q_discrete_two_ratio_forms(setup3):
    params, _, taus = setup3
    for tau in taus[:4]:
        qd = q_discrete(tau, params, EPS0)
        assert qd.shape == (params.N, 2) and np.all(qd[:, 0] == 1)


def test_sov_eigenvectors(setup3):
    params, gauge, taus = setup3
    basis = SovBasis(params, gauge)
    for tau in taus:
        vr = sov_eigenvector(tau, basis, EPS0, "right")
        assert eigen_residual([tau], [vr], params, "right") < 1e-8
        vl = sov_eigenvector(tau, basis, EPS0, "left")
        assert eigen_residual([tau], [vl], params, "left") < 1e-8
        cosang = abs(np.vdot(tau.eigvec_right, vr)) \
            / (np.linalg.norm(tau.eigvec_right) * np.linalg.norm(vr))
        assert np.sqrt(max(0.0, 1 - cosang ** 2)) < 1e-7


def test_eigenvector_biorthogonality(setup3):
    params, gauge, taus = setup3
    basis = SovBasis(params, gauge)
    rights = [sov_eigenvector(t, basis, EPS0, "right") for t in taus]
    lefts = [sov_eigenvector(t, basis, EPS0, "left") for t in taus]
    for i, l in enumerate(lefts):
        for j, r in enumerate(rights):
            val = l @ r
            if i != j:
                assert abs(val) < 1e-8 * np.linalg.norm(l) * np.linalg.norm(r)


def test_q_rescaling_changes_eigenvector_by_scalar(setup3):
    params, gauge, taus = setup3
    basis = SovBasis(params, gauge)
    tau = taus[1]
    qd = q_discrete(tau, params, EPS0)
    v1 = sov_eigenvector(tau, basis, EPS0, "right", qvals=qd)
    qd2 = qd.copy()
    qd2[1] *= 2.5
    v2 = sov_eigenvector(tau, basis, EPS0, "right", qvals=qd2)
    ratios = v2[np.abs(v1) > 1e-8] / v1[np.abs(v1) > 1e-8]
    assert np.max(np.abs(ratios - ratios[0])) < 1e-9 * abs(ratios[0])


def test_f_eps_zero_pattern(setup3):
    params, _, _ = setup3
    for n in range(1, params.N + 1):
        for h in (0, 1):
            assert abs(big_f_eps(params.xi_shifted(n, h), EPS0, params)) < 1e-10
    assert abs(big_f_eps(params.eta / 2, EPS0, params)) < 1e-10
    assert abs(big_f_eps(-params.eta / 2, EPS0, params)) < 1e-10


def test_constrain_boundary(setup3):
    params, _, _ = setup3
    cpar = constrain_boundary(params.N, EPS0, params)
    assert abs(f_frak(params.N, EPS0, cpar)) < 1e-12
    for r in range(params.N):
        assert abs(f_frak(r, EPS0, cpar)) > 1e-6


def test_inhomogeneous_tq_every_tau(setup3):
    params, _, taus = setup3
    for tau in taus:
        sol = solve_tq(tau, params, EPS0, "inhomogeneous")
        assert sol.q.degree == params.N
        assert sol.residual < 1e-8
        assert sol.singular_ratio > 1e-8
        assert sol.q.admissible_for(params, delta=1e-6)
        # ratio reconstruction at random points
        for lam in (0.44 + 0.21j, 0.91 - 0.37j):
            val = tq_ratio(lam, sol.q, EPS0, params) \
                + big_f_eps(lam, EPS0, params) / sol.q(lam)
            assert abs(val - tau(lam)) < 1e-8 * abs(tau(lam))


def test_homogeneous_requires_constraint(setup3):
    params, _, taus = setup3
    with pytest.raises(ValueError):
        solve_tq(taus[0], params, EPS0, "homogeneous")


def test_homogeneous_tq_constrained_chain(setup3):
    params, _, _ = setup3
    cpar = constrain_boundary(params.N, EPS0, params)
    for tau in brute_spectrum(cpar):
        sol = solve_tq(tau, cpar, EPS0, "homogeneous")
        assert sol.residual < 1e-8
        for lam in (0.52 + 0.11j, 1.02 - 0.3j):
            val = tq_ratio(lam, sol.q, EPS0, cpar)
            assert abs(val - tau(lam)) < 1e-8 * abs(tau(lam))


def test_partial_homogeneous_case():
    # f^(M) = 0 with M < N: each tau solved at degree M or inhomogeneously at N
    params = random_params(3, seed=9)
    m = 2
    cpar = constrain_boundary(m, EPS0, params)
    assert abs(f_frak(m, EPS0, cpar)) < 1e-12
    n_hom = 0
    for tau in brute_spectrum(cpar):
        sol = solve_tq(tau, cpar, EPS0, "homogeneous", degree=m)
        if sol.residual < 1e-8:
            n_hom += 1
        else:
            sol = solve_tq(tau, cpar, EPS0, "inhomogeneous")
            assert sol.residual < 1e-8
    assert 0 < n_hom < 2 ** cpar.N


def test_spectral_equivalence_brute_vs_interp(setup3):
    params, _, taus = setup3
    from openxxz.lattice import transfer
    for lam0 in (0.61 + 0.28j, 1.13 - 0.08j):
        direct = np.sort_complex(np.linalg.eigvals(transfer(lam0, params)))
        interp = np.sort_complex(np.array([t(lam0) for t in taus]))
        assert np.max(np.abs(direct - interp)) < 1e-9 * np.max(np.abs(direct))


def test_array_calls_equal_scalar_calls():
    lams = np.concatenate([_collocation_points(12), [0.37 - 0.81j, -0.52 + 0.23j]])

    def agree(arr, loop):
        loop = np.array(loop)
        assert arr.shape == loop.shape
        assert np.all(np.abs(arr - loop) <= 1e-14 * np.abs(loop))

    for N in range(1, 7):
        params = random_params(N, seed=N)
        a, d = bulk_ad(lams, params)
        agree(a, [bulk_ad(x, params)[0] for x in lams])
        agree(d, [bulk_ad(x, params)[1] for x in lams])
        for eps in (EPS0, EPS0.flipped()):
            agree(big_a_eps(lams, eps, params), [big_a_eps(x, eps, params) for x in lams])
            agree(big_f_eps(lams, eps, params), [big_f_eps(x, eps, params) for x in lams])
        coeffs = np.random.default_rng(N).normal(size=(N + 2, 2)) @ np.array([1, 1j])
        tau = TauPoly(coeffs=tuple(coeffs), eigvec_right=None, eigvec_left=None, label=0)
        agree(tau(lams), [tau(x) for x in lams])
        assert isinstance(tau(lams[0]), complex)

        # extended precision survives the broadcast, and a scalar stays a scalar
        lam_ld = np.clongdouble(0.61) + np.clongdouble(0.29j)
        a_ld, d_ld = bulk_ad(np.array([lam_ld, lam_ld / 2]), params)
        assert a_ld.dtype == np.clongdouble and d_ld.dtype == np.clongdouble
        a_one, d_one = bulk_ad(lam_ld, params)
        assert np.ndim(a_one) == 0 and isinstance(a_one, np.clongdouble)
        assert abs(a_ld[0] - a_one) <= 1e-14 * abs(a_one)
        assert abs(d_ld[0] - d_one) <= 1e-14 * abs(d_one)

    # one point on a sinh(2 lam) = 0 pole spoils the whole array
    for pole in (0.0, 0.5j * np.pi):
        with pytest.raises(ValueError):
            big_a_eps(np.array([0.4 + 0.1j, pole, 1.1]), EPS0, params)


def _solve_tq_per_point(tau, params, eps, mode):
    """The collocation solve written one point at a time: the reference the
    whole-grid solve must reproduce.  Returns the Q roots in varsigma, the
    residual and the singular-value ratio of the scaled matrix."""
    deg, eta = params.N, params.eta
    inhom = mode == "inhomogeneous"
    pts = _collocation_points(4 * deg)

    def q_row(lam):
        return np.array([varsigma(lam) ** k for k in range(deg + 1)])

    rows, rhs = [], []
    for lam in pts:
        a_p, a_m = big_a_eps(lam, eps, params), big_a_eps(-lam, eps, params)
        row = tau(lam) * q_row(lam) - a_p * q_row(lam - eta) - a_m * q_row(lam + eta)
        target = -row[deg] + (big_f_eps(lam, eps, params) if inhom else 0)
        w = max(np.max(np.abs(row)), abs(target), 1e-300)
        rows.append(row[:deg] / w)
        rhs.append(target / w)
    a_mat = np.array(rows)
    col_scale = np.linalg.norm(a_mat, axis=0)
    sol = np.linalg.lstsq(a_mat / col_scale, np.array(rhs), rcond=None)[0]
    sv = np.linalg.svd(a_mat / col_scale, compute_uv=False)
    coeffs = np.append(sol / col_scale, 1.0)
    roots = np.polynomial.polynomial.polyroots(coeffs)
    dcoef = np.polynomial.polynomial.polyder(coeffs)
    for i, r in enumerate(roots):
        dp = np.polynomial.polynomial.polyval(r, dcoef)
        if abs(dp) > 1e-13:
            roots[i] = r - np.polynomial.polynomial.polyval(r, coeffs) / dp
    q = TrigPoly(roots=tuple(canonical_root(r) for r in roots))
    res = 0.0
    for lam in pts:
        terms = [tau(lam) * q(lam), big_a_eps(lam, eps, params) * q(lam - eta),
                 big_a_eps(-lam, eps, params) * q(lam + eta),
                 big_f_eps(lam, eps, params) if inhom else 0.0]
        val = terms[0] - terms[1] - terms[2] - terms[3]
        res = max(res, abs(val) / max(abs(x) for x in terms))
    return np.array([varsigma(r) for r in q.roots]), res, sv[-1] / sv[0]


@pytest.mark.parametrize("N", [3, 4])
def test_solve_tq_matches_per_point_loop(N, monkeypatch):
    lstsq, fitted = np.linalg.lstsq, []

    def recording_lstsq(a, b, **kwargs):
        fitted.append(a)
        return lstsq(a, b, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
    params = random_params(N, seed=1)
    cpar = constrain_boundary(N, EPS0, params)
    for mode, p in (("inhomogeneous", params), ("homogeneous", cpar)):
        for tau in brute_spectrum(p):
            sol = solve_tq(tau, p, EPS0, mode)
            sv = np.linalg.svd(fitted[-1], compute_uv=False)
            roots, res, ratio = _solve_tq_per_point(tau, p, EPS0, mode)
            got = np.array([varsigma(r) for r in sol.q.roots])
            for r in roots:
                assert np.min(np.abs(got - r)) <= 1e-10 * abs(r)
            assert res / 2 <= sol.residual <= 2 * res or max(res, sol.residual) < 1e-13
            # the ratio read from lstsq is the SVD's ratio of the same matrix;
            # against the per-point matrix, whose entries differ in the last
            # bits, the smallest singular value moves by ~1e-16 absolute
            assert abs(sol.singular_ratio - sv[-1] / sv[0]) <= 1e-12 * sv[-1] / sv[0]
            assert abs(sol.singular_ratio - ratio) <= 1e-14


def _solve_tq_inline(tau, params, eps, mode):
    """The collocation solve with every tau-independent term built in the call:
    the bitwise reference for the solve that reads them from ``_tq_grid``."""
    deg, eta = params.N, params.eta
    inhom = mode == "inhomogeneous"
    pts = _collocation_points(max(4 * deg, deg + 3))
    t = tau(pts)
    a_p = big_a_eps(pts, eps, params)
    a_m = big_a_eps(-pts, eps, params)
    f = big_f_eps(pts, eps, params) if inhom else np.zeros_like(t)

    def vander(lams):
        return np.vander(varsigma(lams), deg + 1, increasing=True)

    rows = t[:, None] * vander(pts) - a_p[:, None] * vander(pts - eta) \
        - a_m[:, None] * vander(pts + eta)
    target = f - rows[:, deg]
    w = np.maximum(np.maximum(np.max(np.abs(rows), axis=1), np.abs(target)), 1e-300)
    a_mat = rows[:, :deg] / w[:, None]
    b_vec = target / w
    col_scale = np.linalg.norm(a_mat, axis=0)
    col_scale[col_scale == 0] = 1.0
    sol, _, _, sv = np.linalg.lstsq(a_mat / col_scale, b_vec, rcond=None)
    coeffs = np.append(sol / col_scale, 1.0)
    singular_ratio = float(sv[-1] / sv[0]) if len(sv) else 1.0
    roots_vs = np.polynomial.polynomial.polyroots(coeffs)
    dcoef = np.polynomial.polynomial.polyder(coeffs)
    for i, r in enumerate(roots_vs):
        dp = np.polynomial.polynomial.polyval(r, dcoef)
        if abs(dp) > 1e-13:
            roots_vs[i] = r - np.polynomial.polynomial.polyval(r, coeffs) / dp
    q = TrigPoly(roots=tuple(canonical_root(r) for r in roots_vs))
    terms = np.array([t * q(pts), a_p * q(pts - eta), a_m * q(pts + eta), f])
    val = terms[0] - terms[1] - terms[2] - terms[3]
    res = np.max(np.abs(val) / np.max(np.abs(terms), axis=0))
    return np.array(q.roots), float(res), singular_ratio


@pytest.mark.parametrize("N", range(1, 8))
def test_solve_tq_matches_inline_collocation(N):
    _tq_grid.cache_clear()
    params = random_params(N, seed=1)
    cpar = constrain_boundary(N, EPS0, params)
    taus, ctaus = brute_spectrum(params), brute_spectrum(cpar)
    cases = [(cpar, ctaus, EPS0, "homogeneous"), (params, taus, EPS0, "inhomogeneous"),
             (params, taus, EPS0.flipped(), "inhomogeneous")]
    for _ in range(2):  # first calls build the tables, repeat calls read them
        for p, spectrum_p, eps, mode in cases:
            for tau in spectrum_p:
                sol = solve_tq(tau, p, eps, mode)
                roots, res, ratio = _solve_tq_inline(tau, p, eps, mode)
                assert np.array_equal(np.array(sol.q.roots), roots)
                assert sol.residual == res and sol.singular_ratio == ratio
    assert _tq_grid.cache_info().misses == len(cases)


@pytest.fixture(scope="module")
def tq_pool():
    """The bench's tq-n5 models: random_params(5, seed=m), m = 0..5, each as
    (params, spectrum, constrained params, constrained spectrum)."""
    out = []
    for m in range(6):
        params = random_params(5, seed=m)
        cpar = constrain_boundary(5, EPS0, params)
        out.append((params, brute_spectrum(params), cpar, brute_spectrum(cpar)))
    return out


def test_solve_tq_matches_inline_collocation_on_the_tq_pool(tq_pool):
    for params, taus, cpar, ctaus in tq_pool:
        cases = [(cpar, ctaus, EPS0, "homogeneous"), (params, taus, EPS0, "inhomogeneous"),
                 (params, taus, EPS0.flipped(), "inhomogeneous")]
        for p, spectrum_p, eps, mode in cases:
            for tau in spectrum_p:
                sol = solve_tq(tau, p, eps, mode)
                roots, res, ratio = _solve_tq_inline(tau, p, eps, mode)
                assert np.array_equal(np.array(sol.q.roots), roots)
                assert sol.residual == res and sol.singular_ratio == ratio


def test_solve_tq_calls_no_polynomial_helper(tq_pool, monkeypatch):
    params, taus, cpar, ctaus = tq_pool[1]
    cases = [(tau, cpar, EPS0, "homogeneous") for tau in ctaus[::4]] \
        + [(tau, params, eps, "inhomogeneous") for tau in taus[::4]
           for eps in (EPS0, EPS0.flipped())]
    before = [solve_tq(*case) for case in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("np.polynomial helper called")

    for name in ("polyroots", "polyval", "polyder", "polycompanion"):
        monkeypatch.setattr(np.polynomial.polynomial, name, refuse)
    calls = {TauPoly: 0, TrigPoly: 0}
    for cls in calls:
        def counted(self, lam, _cls=cls, _call=cls.__call__):
            calls[_cls] += 1
            return _call(self, lam)
        monkeypatch.setattr(cls, "__call__", counted)
    for case, ref in zip(cases, before):
        sol = solve_tq(*case)
        assert np.array_equal(np.array(sol.q.roots), np.array(ref.q.roots))
        assert sol.residual == ref.residual and sol.singular_ratio == ref.singular_ratio
    assert calls == {TauPoly: 0, TrigPoly: 0}


@pytest.mark.parametrize("degree", [-1, 2.0])
def test_solve_tq_rejects_a_bad_degree(setup3, degree):
    params, _, taus = setup3
    with pytest.raises(ValueError, match="degree must be a non-negative integer"):
        solve_tq(taus[0], params, EPS0, "inhomogeneous", degree)


def test_tau_call_is_polyval_bit_for_bit(setup3):
    _, _, taus = setup3
    lams = np.concatenate([_collocation_points(12), [0.37 - 0.81j, -0.52 + 0.23j]])
    for tau in taus[:3]:
        coeffs = np.asarray(tau.coeffs)
        ref = np.polynomial.polynomial.polyval(varsigma(lams), coeffs)
        assert np.array_equal(tau(lams), ref)
        assert np.array_equal(tau.at_varsigma(varsigma(lams)), ref)
        for lam in (lams[0], complex(lams[-1])):
            val = tau(lam)
            assert type(val) is complex
            assert val == complex(np.polynomial.polynomial.polyval(varsigma(lam), coeffs))


def test_tq_grid_built_once_per_model_branch_mode_and_degree(setup3):
    params, _, _ = setup3
    cpar = constrain_boundary(params.N, EPS0, params)
    taus = brute_spectrum(cpar)
    _tq_grid.cache_clear()

    def misses_after(eps, mode, degree=None):
        for tau in taus:
            solve_tq(tau, cpar, eps, mode, degree)
        return _tq_grid.cache_info().misses

    assert misses_after(EPS0, "inhomogeneous") == 1
    assert misses_after(EPS0, "inhomogeneous", params.N) == 1
    assert misses_after(EPS0, "homogeneous") == 2
    assert misses_after(EPS0.flipped(), "inhomogeneous") == 3
    assert misses_after(EPS0, "inhomogeneous", params.N - 1) == 4
    assert _tq_grid.cache_info().hits == 5 * len(taus) - 4


def test_q_discrete_reads_one_grid_per_branch(setup3):
    params, _, taus = setup3
    x0, x1 = params.xi_grid().T
    for eps in (EPS0, EPS0.flipped()):
        for tau in taus:
            qd = q_discrete(tau, params, eps)
            ratio = tau(x0) / big_a_eps(x0, eps, params)
            assert np.array_equal(qd[:, 1], ratio)
    # the consistency check still runs on every call
    bad = replace(taus[0], coeffs=tuple(np.array(taus[0].coeffs) * (1 + 1e-6)))
    with pytest.raises(ValueError, match="inconsistent"):
        q_discrete(bad, params, EPS0)


def test_cached_grids_are_read_only(setup3):
    params, _, _ = setup3
    for arr in _tq_grid(params, EPS0, True, params.N):
        with pytest.raises(ValueError):
            arr[0] = 0
