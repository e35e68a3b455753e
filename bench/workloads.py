"""The four benchmark workloads: inputs, the timed operation and its check.

Every workload is a closed loop of one client: the next operation starts when
the previous one has returned.  A run attempts whole rounds over the
workload's fixed pool of operations, so every run sees the same inputs, made
from fixed seeds; the run's seed fixes the order of each round.  Checks
compare each result with a property from the paper or a second, independent
route, never with a stored copy of an earlier result.

Each workload provides

* ``setup()``: the precomputation that a run needs before its first op;
* ``inputs(state, seed, rounds)``: the op inputs, made outside the op timer;
* ``run(state, inp)``: the timed call into ``openxxz``;
* ``check(state, inp, out)``: ``(residual, passed)``, never timed;
* ``kept_fault(inp)``: whether this input is on the workload's list of
  ops that a known, named fault of the program makes fail (see README.md);
  a failed op off the list, or one that raised, is a new fault;
* ``label(inp)``: a short name of the op, used to list failed ops.
"""

from __future__ import annotations

import numpy as np

# ops call through the module namespaces, where a traced run's wrappers sit
from openxxz import detid, scalar, sov, spectrum
from openxxz import TrigPoly, random_params, vdm_hat
from openxxz.trig import rng_for
from openxxz.gauge import gauge_is_safe, solve_gauge
from openxxz.sov import ADMISSIBLE_EPS, all_h, h_index
from openxxz.scalar import SeparateStateSpec

N = 5
E0, E1 = ADMISSIBLE_EPS[:2]


def _gauge_for(params):
    """The gauge branch the verification suites use: (+1,+1), else (-1,-1)."""
    gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
    if not gauge_is_safe(gauge, params):
        gauge = solve_gauge(params.boundary_plus, -1, -1, params.eta)
    return gauge


def _rounds(pool, seed, rounds, tag):
    """Whole rounds over ``pool``, each in a seeded order."""
    rng = rng_for(seed, "bench-order", tag)
    for _ in range(rounds):
        for i in rng.permutation(len(pool)):
            yield pool[i]


class BasisN5:
    """SoV basis plus dense spectrum of one N = 5 chain per op.

    The pool is ``random_params(5, seed=m)`` for m = 0..39.  The dense
    layers lose digits on five of them; those ops fail every time.
    """

    name = "basis-n5"
    models = range(40)
    kept_models = frozenset({9, 25, 31, 33, 35})
    gram_tol = 1e-9
    tau_tol = 1e-8

    def setup(self):
        out = []
        for m in self.models:
            params = random_params(N, seed=m)
            out.append((m, params, _gauge_for(params)))
        return out

    def inputs(self, state, seed, rounds):
        return _rounds(state, seed, rounds, self.name)

    def run(self, state, inp):
        _, params, gauge = inp
        return sov.SovBasis(params, gauge), spectrum.brute_spectrum(params)

    def check(self, state, inp, out):
        _, params, gauge = inp
        basis, taus = out
        gram = self._gram_residual(basis, params, gauge)
        tau = self._tau_residual(taus, params)
        return max(gram, tau), gram <= self.gram_tol and tau <= self.tau_tol

    @staticmethod
    def _gram_residual(basis, params, gauge):
        """Gram matrix against its closed-form diagonal, off-diagonal zero."""
        left, right = basis.left_states(E0), basis.right_states(E0)
        gram = left @ right.T
        norm = sov.sov_norm_const(params, gauge, E0)
        expect = np.zeros(2 ** N, dtype=complex)
        for h in all_h(N):
            expect[h_index(h)] = norm * np.exp(2 * sum(hj * xj for hj, xj in zip(h, params.xi))) \
                / vdm_hat([params.xi_shifted(n + 1, h[n]) for n in range(N)])
        diag = np.max(np.abs(np.diag(gram) - expect) / np.abs(expect))
        off = gram - np.diag(np.diag(gram))
        scale = np.outer(np.linalg.norm(left, axis=1), np.linalg.norm(right, axis=1))
        return float(max(diag, np.max(np.abs(off) / scale)))

    @staticmethod
    def _tau_residual(taus, params):
        """Per-site quadratic condition and leading asymptotics of every tau."""
        if len(taus) != 2 ** N:
            return float("inf")
        eta = params.eta
        rhs = [spectrum.sov_quadratic_rhs(n, params) for n in range(1, N + 1)]
        lead = spectrum.tau_leading_coeff(params)
        worst = 0.0
        for tau in taus:
            worst = max(worst, abs(tau.coeffs[-1] - lead) / abs(lead))
            for n in range(1, N + 1):
                x = params.xi[n - 1]
                worst = max(worst, abs(tau(x + eta / 2) * tau(x - eta / 2) - rhs[n - 1])
                            / abs(rhs[n - 1]))
        return float(worst)

    def kept_fault(self, inp):
        return inp[0] in self.kept_models

    def label(self, inp):
        return f"random_params(5, seed={inp[0]})"


class ScalarN5:
    """One pair of separate states through the three scalar-product routes.

    Setup builds the SoV bases of ``random_params(5, seed=m)`` for m = 0, 1,
    2 and 9.  The pair pool is fixed: per model, 6 draws of each total degree
    N-2, N, N+2 and each sign-branch class (same, mixed, opposite), 216
    pairs.  On model 9 ``sp_direct`` loses digits against the two
    determinant routes; those 47 of its 54 pairs fail every time.
    """

    name = "scalar-n5"
    models = (0, 1, 2, 9)
    draws = 6
    tol = 1e-8
    # (model, draw, class, total degree) of every pair the fault spoils:
    # on model 9 all but draw 0 of "same" at degree 3 and the six "opposite"
    # pairs at degree 3, which sp_thm52 flags as structurally zero
    kept_pairs = frozenset(
        {(9, k, "same", 3) for k in (1, 2, 3, 4, 5)}
        | {(9, k, cls, total) for k in range(6)
           for cls, total in (("same", 5), ("same", 7), ("mixed", 3), ("mixed", 5),
                              ("mixed", 7), ("opposite", 5), ("opposite", 7))})

    def setup(self):
        bases = []
        for m in self.models:
            params = random_params(N, seed=m)
            bases.append(sov.SovBasis(params, _gauge_for(params)))
        pool = []
        for mi, m in enumerate(self.models):
            rng = rng_for(m, "bench-scalar-pairs")
            for k in range(self.draws):
                for total in (N - 2, N, N + 2):
                    nq = total // 2
                    q = self._poly(rng, nq, +1)
                    p = self._poly(rng, total - nq, -1)
                    for eps_p, cls in ((E0, "same"), (E1, "mixed"), (E0.flipped(), "opposite")):
                        pool.append((mi, m, k, cls, SeparateStateSpec(q, E0, "left"),
                                     SeparateStateSpec(p, eps_p, "right")))
        return bases, pool

    @staticmethod
    def _poly(rng, n, sign):
        return TrigPoly(roots=tuple(rng.uniform(0.4, 1.3, n)
                                    + 1j * sign * rng.uniform(0.3, 0.9, n)))

    def inputs(self, state, seed, rounds):
        return _rounds(state[1], seed, rounds, self.name)

    def run(self, state, inp):
        basis = state[0][inp[0]]
        qs, ps = inp[4], inp[5]
        d = scalar.sp_direct(qs, ps, basis)
        s = scalar.sp_sov(qs, ps, basis.params, basis.gauge)
        t, flag = scalar.sp_thm52(qs, ps, basis.params, basis.gauge)
        return d, s, t, flag

    def check(self, state, inp, out):
        d, s, t, flag = out
        if flag:
            # structurally zero: both values against the contraction's scale
            res = max(abs(d), abs(s)) / self.zero_scale(state, inp)
            return float(res), res <= self.tol and t == 0
        res = max(abs(s - d), abs(t - d), abs(s - t)) / abs(d)
        return float(res), res <= self.tol

    @staticmethod
    def zero_scale(state, inp):
        """Norm product of the two separate states in the contraction."""
        basis = state[0][inp[0]]
        return np.linalg.norm(scalar.separate_state(inp[4], basis)) \
            * np.linalg.norm(scalar.separate_state(inp[5], basis))

    def kept_fault(self, inp):
        _, m, k, cls, qs, ps = inp
        return (m, k, cls, qs.poly.degree + ps.poly.degree) in self.kept_pairs

    def label(self, inp):
        _, m, k, cls, qs, ps = inp
        return f"model {m} draw {k} {cls} degree {qs.poly.degree + ps.poly.degree}"


class TqN5:
    """One T-Q solve for one eigenvalue per op.

    Setup builds the dense spectra of ``random_params(5, seed=m)``, m = 0..5,
    and of their ``constrain_boundary(5, ...)`` variants.  The pool is every
    eigenvalue in inhomogeneous mode on the model and in homogeneous mode on
    the constrained model, 384 solves.  The collocation fit of ``solve_tq`` is
    ill-conditioned at N = 5; the 28 solves it spoils fail every time.
    """

    name = "tq-n5"
    models = range(6)
    tol = 1e-8
    # (model, mode, tau label) of every solve the fault spoils
    kept_solves = frozenset(
        {(m, "inhomogeneous", k) for m, labels in
         ((0, (13,)), (1, (14, 18, 22)), (2, (18,)), (3, (8,)), (4, (18,)), (5, (22,)))
         for k in labels}
        | {(m, "homogeneous", k) for m, labels in
           ((0, (31,)), (1, (0, 1, 4, 14, 29, 31)), (2, (0, 13)), (3, (1, 15, 30, 31)),
            (4, (0, 29, 30, 31)), (5, (1, 22, 31)))
           for k in labels})
    # Chebyshev-Lobatto points on the two collocation arcs of the solver:
    # they interleave its Chebyshev nodes, so none is a collocation point.
    _k = np.arange(11)
    held_out = tuple(complex(x) for x in np.concatenate([
        1.45 + 1.25 * np.cos(np.pi * _k / 10),
        1.2 + 0.9 * np.cos(np.pi * _k / 10) + 0.45j]))

    def setup(self):
        pool = []
        for m in self.models:
            params = random_params(N, seed=m)
            cpar = spectrum.constrain_boundary(N, E0, params)
            for mode, p in (("inhomogeneous", params), ("homogeneous", cpar)):
                for tau in spectrum.brute_spectrum(p):
                    pool.append((m, mode, p, tau))
        return pool

    def inputs(self, state, seed, rounds):
        return _rounds(state, seed, rounds, self.name)

    def run(self, state, inp):
        _, mode, params, tau = inp
        return spectrum.solve_tq(tau, params, E0, mode)

    def check(self, state, inp, out):
        """The root-form Q in the full T-Q equation at the held-out points."""
        _, mode, params, tau = inp
        q, eta = out.q, params.eta
        if q.degree != N:
            return float("inf"), False
        worst = 0.0
        for lam in self.held_out:
            t1 = tau(lam) * q(lam)
            t2 = sov.big_a_eps(lam, E0, params) * q(lam - eta)
            t3 = sov.big_a_eps(-lam, E0, params) * q(lam + eta)
            val, scale = t1 - t2 - t3, max(abs(t1), abs(t2), abs(t3))
            if mode == "inhomogeneous":
                f = spectrum.big_f_eps(lam, E0, params)
                val, scale = val - f, max(scale, abs(f))
            worst = max(worst, abs(val) / scale)
        return float(worst), worst <= self.tol

    def kept_fault(self, inp):
        return (inp[0], inp[1], inp[3].label) in self.kept_solves

    def label(self, inp):
        model = f"random_params(5, seed={inp[0]})"
        if inp[1] == "homogeneous":
            model = f"constrain_boundary(5, eps, {model})"
        return f"{inp[1]} solve on {model}, tau #{inp[3].label}"


class Identities:
    """One instance of every identity, D1-D4 then E1-E3, per op.

    The pool is 100 instances.  An op runs the seven identities of one
    instance in turn; each draws eta, its point sets (through
    ``generic_point_set``) and its handles from a generator keyed by the
    instance and the identity, so an instance repeats its draws in every
    round.  The seed orders the instances within a round.  The seven
    identities differ in cost by a factor of four, and a whole cycle per op
    keeps the op times unimodal, so the median op time follows the mean.
    """

    name = "identities"
    per_round = 100
    tol = 1e-9
    cases = (("D", 1, 4, 3, 3), ("D", 2, 4, 2, 4), ("D", 3, 2, 4, 2), ("D", 4, 4, 4, 2),
             ("E", 1, 3, 3), ("E", 2, 3, 3), ("E", 3, 2, 4))

    @staticmethod
    def wrap_sampler(rng):
        """The generator handed to generic_point_set; a traced run counts its draws."""
        return rng

    def setup(self):
        return None

    def inputs(self, state, seed, rounds):
        order = rng_for(seed, "bench-order", self.name)
        for _ in range(rounds):
            for k in order.permutation(self.per_round):
                k = int(k)
                yield k, [rng_for(k, "bench-identities", case[0], case[1])
                          for case in self.cases]

    def run(self, state, inp):
        return [self._one(case, rng) for case, rng in zip(self.cases, inp[1])]

    def _one(self, case, rng):
        eta = complex(rng.uniform(0.5, 0.9), rng.uniform(-0.25, 0.25))
        sampler = self.wrap_sampler(rng)
        if case[0] == "D":
            _, variant, na, nx, nz = case
            a = list(rng.uniform(0.25, 1.2, na) + 1j * rng.uniform(-0.4, 0.4, na))
            x = detid.generic_point_set(sampler, nx, eta)
            z = detid.generic_point_set(sampler, nz, eta, others=x)
            return detid.check_identity_D(variant, a, x, z, eta)
        _, variant, l1, l2 = case
        x = detid.generic_point_set(sampler, l1, eta)
        y = detid.generic_point_set(sampler, l2, eta, others=x)
        f = detid.onshell_handle_family(rng, x, eta) if variant == 1 \
            else detid.random_fn_handle(rng, eta)
        g = detid.balanced_g_handle(rng, f, x, eta)
        return detid.check_identity_E(variant, f, g, x, y, eta)[0], None, None

    @staticmethod
    def residual(out):
        """One identity's relative disagreement."""
        res, lhs, rhs = out
        if lhs is not None:
            # D: compare the two returned sides directly
            res = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        return float(res)

    def check(self, state, inp, out):
        res = max(self.residual(o) for o in out)
        return res, res <= self.tol

    def kept_fault(self, inp):
        return False

    def label(self, inp):
        return f"identities D1-E3 instance {inp[0]}"


WORKLOADS = {w.name: w for w in (BasisN5, ScalarN5, TqN5, Identities)}
