"""Four routes to the scalar product of two separate states.

A separate state is a weighted sum of SoV basis vectors with weights given
by a trig polynomial on the shifted grid.  Its pairing with a dual separate
state is computed (1) by dense contraction, (2) as the SoV dressed
Vandermonde determinant, (3) through the exchanged-variable determinant
that is regular in the homogeneous limit, and, on-shell, (4) by the
jacobian (Slavnov/Gaudin) forms.
"""

from openxxz.trig import TrigPoly, random_params
from openxxz.gauge import solve_gauge
from openxxz.sov import EpsChoice, SovBasis
from openxxz.spectrum import brute_spectrum, constrain_boundary, solve_tq
from openxxz.scalar import (
    SeparateStateSpec,
    bethe_log_residual,
    gaudin_norm,
    onshell_roots,
    sp_direct,
    sp_slavnov,
    sp_slavnov_gen,
    sp_sov,
    sp_thm52,
)

e0 = EpsChoice(1, 1, 1, 1)
e1 = EpsChoice(1, -1, -1, 1)

params = random_params(4, seed=7)
gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)
basis = SovBasis(params, gauge)

q = TrigPoly(roots=(0.55 + 0.62j, 1.30 - 0.45j))
p = TrigPoly(roots=(0.72 + 0.81j, 0.95 - 0.55j))

print("off-shell states, all three branch pairings:")
for eps_q, eps_p, label in ((e0, e0, "matching"), (e0, e1, "mixed"),
                            (e0, e0.flipped(), "opposite")):
    qs = SeparateStateSpec(q, eps_q, "left")
    ps = SeparateStateSpec(p, eps_p, "right")
    d = sp_direct(qs, ps, basis)
    s = sp_sov(qs, ps, params, gauge)
    t, vanishing = sp_thm52(qs, ps, params, gauge)
    print(f"  {label:9s} direct = {d:.6e}")
    print(f"            dressed-Vandermonde rel diff {abs(s - d) / abs(d):.2e}, "
          f"exchanged-form rel diff {abs(t - d) / abs(d):.2e}")

print("\non-shell state on a constrained chain:")
cpar = constrain_boundary(4, e0, params)
cgauge = solve_gauge(cpar.boundary_plus, 1, 1, cpar.eta)
cbasis = SovBasis(cpar, cgauge)
for tau in brute_spectrum(cpar):
    sol = solve_tq(tau, cpar, e0, "homogeneous")
    if sol.residual < 1e-8 and sol.q.degree >= 2:
        # Newton on the Bethe equations, the Gaudin matrix as its Jacobian
        roots = onshell_roots(sol.q.roots, e0, cpar)
        break
print(f"  Bethe roots: {[f'{complex(r):.4f}' for r in roots]}")
print(f"  Bethe log-residual {float(max(abs(bethe_log_residual(roots, e0, cpar)))):.1e}")

from openxxz.trig import rng_for

rng = rng_for(7, "demo-roots")
n = len(roots)
p_off = TrigPoly(roots=tuple(rng.uniform(0.4, 1.3, n) - 1j * rng.uniform(0.3, 0.9, n)))
qs = SeparateStateSpec(TrigPoly(roots=tuple(roots)), e0, "left")
# the dense contraction takes the roots rounded to complex
qd = SeparateStateSpec(TrigPoly(roots=tuple(complex(r) for r in roots)), e0, "left")
d = sp_direct(qd, SeparateStateSpec(p_off, e0, "right"), cbasis)
sl = sp_slavnov(qs, SeparateStateSpec(p_off, e0, "right"), cpar, cgauge)
print(f"  jacobian determinant form rel diff  {abs(sl - d) / abs(d):.2e}")

dqq = sp_direct(qd, SeparateStateSpec(qd.poly, e0, "right"), cbasis)
gn = gaudin_norm(qs, cpar, cgauge)
print(f"  norm pairing vs its Gaudin form     {abs(gn - dqq) / abs(dqq):.2e}")

p_big = TrigPoly(roots=tuple(rng.uniform(0.4, 1.3, n + 1)
                             + 1j * rng.uniform(0.3, 0.9, n + 1)))
d3 = sp_direct(qd, SeparateStateSpec(p_big, e0, "right"), cbasis)
sg = sp_slavnov_gen(qs, SeparateStateSpec(p_big, e0, "right"), cpar, cgauge)
print(f"  rectangular rank-one-corrected form {abs(sg - d3) / abs(d3):.2e}")
