"""Characterize the transfer spectrum through the functional T-Q equation.

Every eigenvalue is an even trig polynomial pinned by its degree, leading
coefficient, two special values, and a quadratic condition per site.  A
monic Q polynomial solves the inhomogeneous equation in general, and the
homogeneous one once the boundary parameters satisfy the degree-N
constraint; its roots are the Bethe roots.
"""

from openxxz.trig import random_params
from openxxz.sov import EpsChoice, SovBasis
from openxxz.gauge import solve_gauge
from openxxz.spectrum import (
    brute_spectrum,
    constrain_boundary,
    eigen_residual,
    f_frak,
    solve_tq,
    sov_eigenvector,
    verify_tau,
)

eps = EpsChoice(1, 1, 1, 1)
params = random_params(3, seed=7)
gauge = solve_gauge(params.boundary_plus, 1, 1, params.eta)

taus = brute_spectrum(params)
print(f"{len(taus)} eigenvalues from the dense diagonalization")
print("\nspectral conditions for the first eigenvalue:")
for name, res in verify_tau([taus[0]], params, eps):
    print(f"  {name:20s} residual {res:.2e}")

print("\ninhomogeneous T-Q solutions (generic boundary):")
for tau in taus[:4]:
    sol = solve_tq(tau, params, eps, "inhomogeneous")
    roots = ", ".join(f"{r:.3f}" for r in sol.q.roots)
    print(f"  label {tau.label}: residual {sol.residual:.2e}  roots [{roots}]")

print("\nSoV eigenvectors against the dense eigenvectors:")
basis = SovBasis(params, gauge)
for tau in taus[:4]:
    vec = sov_eigenvector(tau, basis, eps, "right")
    print(f"  label {tau.label}: eigen-residual "
          f"{eigen_residual([tau], [vec], params, 'right'):.2e}")

print("\nconstrained boundary (degree-N scalar vanishes):")
cpar = constrain_boundary(params.N, eps, params)
print("  f^(N) =", abs(f_frak(params.N, eps, cpar)))
for tau in brute_spectrum(cpar)[:4]:
    sol = solve_tq(tau, cpar, eps, "homogeneous")
    print(f"  label {tau.label}: homogeneous residual {sol.residual:.2e} "
          f"(degree {sol.q.degree})")
