"""Why the exchanged determinant matters: the homogeneous limit.

The native SoV determinant spreads the inhomogeneities through every
matrix entry and degenerates as they coalesce; the exchanged-variable form
depends on them only through smooth prefactors.  The sweep shrinks
xi_j = eps * j and compares the exchanged form against the SoV determinant
evaluated in extended precision, at as many digits as its cancellation
needs.
"""

from openxxz.suites import RunConfig, homog_sweep

rows = homog_sweep(RunConfig(n_sites=3, seed=13), (1e-1, 3e-2, 1e-2, 3e-3, 1e-3))

print(f"{'epsilon':>9s} {'exchanged-form value':>36s} "
      f"{'rel diff vs oracle':>19s} {'raw SoV conditioning':>21s}")
for row in rows:
    flag = "   [genericity margin below DELTA_MIN]" if row["flagged"] else ""
    print(f"{row['epsilon']:9.1e} {row['value']!s:>36s} "
          f"{row['rel_diff']:19.3e} {row['sov_conditioning']:21.3e}{flag}")

print("\nthe exchanged representation stays at working precision while the")
print("raw determinant's conditioning estimate grows without bound.")
