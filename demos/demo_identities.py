"""Exercise the generic determinant identities on random function handles.

The dressed-Vandermonde functional of two function handles over a point set
can be rewritten with the two point-set roles exchanged (variants D1-D4) or
as a Slavnov-type jacobian determinant (variants E1-E3); both families are
checked on random rational-trigonometric handles, far away from the
physical specializations.
"""

from openxxz.trig import rng_for
from openxxz.detid import (
    balanced_g_handle,
    check_identity_D,
    check_identity_E,
    degree_cancellation_residual,
    generic_point_set,
    onshell_handle_family,
    onshell_residual,
    random_fn_handle,
)

eta = 0.73 + 0.11j
rng = rng_for(21, "demo")

print("exchange identities (both sides evaluated independently):")
for variant, na, nx, nz, note in (
        (1, 4, 3, 3, "equal cardinalities"),
        (2, 4, 2, 4, "second set larger"),
        (3, 2, 5, 2, "two a-parameters, first set larger"),
        (4, 4, 5, 2, "four a-parameters, downward recursion")):
    worst = 0.0
    for _ in range(20):
        a = list(rng.uniform(0.25, 1.2, na) + 1j * rng.uniform(-0.4, 0.4, na))
        x = generic_point_set(rng, nx, eta)
        z = generic_point_set(rng, nz, eta, others=x)
        d, _, _ = check_identity_D(variant, a, x, z, eta)
        worst = max(worst, d)
    print(f"  D{variant} ({note}): worst of 20 instances {worst:.2e}")

print("\nthe recursion's degree cancellation, level by level:")
a = list(rng.uniform(0.25, 1.2, 4) + 1j * rng.uniform(-0.4, 0.4, 4))
x = generic_point_set(rng, 4, eta)
print("  top-coefficient cancellation:", degree_cancellation_residual(a, x, eta))

print("\njacobian-form identities:")
for variant, l1, l2, note in ((1, 4, 4, "on-shell first set"),
                              (2, 4, 4, "generic square"),
                              (3, 2, 4, "rectangular")):
    worst = 0.0
    for _ in range(20):
        x = generic_point_set(rng, l1, eta)
        y = generic_point_set(rng, l2, eta, others=x)
        f = onshell_handle_family(rng, x, eta) if variant == 1 \
            else random_fn_handle(rng, eta)
        g = balanced_g_handle(rng, f, x, eta)
        d, _ = check_identity_E(variant, f, g, x, y, eta)
        worst = max(worst, d)
    print(f"  E{variant} ({note}): worst of 20 instances {worst:.2e}")

print("\nan exactly on-shell handle:")
x0 = generic_point_set(rng, 3, eta)
f = onshell_handle_family(rng, x0, eta)
print("  on-shell residual:", onshell_residual(f, x0, eta))
