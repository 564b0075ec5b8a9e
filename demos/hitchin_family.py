"""Walk the orbifold family k = 1, 2, 3: solve each case, read the exact
right-end slope 4/k off the germ, compare the endpoint constant beta
against the threshold theta_k = 4 + 8/k, and print the measured chi and tau
next to the catalog's orbifold values 1 + 1/k and -2(k^2 - 1)/(3k^2).

The converged solutions are self-dual: one curvature triple degenerates to
(lam, 0, 0) and the other to (lam/3, lam/3, lam/3), which forces
beta = 3 * theta_k exactly.  k = 1 is the smooth quotient sphere.

Run from the repository root:  python demos/hitchin_family.py
"""

import numpy as np

from c1einstein.diagnostics import (characteristic_numbers, eigen_gap_report,
                                    invariant_constants)
from c1einstein.germs import get_diagram, series_solve
from c1einstein.presets import initial_guess
from c1einstein.shooting import ShootingProblem, solve

for k in (1, 2, 3):
    sr = solve(ShootingProblem(get_diagram("so3_hitchin", k=k)),
               initial_guess("so3_hitchin", k))
    germ = series_solve(sr.diagram.right, sr.right_free, sr.lam, order=6)
    slope = germ.coeffs[1, 1]
    gaps = eigen_gap_report(sr)
    print(f"k = {k}:  T = {sr.T:.10f}  |residual| = {sr.residual_norm:.2e}")
    print(f"  collapsing slope = {slope:g} (exactly 4/k)")
    print(f"  b-spread = {gaps['b_spread']:.2e} (self-dual when ~0)")
    tr = characteristic_numbers(sr)
    chi, tau = sr.diagram.chi_tau
    print(f"  chi = {tr.chi:.10f} (catalog {chi})  tau = {tr.tau:.10f} (catalog {tau})")
    if k > 1:
        c = invariant_constants(sr)
        print(f"  beta = {c.beta:.10f}  theta_k = {c.theta_k:.10f}  "
              f"margin = {c.beta - c.theta_k:.6f}  beta/theta_k = "
              f"{c.beta / c.theta_k:.12f}")
    print()

print("for k = 3 the end data admits closed forms: the mirror pair value h")
print("satisfies h^2 = 20 - 8*sqrt(5), its slope is c = 1 - sqrt(5), and the")
print("orbifold end has q^2 = 20/3 with shared pair coefficient w = 3/5.")
