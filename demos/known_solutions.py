"""Solve every smooth closed diagram from the shipped end data and print a
summary table: interval length, residual, invariant constants, and the
characteristic numbers chi and tau.

Run from the repository root:  python demos/known_solutions.py
"""

import numpy as np

from c1einstein.diagnostics import characteristic_numbers, invariant_constants
from c1einstein.germs import get_diagram
from c1einstein.presets import initial_guess
from c1einstein.shooting import ShootingProblem, detect_equal_pairs, solve

CASES = ["su2_s4", "so3_s4", "su2_cp2", "so3_cp2", "su2_cp2bar", "so3_s2xs2"]

print(f"{'diagram':<12} {'T':>10} {'residual':>10} {'constants':<24} "
      f"{'chi':>7} {'tau':>7}  equal pairs")
for cid in CASES:
    sr = solve(ShootingProblem(get_diagram(cid)), initial_guess(cid))
    rep = characteristic_numbers(sr)
    consts = ", ".join(f"{k}={v:g}" for k, v in invariant_constants(sr).as_dict().items()) or "-"
    pairs = detect_equal_pairs(sr) or "-"
    print(f"{cid:<12} {sr.T:>10.6f} {sr.residual_norm:>10.2e} {consts:<24} "
          f"{rep.chi:>7.4f} {rep.tau:>7.4f}  {pairs}")

print("\nmax constraint drift across cases is reported per solve in sr.drift;")
print("all shipped guesses converge in at most a couple of Gauss-Newton steps.")
