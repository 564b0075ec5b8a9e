"""Geometric certificates on converged solutions: endpoint constants, cone
monitoring, Kaehler detection, eigenvalue gaps, characteristic-number
quadratures, ratio extremum checks, and the finite-difference curvature
cross-check.
"""

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from c1einstein import diagnostics
from c1einstein.diagnostics import (ConeSpec, characteristic_numbers,
                                    cone_monitor, eigen_gap_report,
                                    fd_curvature_oracle, invariant_constants,
                                    kahler_detector, max_principle_check)
from c1einstein.germs import get_diagram
from c1einstein.integrator import Trajectory
from c1einstein.oracles import oracle
from c1einstein.presets import initial_guess
from c1einstein.shooting import ShootingProblem, solve

S3 = np.sqrt(3.0)


# ---------------------------------------------------------------------------
# endpoint constants
# ---------------------------------------------------------------------------

def test_constants_round_quotient(solutions):
    c = invariant_constants(solutions("so3_s4"))
    assert c.alpha == pytest.approx(36.0, abs=1e-8)
    assert c.beta is None and c.delta is None and c.theta_k is None
    assert c.as_dict() == {"alpha": c.alpha}


def test_constants_conic_cases(solutions):
    assert invariant_constants(solutions("su2_cp2")).beta == pytest.approx(6.0, abs=1e-8)
    c = invariant_constants(solutions("so3_cp2"))
    assert c.beta == pytest.approx(12.0, abs=1e-8)
    assert c.alpha is None and c.delta is None


def test_constants_product(solutions):
    c = invariant_constants(solutions("so3_s2xs2"))
    assert c.delta == pytest.approx(0.0, abs=1e-8)


def test_constants_orbifold(solutions):
    c = invariant_constants(solutions("so3_hitchin", 2))
    assert c.alpha == pytest.approx(12.0, abs=1e-7)
    assert c.beta == pytest.approx(24.0, abs=1e-7)
    assert c.theta_k == 8.0
    assert c.beta > c.theta_k


def test_constants_undefined_for_doubly_smooth_diagram(solutions):
    assert invariant_constants(solutions("su2_s4")).as_dict() == {}


B12 = ("B", 1, 2)


@pytest.mark.parametrize("case_id,k,keys,labeling", [
    ("su2_s4", 0, None, B12),
    ("so3_s4", 0, {"alpha"}, B12),
    ("su2_cp2", 0, {"beta"}, B12),
    ("so3_cp2", 0, {"beta"}, B12),
    ("su2_cp2bar", 0, None, B12),
    ("so3_s2xs2", 0, {"delta"}, ("A", 1, 2)),
    ("so3_hitchin", 1, {"alpha"}, B12),
    ("so3_hitchin", 2, {"alpha", "beta", "theta_k"}, B12),
    ("so3_hitchin", 3, {"alpha", "beta", "theta_k"}, B12),
])
def test_catalog_constants_and_kahler_pair(case_id, k, keys, labeling, solutions):
    sr = solutions(case_id, k)
    # None: no end fixes a constant, and the record is empty
    assert set(invariant_constants(sr).as_dict()) == (keys or set())
    assert kahler_detector(sr)["labeling"] == labeling


def test_constants_scale_invariant():
    # re-solve the quotient sphere in a different normalization; alpha must
    # not move.  unknowns scale as (s h, c, s h, c, s T) with s = sqrt(3/lam)
    lam = 1.5
    s = np.sqrt(3.0 / lam)
    pr = ShootingProblem(get_diagram("so3_s4"), lam=lam)
    g = initial_guess("so3_s4") * np.array([s, 1, s, 1, s])
    sr = solve(pr, g)
    assert invariant_constants(sr).alpha == pytest.approx(36.0, abs=1e-8)


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

def test_cone_spec_validation():
    with pytest.raises(ValueError):
        ConeSpec("C", ("+", "-", "-"))
    with pytest.raises(ValueError):
        ConeSpec("A", ("free", "free", "free"))
    with pytest.raises(ValueError):
        ConeSpec("A", ("+", "-"))
    with pytest.raises(ValueError, match="cone signs"):
        ConeSpec("A", ("x", "+", "+"))


def test_cone_holds_on_quotient_sphere(solutions):
    sr = solutions("so3_s4")
    rep = cone_monitor(sr, ConeSpec("A", ("+", "-", "-")))
    assert rep["satisfied"]
    assert rep["worst_margin"] > 0


def test_cone_negative_control(solutions):
    sr = solutions("so3_s4")
    rep = cone_monitor(sr, ConeSpec("A", ("-", "free", "free")))
    assert not rep["satisfied"]
    assert rep["worst_margin"] < 0


def test_cone_zero_entries_and_window(solutions):
    sr = solutions("so3_s2xs2")
    rep = cone_monitor(sr, ConeSpec("A", ("0", "0", "+")),
                       window=(0.05, sr.T - 0.05))
    assert rep["satisfied"]
    with pytest.raises(ValueError):
        cone_monitor(sr, ConeSpec("A", ("0", "0", "+")), window=(9.0, 10.0))


# ---------------------------------------------------------------------------
# Kaehler detection and eigenvalue gaps
# ---------------------------------------------------------------------------

def test_kahler_detector(solutions):
    assert kahler_detector(solutions("so3_cp2"))["is_kahler"]
    assert kahler_detector(solutions("su2_cp2"))["is_kahler"]
    assert kahler_detector(solutions("so3_s2xs2"))["is_kahler"]
    page = kahler_detector(solutions("su2_cp2bar"))
    assert not page["is_kahler"]
    assert min(page["sup_norms"]) > 1e-3


def test_eigen_gaps_round_vs_conic(solutions):
    round_rep = eigen_gap_report(solutions("su2_s4"))
    assert round_rep["a_spread"] < 1e-6
    assert round_rep["b_spread"] < 1e-6
    fs_rep = eigen_gap_report(solutions("su2_cp2"))
    assert fs_rep["a_spread"] < 1e-6       # half of the curvature stays round
    assert fs_rep["b_spread"] == pytest.approx(3.0, abs=1e-6)


# ---------------------------------------------------------------------------
# characteristic numbers
# ---------------------------------------------------------------------------

# a smooth row's id is its values without k
@pytest.mark.parametrize("case_id,k,chi,tau", [
    pytest.param(c, 0, chi, tau, id=f"{c}-{chi}-{tau}") for c, chi, tau in [
        ("su2_s4", 2.0, 0.0), ("so3_s4", 2.0, 0.0),
        ("su2_cp2", 3.0, 1.0), ("so3_cp2", 3.0, 1.0),
        ("su2_cp2bar", 4.0, 0.0), ("so3_s2xs2", 4.0, 0.0)]
] + [
    # the orbifolds: chi = 1 + 1/k, tau = -2(k^2 - 1)/(3k^2)
    pytest.param("so3_hitchin", 2, 1.5, -0.5, id="so3_hitchin-2"),
    pytest.param("so3_hitchin", 3, 4 / 3, -16 / 27, id="so3_hitchin-3"),
])
def test_characteristic_numbers(case_id, k, chi, tau, solutions):
    rep = characteristic_numbers(solutions(case_id, k))
    assert rep.chi == pytest.approx(chi, abs=2e-4)
    assert rep.tau == pytest.approx(tau, abs=2e-4)
    assert rep.node_doubling_change < 1e-8


def test_orbifold_chi_tau_at_a_cone_order_without_a_shipped_guess():
    d = get_diagram("so3_hitchin", 4)
    assert d.chi_tau == (Fraction(5, 4), Fraction(-5, 8))
    # k = 4 ships no guess; this start converges in 3 iterations
    u = [2 / S3, -2 / S3, np.sqrt(6.0), 5 / (6 * np.sqrt(6.0)), 1.2007040008824]
    rep = characteristic_numbers(solve(ShootingProblem(d), u))
    assert abs(rep.chi - d.chi_tau[0]) < 1e-8
    assert abs(rep.tau - d.chi_tau[1]) < 1e-8


def test_the_gauss_legendre_table_is_built_once_and_kept(monkeypatch, solutions):
    # built by the first quadrature in a process and reused, read-only, by
    # every later one; the reports keep their bits
    sr = solutions("so3_cp2")
    first = characteristic_numbers(sr)
    x, w = diagnostics._gauss_legendre()
    ref = np.polynomial.legendre.leggauss(diagnostics._NODES)
    assert np.array_equal(x, ref[0]) and np.array_equal(w, ref[1])
    assert not x.flags.writeable and not w.flags.writeable

    def rebuilt(n):
        pytest.fail("the Gauss-Legendre table was built again")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", rebuilt)
    assert characteristic_numbers(sr) == first
    assert diagnostics._gauss_legendre()[0] is x


def test_importing_the_cli_imports_no_numpy_polynomial():
    # the quadrature's table is built on first use, not at import, so the
    # console script's set-up does not pay for numpy.polynomial
    src = os.path.dirname(os.path.dirname(diagnostics.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("import sys, c1einstein.cli; "
              "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# ratio extrema
# ---------------------------------------------------------------------------

def test_max_principle_on_conic_solution(solutions):
    rep = max_principle_check(solutions("so3_cp2"))
    for pair, r in rep.items():
        assert r["eq_ok"], (pair, r["eq_residual"])
        assert r["sup"] <= 1e-6 or r["sup"] > 0  # well-defined either way


def test_ratio_bounds_on_conic_solution(solutions):
    # the profiles that collapse at either end never exceed the persisting one
    sr = solutions("so3_cp2")
    rep = max_principle_check(sr, pairs=((1, 2), (3, 2)))
    assert rep[(1, 2)]["nonpositive"]
    assert rep[(3, 2)]["nonpositive"]
    with pytest.raises(ValueError, match="unknown ratio pair"):
        max_principle_check(sr, pairs=((1, 1),))


def test_an_unknown_ratio_pair_is_refused_before_any_evaluation(solutions, monkeypatch):
    sr = solutions("so3_cp2")

    def no_eval(self, ts):
        raise AssertionError("the trajectory was evaluated before the pairs were checked")

    monkeypatch.setattr(Trajectory, "eval", no_eval)
    with pytest.raises(ValueError, match=r"^unknown ratio pair \(1, 4\)$"):
        max_principle_check(sr, pairs=((1, 2), (2, 3), (1, 4)))


def test_argmax_stable_under_resampling(solutions):
    sr = solutions("su2_cp2bar")
    r1 = max_principle_check(sr)
    r2 = max_principle_check(sr)
    for pair in r1:
        assert r1[pair]["argmax"] == r2[pair]["argmax"]


# ---------------------------------------------------------------------------
# finite-difference cross-check
# ---------------------------------------------------------------------------

def test_fd_oracle_matches_analytic_pipeline():
    prof = oracle("fs_su2", lam=3.0)
    from c1einstein import core
    t = 0.7
    L, R, _ = core.lr_from_frame(prof.f(t), prof.df(t))
    A, B = core.ab_coeffs(L, R)
    a_ref, b_ref = core.curv_eigs(R, A, B)
    errs = []
    for h in (1e-3, 5e-4):
        a, b, con = fd_curvature_oracle(lambda s: prof.f(s), t, h, 3.0)
        errs.append(max(np.max(np.abs(a - a_ref)), np.max(np.abs(b - b_ref))))
        assert abs(con) < 1e-5
    # centered differences: quartering the error when halving the step
    assert errs[1] < errs[0] / 3.0
    assert errs[1] < 1e-6


def test_fd_oracle_rejects_bad_step():
    prof = oracle("round_su2", lam=3.0)
    with pytest.raises(ValueError):
        fd_curvature_oracle(lambda s: prof.f(s), 1.0, 0.0, 3.0)
