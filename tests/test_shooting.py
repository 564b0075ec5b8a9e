"""Two-sided shooting solver: residual behavior at known solutions,
recovery from perturbed guesses, admissibility, and solution reports.
"""

import numpy as np
import pytest

from c1einstein.germs import get_diagram
from c1einstein.presets import initial_guess, scan_box
from c1einstein.shooting import (AdmissibilityError, NonConvergence,
                                 ShootingProblem, detect_equal_pairs,
                                 match_residual, scan, solve)

CASES = ["su2_s4", "so3_s4", "su2_cp2", "so3_cp2", "su2_cp2bar", "so3_s2xs2"]


def _problem(case_id, k=0, **kw):
    return ShootingProblem(get_diagram(case_id, k), **kw)


# ---------------------------------------------------------------------------
# problem structure
# ---------------------------------------------------------------------------

def test_unknown_names_and_split():
    pr = _problem("su2_cp2")
    names = pr.unknown_names
    assert len(names) == 5 and names[-1] == "T"
    left, right, T = pr.split([1.0, 2.0, 3.0, 4.0, 5.0])
    assert set(left) == set(pr.diagram.left.free)
    assert set(right) == set(pr.diagram.right.free)
    assert T == 5.0
    with pytest.raises(ValueError):
        pr.split([1.0, 2.0])


def test_theta_validated():
    with pytest.raises(ValueError):
        _problem("su2_s4", theta=0.0)
    with pytest.raises(ValueError):
        _problem("su2_s4", theta=1.5)


def test_admissibility_checks():
    pr = _problem("so3_s4")
    with pytest.raises(AdmissibilityError, match="T"):
        pr.check_admissible([2.0, -1.0, 2.0, 1.0, -0.5])
    with pytest.raises(AdmissibilityError, match="h"):
        pr.check_admissible([-2.0, -1.0, 2.0, 1.0, 0.5])
    with pytest.raises(AdmissibilityError, match="non-finite"):
        pr.check_admissible([np.nan, -1.0, 2.0, 1.0, 0.5])
    # inadmissible vectors produce the penalty residual, not an exception
    r = match_residual(pr, [2.0, -1.0, 2.0, 1.0, -0.5])
    assert np.all(r >= 1e3)


# ---------------------------------------------------------------------------
# residual at known solutions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case_id", CASES)
def test_match_residual_small_at_shipped_solution(case_id):
    pr = _problem(case_id)
    r = match_residual(pr, initial_guess(case_id))
    # shipped values are exact for the symmetric cases and polished for Page
    assert np.max(np.abs(r)) < 5e-7


def test_penalty_on_early_collapse():
    # absurdly long interval: the leg collapses before the match point
    pr = _problem("su2_s4")
    r = match_residual(pr, [-1 / 6, -1 / 6, -1 / 6, -1 / 6, 40.0])
    assert np.all(r > 1e3)


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case_id", CASES)
def test_solve_from_shipped_guess(case_id, solutions):
    sr = solutions(case_id)
    assert sr.converged
    assert sr.residual_norm < 1e-9
    assert sr.jacobian_rank == 5
    assert sr.drift["max_constraint"] < 1e-7
    # legs hand off to germ series near the ends, so the sampled trajectory
    # stops just short of the singular orbits
    assert 0 < sr.trajectory.t[0] < 0.2
    assert 0 < sr.T - sr.trajectory.t[-1] < 0.2


def test_recovery_from_perturbed_guess():
    pr = _problem("su2_s4")
    rng = np.random.default_rng(7)
    exact = np.array([-1 / 6, -1 / 6, -1 / 6, -1 / 6, np.pi])
    guess = exact * (1 + 0.2 * rng.uniform(-1, 1, 5))
    sr = solve(pr, guess)
    assert sr.converged
    assert np.max(np.abs(sr.u - exact)) < 1e-7


def test_n_iter_counts_steps_when_the_last_step_converges():
    # three Gauss-Newton steps from this guess; with max_iter=3 the third
    # step converges as the budget runs out and must still count
    pr = _problem("su2_cp2")
    g = initial_guess("su2_cp2")
    guess = g * (1 + 0.01 * np.random.default_rng(1).uniform(-1, 1, g.size))
    free = solve(pr, guess)
    capped = solve(pr, guess, max_iter=3)
    assert free.n_iter == capped.n_iter == 3
    assert np.array_equal(free.u, capped.u)
    with pytest.raises(NonConvergence):
        solve(pr, guess, max_iter=2)


def test_round_solution_profile(solutions):
    sr = solutions("su2_s4")
    ts = np.linspace(0.05, sr.T - 0.05, 50)
    f, _ = sr.trajectory.eval(ts)
    assert np.max(np.abs(f - np.sin(ts)[:, None])) < 1e-8


def test_nonconvergence_reports_best_iterate():
    pr = _problem("su2_s4")
    with pytest.raises(NonConvergence) as exc:
        solve(pr, [-0.9, 0.8, -0.9, 0.8, 9.0], max_iter=3)
    assert exc.value.best_u is not None
    assert exc.value.best_norm > 0


def test_reflection_symmetric_cases_close_at_the_midpoint(solutions):
    # round and Page have equal germ data at both ends; df vanishes at T/2
    for cid in ("su2_s4", "su2_cp2bar"):
        sr = solutions(cid)
        _, df = sr.trajectory.eval(sr.T / 2)
        assert np.max(np.abs(df)) < 1e-7


@pytest.mark.parametrize("case_id,pairs", [
    ("su2_s4", {(1, 2), (2, 3), (3, 1)}),
    ("su2_cp2", {(1, 2)}),
    ("su2_cp2bar", {(2, 3)}),
    ("so3_s2xs2", set()),
])
def test_detect_equal_pairs(case_id, pairs, solutions):
    assert detect_equal_pairs(solutions(case_id)) == pairs


def test_solution_report_fields(solutions):
    sr = solutions("so3_cp2")
    assert set(sr.left_free) == set(sr.diagram.left.free)
    assert set(sr.right_free) == set(sr.diagram.right.free)
    assert sr.lam == 3.0
    assert sr.drift["n_accepted"] > 0


def test_match_point_independence(solutions):
    # the geometry should not depend on where the legs are matched
    ref = solutions("so3_cp2")
    pr = _problem("so3_cp2", theta=0.35)
    sr = solve(pr, initial_guess("so3_cp2"))
    assert np.max(np.abs(sr.u - ref.u)) < 1e-8


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def test_scan_orders_and_parallelism():
    pr = _problem("su2_s4")
    grid = scan_box("su2_s4", width=0.1, n=2)
    seq = scan(pr, grid, jobs=1)
    par = scan(pr, grid, jobs=4)
    assert len(seq) == 32
    for (u1, r1), (u2, r2) in zip(seq, par):
        assert np.array_equal(u1, u2) and r1 == r2
    assert scan(pr, [], jobs=2) == []


def test_scan_minimum_near_solution():
    pr = _problem("su2_s4")
    exact = initial_guess("su2_s4")
    grid = list(scan_box("su2_s4", width=0.25, n=3)) + [exact]
    out = scan(pr, grid)
    norms = [r for _, r in out]
    # the exact vector wins; the box center coincides with it, so compare by
    # value rather than by index
    assert norms[-1] == min(norms)
    assert norms[-1] < 1e-7
