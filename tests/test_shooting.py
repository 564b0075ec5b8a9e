"""Two-sided shooting solver: residual behavior at known solutions,
recovery from perturbed guesses, admissibility, and solution reports.
"""

import dataclasses
import logging
import re

import numpy as np
import pytest

from c1einstein import core, germs, shooting
from c1einstein.diagnostics import characteristic_numbers
from c1einstein.germs import get_diagram
from c1einstein.integrator import integrate_germ
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


def test_lam_must_be_finite():
    for lam in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"got lam = {lam}"):
            _problem("su2_s4", lam=lam)


@pytest.mark.parametrize("kw", [
    {"rtol": 0.0, "atol": 0.0}, {"atol": 0.0}, {"atol": -1e-13}, {"rtol": -1e-11},
    {"rtol": np.nan}, {"atol": np.nan}, {"rtol": np.inf}, {"atol": np.inf},
])
def test_tolerances_must_be_finite_with_a_positive_atol(kw):
    # unchecked, rtol = atol = 0 divides by zero in the step error norm and
    # rtol = nan fails every step
    tol = {"rtol": 1e-11, "atol": 1e-13, **kw}
    with pytest.raises(ValueError, match=re.escape(
            f"got rtol = {tol['rtol']}, atol = {tol['atol']}")):
        _problem("so3_s4", **kw)
    # relative control alone is off, not broken: atol carries the step
    assert _problem("so3_s4", rtol=0.0).rtol == 0.0


def test_solve_rejects_a_negative_iteration_cap(monkeypatch):
    # a negative cap would never equal the iteration count, so it would cap nothing
    monkeypatch.setattr(shooting, "shoot", None)
    with pytest.raises(ValueError, match="max_iter must be at least 0, got -1"):
        solve(_problem("so3_s4"), initial_guess("so3_s4"), max_iter=-1)
    monkeypatch.undo()
    assert solve(_problem("so3_s4"), initial_guess("so3_s4"), max_iter=0).n_iter == 0


@pytest.mark.parametrize("tol", [0.0, np.nan, -1e-9])
def test_solve_rejects_a_tolerance_no_norm_can_pass(monkeypatch, tol):
    # a norm is never below 0, a negative tol or NaN: the solve would only stall
    monkeypatch.setattr(shooting, "shoot", None)
    with pytest.raises(ValueError, match=f"tol must be positive and finite, got tol = {tol}"):
        solve(_problem("so3_s4"), initial_guess("so3_s4"), tol=tol)


def test_an_unknown_count_that_does_not_close_the_match_is_rejected():
    d = get_diagram("so3_s4")
    short = dataclasses.replace(d, left=dataclasses.replace(d.left, free=("h",)))
    with pytest.raises(ValueError,
                       match="unknown count 4 does not close the 6-condition match"):
        ShootingProblem(short)


def test_presets_reject_a_cone_order_the_diagram_lacks():
    with pytest.raises(ValueError, match="k = 5"):
        initial_guess("su2_s4", 5)
    with pytest.raises(ValueError, match="k = 5"):
        scan_box("su2_s4", 5, n=2)
    with pytest.raises(ValueError, match="unknown diagram"):
        initial_guess("nope")
    with pytest.raises(ValueError, match="no shipped guess"):
        initial_guess("so3_hitchin", 4)
    assert initial_guess("so3_hitchin", 3).shape == (5,)


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


def test_failed_shots_say_why():
    pr = _problem("su2_s4")
    exact = initial_guess("su2_s4")
    assert shooting.shoot(pr, exact).failure is None
    assert shooting.shoot(pr, [-1 / 6] * 4 + [-1.0]).failure == "inadmissible"
    assert shooting.shoot(pr, [-1 / 6] * 4 + [40.0]).failure == "collapse_event"
    # the germ hands off further out than the match point
    short = shooting.shoot(pr, [-1 / 6] * 4 + [0.01])
    assert short.failure == "handoff" and np.all(short.residual == 1e3)
    # no hand-off offset of a 4th-order germ meets the 1e-11 defect target
    missed = ShootingProblem(get_diagram("su2_s4"), germ_order=4)
    assert shooting.shoot(missed, exact).failure == "germ"
    # an admissible mirror end whose f = h - c t + ... is not positive at
    # the first offset the hand-off search tries
    crossing = [0.2, -2.0, 2 * np.sqrt(3.0), 2.0, np.pi / 3]
    shot = shooting.shoot(_problem("so3_s4"), crossing)
    assert shot.failure == "germ" and np.all(shot.residual == 1e3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case_id,k", [(c, 0) for c in CASES]
                         + [("so3_hitchin", k) for k in (2, 3)])
def test_a_huge_germ_parameter_is_a_failed_shot(capfd, case_id, k):
    # the staircase's products overflow: a germ failure, raised before
    # LAPACK sees a non-finite probe, with no warning and nothing on stderr
    pr = _problem(case_id, k)
    for i in range(4):
        for big in (1e80, 1e200, 1e308):
            u = initial_guess(case_id, k)
            u[i] = big
            assert shooting.shoot(pr, u).failure in ("germ", "inadmissible"), (i, big)
    assert capfd.readouterr().err == ""


def test_solve_names_the_failure_it_stalls_on():
    # no hand-off offset of an order-5 Page germ meets the 1e-11 defect target
    pr = ShootingProblem(get_diagram("su2_cp2bar"), germ_order=5)
    with pytest.raises(NonConvergence, match=r"1\.000e\+03 \(shot failure: germ\)") as exc:
        solve(pr, initial_guess("su2_cp2bar"))
    # the line-search exit reports the iterate it stalled at
    assert exc.value.best_norm == np.max(np.abs(match_residual(pr, exc.value.best_u)))


def test_malformed_unknown_vector_raises():
    pr = _problem("su2_s4")
    with pytest.raises(ValueError, match="length 5"):
        match_residual(pr, [1.0, 2.0, 3.0])


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


def test_a_penalised_shot_is_never_a_solution():
    # a tolerance above the penalty passes the norm test at iteration 0, but
    # a shot whose legs fell short has no trajectory to assemble
    with pytest.raises(NonConvergence, match="leg integration terminated before the match point"):
        solve(_problem("su2_s4"), [-1 / 6] * 4 + [40.0], tol=1e5)


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


def test_solve_logs_one_record_per_step(caplog):
    pr = _problem("su2_cp2")
    g = initial_guess("su2_cp2")
    guess = g * (1 + 0.01 * np.random.default_rng(1).uniform(-1, 1, g.size))
    with caplog.at_level(logging.DEBUG, logger="c1einstein"):
        sr = solve(pr, guess)
    records = [r for r in caplog.records if r.name == "c1einstein"]
    assert sr.n_iter == 3
    assert len(records) == sr.n_iter
    assert all(r.levelno == logging.DEBUG for r in records)


def test_germs_are_built_once_per_shot(monkeypatch):
    real = germs.series_solve
    real_leg = shooting.integrate_germ
    built, legs = [], []

    def counted(*args, **kw):
        built.append(args[0])
        return real(*args, **kw)

    def counted_leg(*args, **kw):
        legs.append(args[0])
        return real_leg(*args, **kw)

    monkeypatch.setattr(germs, "series_solve", counted)
    monkeypatch.setattr(shooting, "series_solve", counted)
    monkeypatch.setattr(shooting, "integrate_germ", counted_leg)
    pr = _problem("su2_cp2")
    sr = solve(pr, initial_guess("su2_cp2"))
    # the shipped guess converges at once: the base shot builds two germs
    # and two legs, each of the four germ-parameter columns one germ and one
    # leg, and the T column two legs on the base shot's germs; the
    # trajectory reuses the base shot's legs
    assert len(built) == 6
    assert len(legs) == 8
    characteristic_numbers(sr)
    assert len(built) == 6
    ends = (pr.diagram.left, pr.diagram.right)
    for end, free, germ in zip(ends, (sr.left_free, sr.right_free), sr.germs):
        fresh = real(end, free, pr.lam, order=pr.germ_order)
        assert np.array_equal(germ.coeffs, fresh.coeffs)


INSTANCES = [(c, 0) for c in CASES] + [("so3_hitchin", k) for k in (1, 2, 3)]
# diagrams whose shipped guesses and T columns are mirror shots
MIRRORS = ("su2_s4", "su2_cp2bar")


def test_a_mirror_solve_builds_each_distinct_germ_once(monkeypatch):
    real = germs.series_solve
    built = []

    def counted(*args, **kw):
        built.append(real(*args, **kw))
        return built[-1]

    monkeypatch.setattr(shooting, "series_solve", counted)
    pr = _problem("su2_cp2bar")
    sr = solve(pr, initial_guess("su2_cp2bar"))
    # the base shot builds one germ for both ends and each left
    # germ-parameter column one; each right column moves the right end to
    # the free values a left column moved the left end to, so it finds
    # that column's side in the cache, and the T column keeps the base germ
    assert sr.n_iter == 0 and len(built) == 3
    assert sr.germs[0] is sr.germs[1] is built[0]


def test_blown_shot_stops_at_the_profile_scale():
    pr = _problem("su2_s4")
    u = scan_box("su2_s4", width=0.25, n=3)[242]
    shot = shooting.shoot(pr, u)
    assert shot.failure == "blowup_event"
    for leg in shot.legs:
        assert leg.reason == "blowup_event"
        assert leg.n_accepted < 1000
    assert np.all(shot.residual > 1e3)


def test_blowup_ceiling_scales_with_lambda():
    # lam = 0.3 stretches the quotient sphere by s = sqrt(10): its profile
    # passes |f| = 10, so a ceiling fixed at the lam = 3 value would stop it
    lam = 0.3
    s = np.sqrt(3.0 / lam)
    pr = ShootingProblem(get_diagram("so3_s4"), lam=lam)
    g = initial_guess("so3_s4") * np.array([s, 1, s, 1, s])
    sr = solve(pr, g)
    assert sr.n_iter == 0 and sr.residual_norm < 1e-9
    assert np.max(np.abs(sr.trajectory.f)) > shooting._BLOWUP


def _record_columns(monkeypatch):
    """Record each residual solve's Jacobian asks for, with the shot it
    lends as base."""
    real = shooting.match_residual
    calls = []

    def recording(pr, u, base=None):
        r = real(pr, u, base=base)
        calls.append((np.array(u), base, r))
        return r

    monkeypatch.setattr(shooting, "match_residual", recording)
    return calls


def _assert_jacobians_exact(pr, calls):
    # columns come in fives, one Jacobian per base shot; both Jacobians are
    # (column - base.residual) / h with the same h, so equal residual
    # columns mean equal Jacobians
    assert calls and len(calls) % 5 == 0
    for j in range(0, len(calls), 5):
        group = calls[j:j + 5]
        base = group[0][1]
        assert base is not None and all(b is base for _, b, _ in group)
        reused = np.column_stack([r for _, _, r in group])
        full = np.column_stack([shooting.shoot(pr, u).residual for u, _, _ in group])
        assert np.array_equal(reused, full)


@pytest.mark.parametrize("case_id,k", INSTANCES)
def test_jacobian_reusing_the_base_shot_is_exact(monkeypatch, case_id, k):
    calls = _record_columns(monkeypatch)
    real_leg = shooting.integrate_germ
    peaks = []

    def counted_leg(*args, **kw):
        leg = real_leg(*args, **kw)
        peaks.append((leg.reason, np.max(np.abs(leg.f))))
        return leg

    monkeypatch.setattr(shooting, "integrate_germ", counted_leg)
    pr = _problem(case_id, k)
    solve(pr, initial_guess(case_id, k))
    assert len(calls) == 5
    # every leg of the solve, Jacobian columns included, stays below half
    # the blow-up ceiling; the base shot and the T column build one leg per
    # distinct side (one on a mirror diagram, two otherwise) and each
    # germ-parameter column one, except a mirror diagram's right columns,
    # which find the sides their left twins built
    assert len(peaks) == (4 if case_id in MIRRORS else 8)
    for reason, peak in peaks:
        assert reason == "reached_target" and peak <= shooting._BLOWUP / 2, peak
    _assert_jacobians_exact(pr, calls)


def test_jacobian_reuse_is_exact_at_accepted_iterates(monkeypatch):
    calls = _record_columns(monkeypatch)
    pr = _problem("su2_cp2")
    g = initial_guess("su2_cp2")
    guess = g * (1 + 0.01 * np.random.default_rng(1).uniform(-1, 1, g.size))
    sr = solve(pr, guess)
    # one Jacobian at the guess and one at each of the three accepted iterates
    assert sr.n_iter == 3 and len(calls) == 20
    assert np.array_equal(calls[-5][0][1:], sr.u[1:])
    _assert_jacobians_exact(pr, calls)


def test_shot_rebuilds_only_the_sides_whose_inputs_change():
    pr = _problem("su2_cp2")
    u = initial_guess("su2_cp2")
    base = shooting.shoot(pr, u)

    def column(i):
        up = u.copy()
        up[i] += 1e-7 * (1.0 + abs(u[i]))
        return shooting.shoot(pr, up, base=base)

    t = column(4)
    assert t.germs[0] is base.germs[0] and t.germs[1] is base.germs[1]
    assert t.legs[0] is not base.legs[0] and t.legs[1] is not base.legs[1]
    for i, moved, kept in ((0, 0, 1), (1, 0, 1), (2, 1, 0), (3, 1, 0)):
        s = column(i)
        assert s.germs[moved] is not base.germs[moved]
        assert s.legs[moved] is not base.legs[moved]
        assert s.germs[kept] is base.germs[kept] and s.legs[kept] is base.legs[kept]
    same = shooting.shoot(pr, u, base=base)
    assert same.legs[0] is base.legs[0] and same.legs[1] is base.legs[1]
    assert np.array_equal(same.residual, base.residual)
    # a rejected base lends nothing
    rejected = shooting.shoot(pr, -u)
    assert rejected.germs == ()
    assert np.array_equal(shooting.shoot(pr, u, base=rejected).residual, base.residual)


@pytest.mark.parametrize("change", [dict(lam=0.3), dict(rtol=1e-8), dict(germ_order=10)])
def test_a_base_of_another_problem_lends_no_side(change):
    # the side cache is keyed by the problem too: a shot whose base was shot
    # under other lam, tolerances or germ order builds its own sides
    pr = _problem("so3_s4")
    u = initial_guess("so3_s4")
    other = dataclasses.replace(pr, **change)
    lent = shooting.shoot(other, u, base=shooting.shoot(pr, u))
    fresh = shooting.shoot(other, u)
    assert np.array_equal(lent.residual, fresh.residual)
    for germ, ref in zip(lent.germs, fresh.germs):
        assert np.array_equal(germ.coeffs, ref.coeffs)
    for leg, ref in zip(lent.legs, fresh.legs):
        _assert_same_leg(leg, ref)


def test_reused_leg_keeps_its_stop_reason():
    # the legs collapse before the match point, so the residual is the
    # shortfall penalty; a reused leg must give the same penalty
    pr = _problem("su2_s4")
    u = np.array([-1 / 6, -1 / 6, -1 / 6, -1 / 6, 40.0])
    base = shooting.shoot(pr, u)
    assert [leg.reason for leg in base.legs] == ["collapse_event"] * 2
    for i in (0, 3):
        up = u.copy()
        up[i] += 1e-7 * (1.0 + abs(u[i]))
        assert np.array_equal(shooting.shoot(pr, up, base=base).residual,
                              shooting.shoot(pr, up).residual)


def _assert_same_leg(a, b):
    for x, y in ((a.t, b.t), (a.y, b.y), (a.dy, b.dy)):
        assert np.array_equal(x, y)
    assert (a.reason, a.n_accepted, a.n_rejected, a.resume) == \
        (b.reason, b.n_accepted, b.n_rejected, b.resume)


def _t_column(u):
    up = u.copy()
    up[-1] += shooting._FD_STEP * (1.0 + abs(u[-1]))
    return up


@pytest.mark.parametrize("case_id,k", INSTANCES)
def test_t_column_resumes_the_base_legs(monkeypatch, case_id, k):
    # the T column continues each base leg to its longer match distance:
    # the legs of a fresh shot, bit for bit, for at most two attempted
    # steps (six RHS calls each) per leg built
    pr = _problem(case_id, k)
    u = initial_guess(case_id, k)
    base = shooting.shoot(pr, u)
    real = core.frame_slope
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(core, "frame_slope", counted)
    col = shooting.shoot(pr, _t_column(u), base=base)
    monkeypatch.undo()
    assert col.germs == base.germs and col.failure is None
    n_legs = 1 if case_id in MIRRORS else 2
    assert 0 < len(calls) <= 2 * 6 * n_legs
    fresh = shooting.shoot(pr, _t_column(u))
    assert np.array_equal(col.residual, fresh.residual)
    for leg, ref in zip(col.legs, fresh.legs):
        _assert_same_leg(leg, ref)


def _hermite_residual(shot):
    """The match differences from each leg interpolated at its match distance."""
    (fl, dfl), (fr, dfr) = (leg.eval(r) for leg, r in zip(shot.legs, shot.reach))
    return np.concatenate([fl[0] - fr[0], dfl[0] + dfr[0]])


@pytest.mark.parametrize("case_id,k", INSTANCES)
def test_a_reached_leg_ends_on_its_match_point(case_id, k):
    # shoot takes the residual from the legs' last samples: on the shipped
    # shot, its Jacobian columns and the default scan boxes, each reached
    # leg ends exactly at its match distance, so the interpolated residual
    # is the same, bit for bit
    pr = _problem(case_id, k)
    u = initial_guess(case_id, k)
    base = shooting.shoot(pr, u)
    shots = [base]
    for i in range(len(u)):
        up = u.copy()
        up[i] += shooting._FD_STEP * (1.0 + abs(u[i]))
        shots.append(shooting.shoot(pr, up, base=base))
    if case_id in ("su2_s4", "so3_s2xs2"):
        anchor = shooting.Shot((), (), np.empty(0))
        shots += [shooting.shoot(pr, v, base=anchor) for v in scan_box(case_id, k)]
    reached = [s for s in shots if s.failure is None]
    assert base.failure is None and len(reached) >= 6
    for shot in reached:
        assert [leg.t[-1] for leg in shot.legs] == list(shot.reach)
        assert shot.residual.tobytes() == _hermite_residual(shot).tobytes()


def test_a_leg_that_never_read_its_target_is_its_own_continuation():
    pr = _problem("su2_s4")
    u = scan_box("su2_s4", width=0.25, n=3)[242]
    base = shooting.shoot(pr, u)
    assert [leg.reason for leg in base.legs] == ["blowup_event"] * 2
    assert base.legs[0].resume is None
    col = shooting.shoot(pr, _t_column(u), base=base)
    fresh = shooting.shoot(pr, _t_column(u))
    assert col.legs[0] is base.legs[0] and col.legs[1] is base.legs[1]
    assert np.array_equal(col.residual, fresh.residual)
    for leg, ref in zip(col.legs, fresh.legs):
        _assert_same_leg(leg, ref)


def test_a_leg_clipped_at_its_first_step_continues_as_a_fresh_one():
    end = get_diagram("so3_s4").left
    germ = germs.series_solve(end, {"h": 2 * np.sqrt(3.0), "c": -2.0}, 3.0, order=8)
    short = integrate_germ(germ, germs.germ_start_offset(germ) + 1e-9)
    assert short.reason == "reached_target" and short.n_accepted == 1
    assert short.resume[0] == 1  # the first step read the target
    _assert_same_leg(integrate_germ(germ, 0.5, leg=short), integrate_germ(germ, 0.5))


@pytest.mark.parametrize("case_id", MIRRORS)
def test_a_mirror_shot_builds_one_side(monkeypatch, case_id):
    real_leg = shooting.integrate_germ
    legs = []

    def counted_leg(*args, **kw):
        legs.append(real_leg(*args, **kw))
        return legs[-1]

    monkeypatch.setattr(shooting, "integrate_germ", counted_leg)
    pr = _problem(case_id)
    u = initial_guess(case_id)
    shot = shooting.shoot(pr, u)
    assert len(legs) == 1
    assert shot.germs[0] is shot.germs[1] and shot.legs[0] is shot.legs[1]
    # the right side built on its own gives the same germ and leg
    _, right, _ = pr.split(u)
    germ = germs.series_solve(pr.diagram.right, right, pr.lam, order=pr.germ_order)
    assert np.array_equal(germ.coeffs, shot.germs[1].coeffs)
    leg = integrate_germ(germ, shot.reach[1], rtol=pr.rtol, atol=pr.atol,
                         blowup_ceiling=shooting._BLOWUP)
    _assert_same_leg(leg, shot.legs[1])
    # -0.0 == 0.0, but a germ built from one need not have the other's
    # bits: not a mirror shot
    v = u.copy()
    v[1], v[3] = 0.0, -0.0
    shooting.shoot(pr, v)
    assert len(legs) == 3


def test_a_shots_legs_are_read_only():
    leg = shooting.shoot(_problem("su2_s4"), initial_guess("su2_s4")).legs[0]
    for a in (leg.t, leg.y, leg.dy):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        leg.reason = "collapse_event"


@pytest.mark.parametrize("seed", range(1, 21))
def test_page_metric_closes_from_a_tiny_perturbation(seed):
    # from 1e-8 away Gauss-Newton itself must close Page, within 1e-8 of
    # the shipped root
    pr = _problem("su2_cp2bar")
    g = initial_guess("su2_cp2bar")
    guess = g * (1 + 1e-8 * np.random.default_rng(seed).uniform(-1, 1, g.size))
    sr = solve(pr, guess)
    assert sr.converged and sr.residual_norm < 1e-9
    assert sr.n_iter >= 1
    assert np.max(np.abs(sr.u - g)) < 1e-8


def test_page_reference_residual_at_the_shipped_guess():
    # each leg again at 30 digits (mpmath's Taylor method through the frame
    # system on mpf values) from the float shot's hand-off state: the
    # shipped guess is the Page root to well below solve's tol, and the
    # float legs meet the match point within 1e-12 of the reference
    mpmath = pytest.importorskip("mpmath")
    pr = _problem("su2_cp2bar")
    shot = shooting.shoot(pr, initial_guess("su2_cp2bar"))
    ends = {}  # by leg: a mirror shot's two sides share one
    with mpmath.workdps(30):
        lam = mpmath.mpf(pr.lam)
        for leg, reach in zip(shot.legs, shot.reach):
            if id(leg) not in ends:
                ref = mpmath.odefun(lambda t, y: [*core._frame_rhs(*y, lam)],
                                    mpmath.mpf(leg.t[0]), [mpmath.mpf(v) for v in leg.y[0]],
                                    tol=mpmath.mpf("1e-25"), degree=30)
                ends[id(leg)] = ref(mpmath.mpf(reach))
            f, df = leg.eval(reach)
            err = [mpmath.mpf(v) - w for v, w in zip([*f[0], *df[0]], ends[id(leg)])]
            assert max(map(abs, err)) <= 1e-12
        left, right = (ends[id(leg)] for leg in shot.legs)
        # opposite orientations: f differences, f' sums
        r = [*(a - b for a, b in zip(left[:3], right[:3])),
             *(a + b for a, b in zip(left[3:], right[3:]))]
        assert mpmath.norm(r) <= 1e-11


def test_round_solution_profile(solutions):
    sr = solutions("su2_s4")
    ts = np.linspace(sr.trajectory.t[0], sr.trajectory.t[-1], 50)
    f, _ = sr.trajectory.eval(ts)
    assert np.max(np.abs(f - np.sin(ts)[:, None])) < 1e-8


def test_nonconvergence_reports_best_iterate():
    pr = _problem("su2_s4")
    with pytest.raises(NonConvergence) as exc:
        solve(pr, [-0.9, 0.8, -0.9, 0.8, 9.0], max_iter=3)
    # the max-iteration exit: the norm is that of the iterate it reports
    assert exc.value.best_norm > 0
    assert exc.value.best_norm == np.max(np.abs(match_residual(pr, exc.value.best_u)))


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

def test_scan_keeps_input_order_and_fresh_shot_bits():
    # a scan shoots in ascending T against one side cache; each answer must
    # still be a fresh shot's norm, bit for bit, in input order
    pr = _problem("su2_s4")
    box = scan_box("su2_s4", width=0.1, n=2)
    inadmissible = box[7].copy()
    inadmissible[-1] = 0.0
    blown = scan_box("su2_s4", width=0.25, n=3)[242]
    grid = [*box, box[12], inadmissible, blown]
    grid = [grid[i] for i in np.random.default_rng(5).permutation(len(grid))]
    Ts = [u[-1] for u in grid]
    assert any(a > b for a, b in zip(Ts, Ts[1:])) and len(set(Ts)) < len(Ts)
    out = scan(pr, grid)
    assert len(out) == len(grid)
    for (v, r), u in zip(out, grid):
        assert np.array_equal(v, u)
        assert r == float(np.max(np.abs(match_residual(pr, u))))
    assert scan(pr, []) == []
    with pytest.raises(ValueError, match="length 5"):
        scan(pr, [box[0], [1.0, 2.0, 3.0]])


def test_scan_runs_on_one_thread():
    pr = _problem("su2_s4")
    with pytest.raises(ValueError, match="jobs = 2"):
        scan(pr, scan_box("su2_s4", width=0.1, n=2), jobs=2)


def test_a_scan_builds_each_distinct_side_once(monkeypatch):
    real = shooting.series_solve
    real_leg = shooting.integrate_germ
    built, legs = [], []

    def counted(*args, **kw):
        built.append(args[0])
        return real(*args, **kw)

    def counted_leg(*args, **kw):
        legs.append(args[0])
        return real_leg(*args, **kw)

    monkeypatch.setattr(shooting, "series_solve", counted)
    monkeypatch.setattr(shooting, "integrate_germ", counted_leg)
    scan(_problem("su2_s4"), scan_box("su2_s4", width=0.25, n=3))
    # both ends of su2_s4 are one end condition: 3 x 3 free values make 9
    # germs, and each is integrated to the box's 3 match distances, each
    # longer leg continuing the one before (shot point by point: 459 each)
    assert (len(built), len(legs)) == (9, 27)


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
