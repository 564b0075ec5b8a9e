"""Adaptive integration of the frame system: accuracy against the closed
forms, event detection, tolerance scaling, time reversal, and drift tracking.
"""

import os
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest

from c1einstein import core
from c1einstein.germs import get_diagram, series_solve
from c1einstein.integrator import (Trajectory, drift_report, integrate_frame,
                                   integrate_germ, rhs_vector)
from c1einstein.oracles import oracle

S2 = np.sqrt(2.0)
S3 = np.sqrt(3.0)


def _round_traj(t_end=2.0, **kw):
    prof = oracle("round_su2", lam=3.0)
    t0 = 0.3
    return prof, integrate_frame(prof.f(t0), prof.df(t0), t0, t_end, 3.0, **kw)


def test_rhs_vector_packs_frame_rhs():
    y = np.array([1.0, 1.1, 0.9, 0.1, -0.2, 0.05])
    out = rhs_vector(y, 3.0)
    assert np.array_equal(out[:3], y[3:])
    assert np.allclose(out[3:], core.frame_rhs(y[:3], y[3:], 3.0))


@pytest.mark.parametrize("orc,t0,t1", [
    ("round_su2", 0.3, 2.8), ("fs_su2", 0.2, 2.0),
    ("fs_so3", 0.1, 1.0), ("hitchin_k2", 0.1, 1.0),
])
def test_closed_form_tracking(orc, t0, t1):
    prof = oracle(orc, lam=3.0)
    traj = integrate_frame(prof.f(t0), prof.df(t0), t0, t1, 3.0)
    assert traj.reason == "reached_target"
    ts = np.linspace(t0, t1, 200)
    f, df = traj.eval(ts)
    assert np.max(np.abs(f - prof.f(ts))) < 1e-8
    assert np.max(np.abs(df - prof.df(ts))) < 1e-8


@pytest.mark.parametrize("orc,t0,t1", [("round_su2", 0.3, 2.8), ("fs_so3", 0.1, 1.0)])
def test_agrees_with_scipy_dop853(orc, t0, t1):
    """An independent integrator, scipy's DOP853 at rtol 1e-12, lands on the
    same states at every accepted step."""
    pytest.importorskip("scipy")
    from scipy.integrate import solve_ivp

    prof = oracle(orc, lam=3.0)
    traj = integrate_frame(prof.f(t0), prof.df(t0), t0, t1, 3.0)
    ref = solve_ivp(lambda t, y: rhs_vector(y, 3.0), (t0, t1), traj.y[0],
                    method="DOP853", rtol=1e-12, atol=1e-14, t_eval=traj.t)
    assert ref.success
    assert np.max(np.abs(ref.y.T - traj.y)) < 1e-8


def test_germ_launch_tracks_closed_form():
    prof = oracle("round_so3", lam=3.0)
    end = get_diagram("so3_s4").left
    germ = series_solve(end, {"h": 2 * S3, "c": -2.0}, 3.0, order=10)
    traj = integrate_germ(germ, 0.9)
    ts = np.linspace(traj.t[0], 0.9, 100)
    f, _ = traj.eval(ts)
    assert np.max(np.abs(f - prof.f(ts))) < 1e-8


def test_collapse_event_at_the_far_pole():
    # the round sphere collapses at t = pi; ask for more and stop there.
    # timing accuracy is limited near the pole: errors amplify like an
    # inverse power of f on the approach, so only coarse agreement is fair
    prof, traj = _round_traj(t_end=4.0)
    assert traj.reason == "collapse_event"
    assert traj.t_end == pytest.approx(np.pi, abs=5e-3)
    assert np.min(traj.f[-1]) <= 1.1e-8


def _blowup_traj():
    # frozen frame with strong outward slopes blows up in finite time
    return integrate_frame([1.0, 1.0, 1.0], [3.0, 3.0, 3.0], 0.0, 50.0,
                           -3.0, blowup_ceiling=1e3)


def test_blowup_event():
    traj = _blowup_traj()
    assert traj.reason == "blowup_event"
    assert np.max(np.abs(traj.f[-1])) >= 1e3 * (1 - 1e-9)


def test_an_event_ends_the_leg_at_the_step_that_crossed():
    _, collapse = _round_traj(t_end=4.0)
    blowup = _blowup_traj()
    assert collapse.reason == "collapse_event"
    assert np.all(np.min(collapse.f[:-1], axis=1) > 1e-8)
    assert np.min(collapse.f[-1]) <= 1e-8
    assert blowup.reason == "blowup_event"
    assert np.all(np.max(np.abs(blowup.f[:-1]), axis=1) < 1e3)
    assert np.max(np.abs(blowup.f[-1])) >= 1e3


def test_a_stopped_leg_spends_six_rhs_calls_per_step(monkeypatch):
    # one FSAL evaluation at the start, then six per attempted step; no
    # extra evaluation locates the event inside the last step
    real = core.frame_slope
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(core, "frame_slope", counted)
    traj = _blowup_traj()
    assert traj.reason == "blowup_event"
    assert len(calls) == 1 + 6 * (traj.n_accepted + traj.n_rejected)


def test_a_retried_step_starts_from_the_last_accepted_slope(monkeypatch):
    # FSAL: every attempt from sample n, retries included, takes dy[n] as
    # its first stage, so its first RHS call is at y[n] + (h / 5) dy[n].
    # At rtol 1e-6 this blown-up scan leg rejects about 150 steps after
    # accepted ones; a first stage left over from the rejected trial fails this
    from c1einstein.presets import scan_box
    from c1einstein.shooting import ShootingProblem

    pr = ShootingProblem(get_diagram("su2_s4"))
    left, _, _ = pr.split(scan_box("su2_s4", width=0.25, n=3)[242])
    f0, df0 = series_solve(pr.diagram.left, left, 3.0, order=8).eval(0.01)
    real = core.frame_slope
    xs = []

    def recording(f1, f2, f3, d1, d2, d3, lam):
        xs.append(np.array([f1, f2, f3, d1, d2, d3]))
        return real(f1, f2, f3, d1, d2, d3, lam)

    monkeypatch.setattr(core, "frame_slope", recording)
    traj = integrate_frame(f0, df0, 0.01, 5.0, 3.0, rtol=1e-6, atol=1e-8)
    assert len(xs) == 1 + 6 * (traj.n_accepted + traj.n_rejected)
    n, retried = 0, 0
    for j in range(1, len(xs), 6):
        d, k = xs[j] - traj.y[n], traj.dy[n]
        assert np.linalg.norm(d - (d @ k) / (k @ k) * k) <= 1e-12 * np.linalg.norm(d)
        if n + 1 < len(traj.t) and np.array_equal(xs[j + 5], traj.y[n + 1]):
            n += 1
        else:
            retried += n > 0
    assert n == traj.n_accepted and retried > 90


def _array_dopri5(y, t, t_target, lam, rtol, atol, ceiling):
    # the step loop on numpy arrays, the reference for integrate_frame's
    # float bookkeeping; each tableau sum adds its nonzero terms left to
    # right in stage order
    from c1einstein.integrator import _A, _B5, _ERR

    def rhs(y):
        return np.concatenate([y[3:], core.frame_rhs(y[:3], y[3:], lam)])

    def tableau_sum(row, ks):
        terms = [a * k for a, k in zip(row, ks) if a]
        return sum(terms[1:], terms[0])

    k7 = rhs(y)
    ts, ys = [t], [y]
    h = min(1e-3 * (1 + np.max(np.abs(y))) / (1 + np.max(np.abs(k7))), t_target - t)
    err_prev = 1.0
    while True:
        h = min(h, t_target - t)
        ks = [k7]
        try:
            for row in _A:
                ks.append(rhs(y + h * tableau_sum(row, ks)))
            y5 = y + h * tableau_sum(_B5, ks)
            ks.append(rhs(y5))
        except core.NonPositiveProfile:
            h *= 0.25
            continue
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = np.sqrt(np.add.reduce((h * tableau_sum(_ERR, ks) / sc) ** 2) / 6)
        if err > 1.0:
            h *= min(1.0, max(0.2, 0.9 * err ** -0.2))
            continue
        t, y, k7 = t + h, y5, ks[6]
        ts.append(t)
        ys.append(y)
        if (min(y[:3]) <= 1e-8 or np.max(np.abs(y[:3])) >= ceiling
                or t >= t_target - 1e-14 * max(1.0, abs(t_target))):
            return np.array(ts), np.array(ys)
        fac = 0.9 * err ** -0.14 * err_prev ** 0.08
        err_prev = max(err, 1e-10)
        h *= min(5.0, max(0.2, fac))


@pytest.mark.parametrize("case_id", ["su2_s4", "so3_s4", "su2_cp2bar", "so3_s2xs2"])
def test_float_bookkeeping_keeps_the_array_forms_bits(case_id):
    # the left leg of each shipped guess and of one scan-box point, which
    # blows up on su2_s4 and su2_cp2bar; the last two retry a rejected step
    from c1einstein.presets import initial_guess, scan_box
    from c1einstein.shooting import ShootingProblem

    pr = ShootingProblem(get_diagram(case_id))
    for u in (initial_guess(case_id), scan_box(case_id, width=0.25, n=3)[242]):
        left, _, T = pr.split(u)
        germ = series_solve(pr.diagram.left, left, pr.lam, order=pr.germ_order)
        leg = integrate_germ(germ, pr.theta * T, rtol=pr.rtol, atol=pr.atol,
                             blowup_ceiling=10.0)
        t, y = _array_dopri5(leg.y[0], leg.t[0], pr.theta * T, pr.lam,
                             pr.rtol, pr.atol, 10.0)
        assert np.array_equal(leg.t, t) and np.array_equal(leg.y, y)


def test_a_stage_past_a_collapse_is_rejected_and_retried(monkeypatch):
    # a steep inward slope drives f1 through zero inside a trial step; the
    # stage that sees f1 <= 0 rejects the step, which is retried at h / 4
    real = core.frame_slope
    raised = []

    def counted(*args):
        try:
            return real(*args)
        except core.NonPositiveProfile:
            raised.append(1)
            raise

    monkeypatch.setattr(core, "frame_slope", counted)
    traj = integrate_frame([1, 1, 1], [-10, 0, 0], 0, 5, 3.0)
    assert len(raised) == 1
    assert traj.reason == "collapse_event"
    assert (traj.n_accepted, traj.n_rejected) == (208, 52)
    assert traj.t_end == pytest.approx(0.0992768, abs=1e-7)
    t, y = _array_dopri5(np.array([1.0, 1.0, 1.0, -10.0, 0.0, 0.0]), 0.0, 5.0, 3.0,
                         1e-10, 1e-12, 1e6)
    assert np.array_equal(traj.t, t) and np.array_equal(traj.y, y)


# integrates each start given as a repr'd argument list, and prints each
# leg's t, y and dy as hex bytes
_LEG_SCRIPT = """
import ast, sys
from c1einstein.integrator import integrate_frame
for start in ast.literal_eval(sys.argv[1]):
    leg = integrate_frame(*start)
    print(leg.t.tobytes().hex(), leg.y.tobytes().hex(), leg.dy.tobytes().hex())
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS's Prescott kernel runs on x86-64 only")
def test_a_legs_bits_do_not_depend_on_the_blas_kernel():
    # the collapse start and the left hand-off states of two shipped guesses,
    # integrated here and under OpenBLAS's oldest x86-64 kernel; only legs,
    # since the germ staircase's lstsq still goes through LAPACK
    from c1einstein.presets import initial_guess
    from c1einstein.shooting import ShootingProblem

    starts = [([1.0, 1.0, 1.0], [-10.0, 0.0, 0.0], 0.0, 5.0, 3.0)]
    for case_id in ("so3_s4", "su2_cp2bar"):
        pr = ShootingProblem(get_diagram(case_id))
        left, _, T = pr.split(initial_guess(case_id))
        germ = series_solve(pr.diagram.left, left, pr.lam, order=pr.germ_order)
        leg = integrate_germ(germ, pr.theta * T, rtol=pr.rtol, atol=pr.atol)
        starts.append((leg.f[0].tolist(), leg.df[0].tolist(), float(leg.t[0]),
                       pr.theta * T, pr.lam, pr.rtol, pr.atol))
    src = os.path.dirname(os.path.dirname(core.__file__))
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _LEG_SCRIPT, repr(starts)], env=env,
                         capture_output=True, text=True, check=True).stdout
    legs = [integrate_frame(*start) for start in starts]
    assert out.splitlines() == [
        " ".join(a.tobytes().hex() for a in (leg.t, leg.y, leg.dy)) for leg in legs]


def test_an_exact_step_takes_the_largest_growth():
    # f'' = 0 at f = (2, 2, 2), f' = 0, lam = 1/2: every stage is the same,
    # so the error estimate is exactly zero, and the PI controller's power
    # of it must not divide by zero; each step grows fivefold
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate_frame([2, 2, 2], [0, 0, 0], 0, 1, 0.5)
    assert traj.reason == "reached_target"
    assert (traj.n_accepted, traj.n_rejected) == (5, 0)
    assert np.allclose(traj.t, [0.0, 0.003, 0.018, 0.093, 0.468, 1.0], rtol=0, atol=1e-15)
    assert np.array_equal(traj.y, np.tile([2.0, 2.0, 2.0, 0.0, 0.0, 0.0], (6, 1)))


def test_only_a_nonpositive_profile_shortens_the_step(monkeypatch):
    # a ValueError other than core.NonPositiveProfile is a fault, not a
    # step over a collapse, and must not be retried into a step_failure leg
    real = core.frame_slope
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) > 1:
            raise ValueError("not a positivity failure")
        return real(*args)

    monkeypatch.setattr(core, "frame_slope", failing)
    with pytest.raises(ValueError, match="not a positivity failure"):
        _round_traj()
    assert len(calls) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("f0,df0", [((np.nan, 1.0, 1.0), (0.0, 0.0, 0.0)),
                                    ((1.0, 1.0, 1.0), (np.inf, 0.0, 0.0)),
                                    ((1e-170,) * 3, (0.0, 0.0, 0.0))])
def test_a_start_with_no_finite_slope_ends_at_once(monkeypatch, f0, df0):
    # a non-finite start is a usage error; a finite one whose first slope is
    # NaN (f_j f_k underflows) gives a NaN step size, which ends the leg at
    # its first attempt instead of spinning through _MAX_STEPS rejections
    real = core.frame_slope
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(core, "frame_slope", counted)
    if np.all(np.isfinite([*f0, *df0])):
        traj = integrate_frame(f0, df0, 0.0, 1.0, 3.0)
        assert (traj.reason, len(traj.t), traj.n_rejected) == ("step_failure", 1, 1)
        assert len(calls) == 1 + 6
    else:
        with pytest.raises(ValueError, match="must be finite"):
            integrate_frame(f0, df0, 0.0, 1.0, 3.0)
        assert not calls


def test_tolerance_scaling():
    # error should fall steeply as rtol is tightened
    prof = oracle("round_su2", lam=3.0)
    errs = []
    for rtol in (1e-5, 1e-8, 1e-11):
        traj = integrate_frame(prof.f(0.3), prof.df(0.3), 0.3, 2.5, 3.0,
                               rtol=rtol, atol=rtol * 1e-2)
        ts = np.linspace(0.3, 2.5, 100)
        f, _ = traj.eval(ts)
        errs.append(np.max(np.abs(f - prof.f(ts))))
    assert errs[1] < errs[0] * 1e-2
    assert errs[2] < errs[1]
    assert errs[2] < 1e-9


@pytest.mark.parametrize("kw,shown", [({"atol": 0.0}, "atol = 0.0"),
                                      ({"rtol": np.nan}, "got rtol = nan")])
def test_integrate_frame_rejects_a_tolerance_the_error_norm_cannot_use(kw, shown):
    # unchecked, atol = 0 at a static point divides by zero in the step error
    # norm and rtol = nan fails every step
    with pytest.raises(ValueError, match=f"tolerances must be finite .*{shown}"):
        integrate_frame([2, 2, 2], [0, 0, 0], 0, 1, 0.5, **kw)
    germ = series_solve(get_diagram("su2_s4").left, {"da": -1 / 6, "db": -1 / 6}, 3.0)
    with pytest.raises(ValueError, match=f"tolerances must be finite .*{shown}"):
        integrate_germ(germ, 1.0, **kw)


def test_step_counts_respond_to_tolerance():
    _, loose = _round_traj(rtol=1e-6, atol=1e-8)
    _, tight = _round_traj(rtol=1e-12, atol=1e-14)
    assert tight.n_accepted > loose.n_accepted


def test_time_reversal_consistency():
    # integrate forward, then back from the endpoint; recover the start
    prof = oracle("fs_su2", lam=3.0)
    t0, t1 = 0.4, 1.6
    fwd = integrate_frame(prof.f(t0), prof.df(t0), t0, t1, 3.0)
    f1, df1 = fwd.eval(t1)
    bwd = integrate_frame(f1[0], -df1[0], 0.0, t1 - t0, 3.0)
    fb, dfb = bwd.eval(t1 - t0)
    assert np.max(np.abs(fb[0] - prof.f(t0))) < 1e-8
    assert np.max(np.abs(-dfb[0] - prof.df(t0))) < 1e-8


def test_eval_range_checked():
    _, traj = _round_traj()
    with pytest.raises(ValueError):
        traj.eval(0.1)
    with pytest.raises(ValueError):
        traj.eval(2.5)


def test_eval_reproduces_nodes_exactly():
    _, traj = _round_traj()
    f, df = traj.eval(traj.t)
    assert np.array_equal(f, traj.f)
    assert np.array_equal(df, traj.df)


def test_diagnostics_contents():
    _, traj = _round_traj()
    d = traj.diagnostics()
    assert d["t"] is traj.t
    assert d["f"].shape == (len(traj.t), 3)
    # round metric: all a, b eigenvalues equal lambda/3
    assert np.allclose(d["a"], 1.0, atol=1e-8)
    assert np.allclose(d["b"], 1.0, atol=1e-8)
    assert np.max(np.abs(d["constraint"])) < 1e-8


def test_drift_report_on_closed_form():
    _, traj = _round_traj(rtol=1e-11, atol=1e-13)
    rep = drift_report(traj)
    assert rep["max_constraint"] < 1e-9
    assert rep["max_trace_a"] < 1e-7
    assert rep["max_trace_b"] < 1e-7
    assert rep["n_accepted"] == traj.n_accepted


def test_drift_report_rejects_empty():
    traj = Trajectory(np.empty(0), np.empty((0, 6)), np.empty((0, 6)),
                      3.0, "step_failure", 0)
    with pytest.raises(ValueError):
        drift_report(traj)


def test_target_before_start_rejected():
    with pytest.raises(ValueError):
        integrate_frame([1, 1, 1], [0, 0, 0], 1.0, 0.5, 3.0)
