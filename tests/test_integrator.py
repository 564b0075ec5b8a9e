"""Adaptive integration of the frame system: accuracy against the closed
forms, event detection, tolerance scaling, time reversal, and drift tracking.
"""

import numpy as np
import pytest

from c1einstein import core
from c1einstein.germs import get_diagram, series_solve
from c1einstein.integrator import (Trajectory, drift_report, integrate,
                                   integrate_frame, integrate_germ,
                                   rhs_vector)
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


def test_blowup_event():
    # frozen frame with strong outward slopes blows up in finite time
    traj = integrate_frame([1.0, 1.0, 1.0], [3.0, 3.0, 3.0], 0.0, 50.0,
                           -3.0, blowup_ceiling=1e3)
    assert traj.reason == "blowup_event"
    assert np.max(np.abs(traj.f[-1])) >= 1e3 * (1 - 1e-9)


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


def test_integrate_wrapper_directions():
    prof = oracle("round_su2", lam=3.0)
    st = core.FrameState(t=1.2, f=prof.f(1.2), df=prof.df(1.2))
    fwd = integrate(st, 1, 2.0, 3.0)
    assert fwd.t_end == pytest.approx(2.0)
    bwd = integrate(st, -1, 0.4, 3.0)
    # mirrored time: s = t0 - t, so s_end = 0.8 and f matches at t = 0.4
    assert bwd.t_end == pytest.approx(0.8)
    f, df = bwd.eval(0.8)
    assert np.max(np.abs(f[0] - prof.f(0.4))) < 1e-8
    assert np.max(np.abs(df[0] + prof.df(0.4))) < 1e-8
    with pytest.raises(ValueError):
        integrate(st, 0, 2.0, 3.0)


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
    d = traj.diagnostics(np.linspace(0.5, 1.5, 7))
    assert d["f"].shape == (7, 3)
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
                      3.0, "step_failure", 0, 0)
    with pytest.raises(ValueError):
        drift_report(traj)


def test_target_before_start_rejected():
    with pytest.raises(ValueError):
        integrate_frame([1, 1, 1], [0, 0, 0], 1.0, 0.5, 3.0)
