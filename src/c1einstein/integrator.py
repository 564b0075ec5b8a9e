"""Adaptive Runge-Kutta integration of the frame system.

The state vector is y = (f1, f2, f3, f1', f2', f3').  Steps are taken with
the Dormand-Prince 5(4) embedded pair under PI step-size control; accepted
steps keep endpoint values and slopes so trajectories can be re-evaluated
anywhere by cubic Hermite interpolation.  Integration stops at the target
time, at a collapse event (some f_i falls to the floor), at a blowup event
(some f_i exceeds the ceiling), or on step-size failure.
"""

from dataclasses import dataclass

import numpy as np

from . import core

__all__ = ["Trajectory", "integrate", "integrate_frame", "integrate_germ", "drift_report"]

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array([
    [0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
])
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_ERR = _B5 - _B4


class StepFailure(RuntimeError):
    pass


@dataclass
class Trajectory:
    """Accepted-step record of one integration run."""

    t: np.ndarray   # (n,) sample times, increasing
    y: np.ndarray   # (n, 6) states
    dy: np.ndarray  # (n, 6) slopes at the samples
    lam: float
    reason: str     # reached_target | collapse_event | blowup_event | step_failure
    n_accepted: int
    n_rejected: int

    @property
    def t_end(self):
        return float(self.t[-1])

    @property
    def f(self):
        return self.y[:, :3]

    @property
    def df(self):
        return self.y[:, 3:]

    def eval(self, ts):
        """Cubic Hermite evaluation of (f, df) at arbitrary times in range."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if np.any(ts < self.t[0] - 1e-12) or np.any(ts > self.t[-1] + 1e-12):
            raise ValueError("evaluation time outside the integrated range")
        ts = np.clip(ts, self.t[0], self.t[-1])
        idx = np.clip(np.searchsorted(self.t, ts, side="right") - 1, 0, len(self.t) - 2)
        t0, t1 = self.t[idx], self.t[idx + 1]
        dt = np.where(t1 > t0, t1 - t0, 1.0)
        h = dt[:, None]
        s = ((ts - t0) / dt)[:, None]
        y0, y1 = self.y[idx], self.y[idx + 1]
        m0, m1 = self.dy[idx] * h, self.dy[idx + 1] * h
        h00 = 2 * s**3 - 3 * s**2 + 1
        h10 = s**3 - 2 * s**2 + s
        h01 = -2 * s**3 + 3 * s**2
        h11 = s**3 - s**2
        y = h00 * y0 + h10 * m0 + h01 * y1 + h11 * m1
        return y[:, :3], y[:, 3:]

    def diagnostics(self, ts=None):
        """Per-sample geometric quantities; defaults to the accepted steps."""
        if ts is None:
            ts = self.t
            f, df = self.f, self.df
        else:
            ts = np.atleast_1d(np.asarray(ts, dtype=float))
            f, df = self.eval(ts)
        L, R, _ = core.lr_from_frame(f, df)
        A, B = core.ab_coeffs(L, R)
        a, b = core.curv_eigs(R, A, B)
        return {"t": np.asarray(ts, dtype=float), "f": f, "df": df,
                "L": L, "R": R, "A": A, "B": B, "a": a, "b": b,
                "constraint": core.constraint_residual(L, R, self.lam)}


def rhs_vector(y, lam):
    """First-order right-hand side for the packed state (f, f')."""
    f, df = y[:3], y[3:]
    return np.concatenate([df, core.frame_rhs(f, df, lam)])


_rhs = rhs_vector


def _hermite_root(t0, t1, y0, y1, d0, d1, test, tol=1e-13):
    """Bisect the Hermite interpolant for the first time where test() flips."""
    h = t1 - t0
    if h <= 0.0:
        return t1, y1

    def val(t):
        s = (t - t0) / h
        h00 = 2 * s**3 - 3 * s**2 + 1
        h10 = s**3 - 2 * s**2 + s
        h01 = -2 * s**3 + 3 * s**2
        h11 = s**3 - s**2
        return h00 * y0 + h10 * d0 * h + h01 * y1 + h11 * d1 * h

    lo, hi = t0, t1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if test(val(mid)):
            hi = mid
        else:
            lo = mid
        if hi - lo < tol * max(1.0, abs(t1)):
            break
    return hi, val(hi)


def integrate_frame(f0, df0, t0, t_target, lam, rtol=1e-10, atol=1e-12,
                    collapse_floor=1e-8, blowup_ceiling=1e6,
                    max_steps=100000) -> Trajectory:
    """Integrate the frame system forward from (f0, df0) at t0 to t_target."""
    if t_target <= t0:
        raise ValueError("t_target must exceed t0")
    y = np.concatenate([np.asarray(f0, dtype=float), np.asarray(df0, dtype=float)])
    t = t0
    k7 = _rhs(y, lam)  # FSAL slot
    ts, ys, dys = [t], [y.copy()], [k7.copy()]
    # initial step from the slope scale
    h = min(1e-3 * (1 + np.max(np.abs(y))) / (1 + np.max(np.abs(k7))), t_target - t0)
    err_prev = 1.0
    n_acc = n_rej = 0
    reason = "step_failure"
    K = np.empty((7, 6))
    while n_acc + n_rej < max_steps:
        h = min(h, t_target - t)
        K[0] = k7
        try:
            for i in range(1, 6):
                K[i] = _rhs(y + h * (_A[i, :i] @ K[:i]), lam)
            y5 = y + h * (_B5[:6] @ K[:6])
            K[6] = _rhs(y5, lam)
        except (ValueError, FloatingPointError):
            # stepped over a collapse; retry shorter
            n_rej += 1
            h *= 0.25
            if h < 1e-14 * max(1.0, abs(t)):
                break
            continue
        err_vec = h * (_ERR @ K)
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = np.sqrt(np.add.reduce((err_vec / sc) ** 2) / 6)
        if err <= 1.0:
            t_new = t + h
            k_new = K[6]
            f5 = y5[:3].tolist()
            collapsed = min(f5) <= collapse_floor
            blown = max(map(abs, f5)) >= blowup_ceiling
            if collapsed or blown:
                if collapsed:
                    flip = lambda v: np.min(v[:3]) <= collapse_floor
                    reason = "collapse_event"
                else:
                    flip = lambda v: np.max(np.abs(v[:3])) >= blowup_ceiling
                    reason = "blowup_event"
                t_ev, y_ev = _hermite_root(t, t_new, y, y5, K[0], k_new, flip)
                if t_ev > ts[-1] + 1e-15 * (1.0 + abs(t_ev)):
                    ts.append(t_ev)
                    ys.append(y_ev)
                    dys.append(_rhs(y_ev, lam) if np.min(y_ev[:3]) > 0 else k_new)
                    n_acc += 1
                break
            t, y, k7 = t_new, y5, k_new
            ts.append(t)
            ys.append(y)  # y5 is a fresh array each step
            dys.append(k7.copy())
            n_acc += 1
            if t >= t_target - 1e-14 * max(1.0, abs(t_target)):
                reason = "reached_target"
                break
            # PI controller
            fac = 0.9 * err ** -0.14 * err_prev ** 0.08
            err_prev = max(err, 1e-10)
            h *= min(5.0, max(0.2, fac))
        else:
            n_rej += 1
            h *= min(1.0, max(0.2, 0.9 * err ** -0.2))
            if h < 1e-14 * max(1.0, abs(t)):
                break
    return Trajectory(np.array(ts), np.array(ys), np.array(dys), lam,
                      reason, n_acc, n_rej)


def integrate_germ(germ, t_target, eps=None, defect_target=1e-12, **kw) -> Trajectory:
    """Integrate away from a singular orbit, handing off from the Taylor germ
    at an offset where its equation defect is below defect_target."""
    from .germs import germ_start_offset

    if eps is None:
        eps = germ_start_offset(germ, target=defect_target)
    f0, df0 = germ.eval(eps)
    return integrate_frame(f0, df0, eps, t_target, germ.lam, **kw)


def integrate(state, direction, t_target, lam, **kw) -> Trajectory:
    """Direction-aware wrapper around integrate_frame.

    direction=-1 integrates toward decreasing t; the returned trajectory is
    given in mirrored time s = t0 - t so that its own time axis increases.
    """
    f0 = np.asarray(state.f, dtype=float)
    df0 = np.asarray(state.df, dtype=float)
    if direction == 1:
        return integrate_frame(f0, df0, state.t, t_target, lam, **kw)
    if direction == -1:
        # the system is invariant under t -> -t with df -> -df
        return integrate_frame(f0, -df0, 0.0, state.t - t_target, lam, **kw)
    raise ValueError("direction must be +1 or -1")


def drift_report(traj: Trajectory):
    """Maximum drift of the conserved quantities over the samples:
    the first-integral constraint and the two curvature trace identities
    sum a_i = lambda, sum b_i = lambda."""
    if len(traj.t) == 0:
        raise ValueError("empty trajectory")
    d = traj.diagnostics()
    return {
        "max_constraint": float(np.max(np.abs(d["constraint"]))),
        "max_trace_a": float(np.max(np.abs(np.sum(d["a"], axis=1) - traj.lam))),
        "max_trace_b": float(np.max(np.abs(np.sum(d["b"], axis=1) - traj.lam))),
        "n_accepted": traj.n_accepted,
        "n_rejected": traj.n_rejected,
    }
