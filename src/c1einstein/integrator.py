"""Adaptive Runge-Kutta integration of the frame system.

The state vector is y = (f1, f2, f3, f1', f2', f3').  Steps are taken with
the Dormand-Prince 5(4) embedded pair under PI step-size control; accepted
steps keep endpoint values and slopes so trajectories can be re-evaluated
anywhere by cubic Hermite interpolation.  Integration stops at the target
time, at a collapse event (some f_i falls to the floor), at a blowup event
(some f_i exceeds the ceiling), or on step-size failure.  An event ends the
leg at the accepted step that crossed the floor or ceiling: that step is
kept as the last sample, and the crossing time is not refined further.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import core

__all__ = ["Trajectory", "HandoffError", "check_tolerances", "integrate_frame",
           "integrate_germ", "drift_report"]

# Dormand-Prince 5(4) tableau
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

# a leg stops as a collapse at the first accepted step with some f_i at or
# below _COLLAPSE_FLOOR, and gives up as a step failure after _MAX_STEPS
# accepted and rejected steps
_COLLAPSE_FLOOR = 1e-8
_MAX_STEPS = 100000


@dataclass(frozen=True)
class Trajectory:
    """Accepted-step record of one integration run; read-only, so shots share legs."""

    t: np.ndarray   # (n,) sample times, increasing
    y: np.ndarray   # (n, 6) states
    dy: np.ndarray  # (n, 6) slopes at the samples
    lam: float
    reason: str     # reached_target | collapse_event | blowup_event | step_failure
    n_rejected: int
    # loop state (samples kept, h, err_prev, n_rejected) at the first step
    # that read the target, from which integrate_frame continues the leg
    resume: Optional[tuple] = None

    def __post_init__(self):
        for a in (self.t, self.y, self.dy):
            a.flags.writeable = False

    @property
    def n_accepted(self):
        """Accepted steps up to t_end, a continued leg's prefix included."""
        return len(self.t) - 1

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

    def diagnostics(self):
        """Geometric quantities at the accepted steps."""
        f, df = self.f, self.df
        L, R, A, B, a, b = core.frame_curvature(f, df)
        return {"t": self.t, "f": f, "df": df,
                "L": L, "R": R, "A": A, "B": B, "a": a, "b": b,
                "constraint": core.constraint_residual(L, R, self.lam)}


def rhs_vector(y, lam):
    """First-order right-hand side for the packed state (f, f'), as a list."""
    return [*y[3:], *core.frame_rhs(y[:3], y[3:], lam).tolist()]


def check_tolerances(rtol, atol):
    """ValueError unless rtol >= 0 and atol > 0 are finite: the step error
    norm divides by atol + rtol |y|, which is 0 where y is 0 unless atol > 0."""
    if not (0.0 <= rtol < np.inf and 0.0 < atol < np.inf):
        raise ValueError("tolerances must be finite with rtol >= 0 and atol > 0, "
                         f"got rtol = {rtol}, atol = {atol}")


def integrate_frame(f0, df0, t0, t_target, lam, rtol=1e-10, atol=1e-12,
                    blowup_ceiling=1e6, leg=None) -> Trajectory:
    """Integrate the frame system forward from (f0, df0) at t0 to t_target,
    or continue ``leg``, a run of the same start and options to an earlier
    target, from ``leg.resume``: no sample before it depends on the target, so
    the result is a fresh run's, bit for bit.

    The state, time, step size and error norm are Python floats, but each
    tableau sum stays one ``np.dot`` on views of the (7, 6) stage array made
    once per call: OpenBLAS's gemv kernel rounds otherwise than a Python
    sum.  ``core.frame_rhs`` is looked up once per call, and each stage
    packs its slope inline as ``rhs_vector`` does."""
    if t_target <= t0:
        raise ValueError("t_target must exceed t0")
    check_tolerances(rtol, atol)
    rhs = core.frame_rhs
    if leg is None:
        y = [*map(float, f0), *map(float, df0)]
        ts, ys, dys = [float(t0)], [y], [rhs_vector(y, lam)]
        # initial step from the slope scale
        h = float(1e-3 * (1 + np.max(np.abs(y))) / (1 + np.max(np.abs(dys[0]))))
        err_prev, n_rej = 1.0, 0
    elif leg.resume is None:
        return leg  # it never read its target
    else:
        n, h, err_prev, n_rej = leg.resume
        ts, ys, dys = leg.t[:n].tolist(), leg.y[:n].tolist(), leg.dy[:n].tolist()
    t, y = ts[-1], ys[-1]
    resume = None
    reason = "step_failure"
    K = np.empty((7, 6))
    K[0] = dys[-1]  # FSAL: the last accepted slope is every attempt's first stage
    stages = [(_A[i, :i], K[:i]) for i in range(1, 6)]
    b5, k6 = _B5[:6], K[:6]
    while len(ts) - 1 + n_rej < _MAX_STEPS:
        if resume is None and t_target - t < h:
            resume = (len(ts), h, err_prev, n_rej)
        h = min(h, t_target - t)
        try:
            for i, (row, prev) in enumerate(stages, 1):
                z = [a + h * b for a, b in zip(y, np.dot(row, prev).tolist())]
                K[i] = [*z[3:], *rhs(z[:3], z[3:], lam).tolist()]
            y5 = [a + h * b for a, b in zip(y, np.dot(b5, k6).tolist())]
            K[6] = k5 = [*y5[3:], *rhs(y5[:3], y5[3:], lam).tolist()]
        except core.NonPositiveProfile:
            err = None  # stepped over a collapse: rejected, retried at h / 4
        else:
            # numpy's norm in its order; y5[i] is NaN where y[i] is, as np.maximum needs
            err = 0.0
            for e, a, b in zip(np.dot(_ERR, K).tolist(), map(abs, y), map(abs, y5)):
                q = h * e / (atol + rtol * (a if a > b else b))
                err += q * q
            err = math.sqrt(err / 6)
        if err is not None and err <= 1.0:
            t, y = t + h, y5
            K[0] = K[6]
            ts.append(t)
            ys.append(y)
            dys.append(k5)
            if min(y[:3]) <= _COLLAPSE_FLOOR:
                reason = "collapse_event"
                break
            if max(map(abs, y[:3])) >= blowup_ceiling:
                reason = "blowup_event"
                break
            if t >= t_target - 1e-14 * max(1.0, abs(t_target)):
                resume = resume or (len(ts) - 1, h, err_prev, n_rej)
                reason = "reached_target"
                break
            # PI controller; an exact step (err = 0, where the power would
            # divide by zero) takes the largest growth
            fac = 0.9 * err ** -0.14 * err_prev ** 0.08 if err > 0.0 else 5.0
            err_prev = max(err, 1e-10)
            h *= min(5.0, max(0.2, fac))
        else:
            n_rej += 1
            h *= 0.25 if err is None else min(1.0, max(0.2, 0.9 * err ** -0.2))
            if h < 1e-14 * max(1.0, abs(t)):
                break
    return Trajectory(np.array(ts), np.array(ys), np.array(dys), lam,
                      reason, n_rej, resume)


class HandoffError(ValueError):
    """The germ hand-off offset is not below the leg's target time."""


def integrate_germ(germ, t_target, leg=None, **kw) -> Trajectory:
    """Integrate away from a singular orbit, handing off from the Taylor germ
    at the offset ``germs.germ_start_offset`` picks, or continue ``leg``, a
    leg of the same germ and options, as ``integrate_frame`` does."""
    # resolved at call time, so a tracer or counter that replaces it is the one called
    from .germs import germ_start_offset

    if leg is not None:
        return integrate_frame(leg.f[0], leg.df[0], leg.t[0], t_target, germ.lam,
                               leg=leg, **kw)
    eps = germ_start_offset(germ)
    if eps >= t_target:
        raise HandoffError(f"germ hand-off offset {eps:.6g} is not below "
                           f"the target {t_target:.6g}")
    f0, df0 = germ.eval(eps)
    return integrate_frame(f0, df0, eps, t_target, germ.lam, **kw)


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
