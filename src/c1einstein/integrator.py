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

# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# II.5): the stage rows, the 5th-order weights and the error weights b5 - b4
_A = ((1 / 5,),
      (3 / 40, 9 / 40),
      (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_ERR = tuple(b5 - b4 for b5, b4 in zip((*_B5, 0.0), (
    5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)))

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
    return [*core.frame_slope(*map(float, y), lam)]


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

    The state, stages, time, step size and error norm are Python floats, and
    each tableau sum is written out, its terms added left to right in stage
    order, so a leg has the same bits on every CPU.  Each stage calls
    ``core.frame_slope`` on six floats, looked up once per call."""
    if t_target <= t0:
        raise ValueError("t_target must exceed t0")
    check_tolerances(rtol, atol)
    y = [*map(float, f0), *map(float, df0)]
    if not all(map(math.isfinite, y)):
        raise ValueError(f"the start (f0, df0) must be finite, got {y}")
    rhs = core.frame_slope
    if leg is None:
        ts, ys, dys = [float(t0)], [y], [rhs(*y, lam)]
        # initial step from the slope scale
        h = float(1e-3 * (1 + np.max(np.abs(y))) / (1 + np.max(np.abs(dys[0]))))
        err_prev, n_rej = 1.0, 0
    elif leg.resume is None:
        return leg  # it never read its target
    else:
        n, h, err_prev, n_rej = leg.resume
        ts, ys, dys = leg.t[:n].tolist(), leg.y[:n].tolist(), leg.dy[:n].tolist()
    t, y = ts[-1], ys[-1]
    k1 = dys[-1]  # FSAL: the last accepted slope is every attempt's first stage
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = _A
    b1, _, b3, b4, b5, b6 = _B5
    e1, _, e3, e4, e5, e6, e7 = _ERR
    resume, reason = None, "step_failure"
    while len(ts) - 1 + n_rej < _MAX_STEPS:
        if resume is None and t_target - t < h:
            resume = (len(ts), h, err_prev, n_rej)
        h = min(h, t_target - t)
        try:
            z = [a + h * (a21 * p) for a, p in zip(y, k1)]
            k2 = rhs(*z, lam)
            z = [a + h * (a31 * p + a32 * q) for a, p, q in zip(y, k1, k2)]
            k3 = rhs(*z, lam)
            z = [a + h * (a41 * p + a42 * q + a43 * r) for a, p, q, r in zip(y, k1, k2, k3)]
            k4 = rhs(*z, lam)
            z = [a + h * (a51 * p + a52 * q + a53 * r + a54 * s)
                 for a, p, q, r, s in zip(y, k1, k2, k3, k4)]
            k5 = rhs(*z, lam)
            z = [a + h * (a61 * p + a62 * q + a63 * r + a64 * s + a65 * v)
                 for a, p, q, r, s, v in zip(y, k1, k2, k3, k4, k5)]
            k6 = rhs(*z, lam)
            y5 = [a + h * (b1 * p + b3 * r + b4 * s + b5 * v + b6 * w)
                  for a, p, r, s, v, w in zip(y, k1, k3, k4, k5, k6)]
            k7 = rhs(*y5, lam)
        except core.NonPositiveProfile:
            err = None  # stepped over a collapse: rejected, retried at h / 4
        else:
            # numpy's norm in its order; y5[i] is NaN where y[i] is, as np.maximum needs
            err = 0.0
            for p, r, s, v, w, x, a, b in zip(k1, k3, k4, k5, k6, k7, map(abs, y), map(abs, y5)):
                d = (h * (e1 * p + e3 * r + e4 * s + e5 * v + e6 * w + e7 * x)
                     / (atol + rtol * (a if a > b else b)))
                err += d * d
            err = math.sqrt(err / 6)
        if err is not None and err <= 1.0:
            t, y, k1 = t + h, y5, k7
            ts.append(t)
            ys.append(y)
            dys.append(k1)
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
            if not h >= 1e-14 * max(1.0, abs(t)):  # NaN too, from a non-finite slope
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
