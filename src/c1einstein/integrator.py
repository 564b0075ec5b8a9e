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

from . import core, germs

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

    The state and each stage are six named Python floats, and each tableau
    sum is written out, its terms added left to right in stage order with no
    list, zip or unpacking per stage, so a leg has the same bits on every CPU.
    Each stage is one call of ``core.frame_slope``, looked up once per call."""
    if t_target <= t0:
        raise ValueError("t_target must exceed t0")
    check_tolerances(rtol, atol)
    y = [*map(float, f0), *map(float, df0)]
    if not all(map(math.isfinite, (*y, t0, t_target))):
        raise ValueError("the start (f0, df0) and the times must be finite, "
                         f"got {y}, t0 = {t0}, t_target = {t_target}")
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
    t = ts[-1]
    t_end = t_target - 1e-14 * max(1.0, abs(t_target))
    y0, y1, y2, y3, y4, y5 = ys[-1]
    p0, p1, p2, p3, p4, p5 = dys[-1]  # FSAL: the last accepted slope is the first stage
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = _A
    b1, _, b3, b4, b5, b6 = _B5
    e1, _, e3, e4, e5, e6, e7 = _ERR
    resume, reason = None, "step_failure"
    while len(ts) - 1 + n_rej < _MAX_STEPS:
        if resume is None and t_target - t < h:
            resume = (len(ts), h, err_prev, n_rej)
        h = min(h, t_target - t)
        try:
            q0, q1, q2, q3, q4, q5 = rhs(
                y0 + h * (a21 * p0), y1 + h * (a21 * p1), y2 + h * (a21 * p2),
                y3 + h * (a21 * p3), y4 + h * (a21 * p4), y5 + h * (a21 * p5), lam)
            r0, r1, r2, r3, r4, r5 = rhs(
                y0 + h * (a31 * p0 + a32 * q0), y1 + h * (a31 * p1 + a32 * q1),
                y2 + h * (a31 * p2 + a32 * q2), y3 + h * (a31 * p3 + a32 * q3),
                y4 + h * (a31 * p4 + a32 * q4), y5 + h * (a31 * p5 + a32 * q5), lam)
            s0, s1, s2, s3, s4, s5 = rhs(
                y0 + h * (a41 * p0 + a42 * q0 + a43 * r0),
                y1 + h * (a41 * p1 + a42 * q1 + a43 * r1),
                y2 + h * (a41 * p2 + a42 * q2 + a43 * r2),
                y3 + h * (a41 * p3 + a42 * q3 + a43 * r3),
                y4 + h * (a41 * p4 + a42 * q4 + a43 * r4),
                y5 + h * (a41 * p5 + a42 * q5 + a43 * r5), lam)
            v0, v1, v2, v3, v4, v5 = rhs(
                y0 + h * (a51 * p0 + a52 * q0 + a53 * r0 + a54 * s0),
                y1 + h * (a51 * p1 + a52 * q1 + a53 * r1 + a54 * s1),
                y2 + h * (a51 * p2 + a52 * q2 + a53 * r2 + a54 * s2),
                y3 + h * (a51 * p3 + a52 * q3 + a53 * r3 + a54 * s3),
                y4 + h * (a51 * p4 + a52 * q4 + a53 * r4 + a54 * s4),
                y5 + h * (a51 * p5 + a52 * q5 + a53 * r5 + a54 * s5), lam)
            w0, w1, w2, w3, w4, w5 = rhs(
                y0 + h * (a61 * p0 + a62 * q0 + a63 * r0 + a64 * s0 + a65 * v0),
                y1 + h * (a61 * p1 + a62 * q1 + a63 * r1 + a64 * s1 + a65 * v1),
                y2 + h * (a61 * p2 + a62 * q2 + a63 * r2 + a64 * s2 + a65 * v2),
                y3 + h * (a61 * p3 + a62 * q3 + a63 * r3 + a64 * s3 + a65 * v3),
                y4 + h * (a61 * p4 + a62 * q4 + a63 * r4 + a64 * s4 + a65 * v4),
                y5 + h * (a61 * p5 + a62 * q5 + a63 * r5 + a64 * s5 + a65 * v5), lam)
            z = z0, z1, z2, z3, z4, z5 = (
                y0 + h * (b1 * p0 + b3 * r0 + b4 * s0 + b5 * v0 + b6 * w0),
                y1 + h * (b1 * p1 + b3 * r1 + b4 * s1 + b5 * v1 + b6 * w1),
                y2 + h * (b1 * p2 + b3 * r2 + b4 * s2 + b5 * v2 + b6 * w2),
                y3 + h * (b1 * p3 + b3 * r3 + b4 * s3 + b5 * v3 + b6 * w3),
                y4 + h * (b1 * p4 + b3 * r4 + b4 * s4 + b5 * v4 + b6 * w4),
                y5 + h * (b1 * p5 + b3 * r5 + b4 * s5 + b5 * v5 + b6 * w5))
            k7 = x0, x1, x2, x3, x4, x5 = rhs(z0, z1, z2, z3, z4, z5, lam)
        except core.NonPositiveProfile:
            err = None  # stepped over a collapse: rejected, retried at h / 4
        else:
            # numpy's norm in its order (0.0 + d0 * d0 is d0 * d0), on a_i = |y_i|
            # and c_i = |z_i|.  A NaN in z makes its bound NaN, as np.maximum does,
            # so that step is rejected and the event tests below see no NaN
            a0, a1, a2, a3, a4, a5 = abs(y0), abs(y1), abs(y2), abs(y3), abs(y4), abs(y5)
            c0, c1, c2, c3, c4, c5 = abs(z0), abs(z1), abs(z2), abs(z3), abs(z4), abs(z5)
            d0 = (h * (e1 * p0 + e3 * r0 + e4 * s0 + e5 * v0 + e6 * w0 + e7 * x0)
                  / (atol + rtol * (a0 if a0 > c0 else c0)))
            d1 = (h * (e1 * p1 + e3 * r1 + e4 * s1 + e5 * v1 + e6 * w1 + e7 * x1)
                  / (atol + rtol * (a1 if a1 > c1 else c1)))
            d2 = (h * (e1 * p2 + e3 * r2 + e4 * s2 + e5 * v2 + e6 * w2 + e7 * x2)
                  / (atol + rtol * (a2 if a2 > c2 else c2)))
            d3 = (h * (e1 * p3 + e3 * r3 + e4 * s3 + e5 * v3 + e6 * w3 + e7 * x3)
                  / (atol + rtol * (a3 if a3 > c3 else c3)))
            d4 = (h * (e1 * p4 + e3 * r4 + e4 * s4 + e5 * v4 + e6 * w4 + e7 * x4)
                  / (atol + rtol * (a4 if a4 > c4 else c4)))
            d5 = (h * (e1 * p5 + e3 * r5 + e4 * s5 + e5 * v5 + e6 * w5 + e7 * x5)
                  / (atol + rtol * (a5 if a5 > c5 else c5)))
            err = math.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3 + d4 * d4 + d5 * d5) / 6)
        if err is not None and err <= 1.0:
            t += h
            y0, y1, y2, y3, y4, y5 = z
            p0, p1, p2, p3, p4, p5 = k7
            ts.append(t)
            ys.append(z)
            dys.append(k7)
            if y0 <= _COLLAPSE_FLOOR or y1 <= _COLLAPSE_FLOOR or y2 <= _COLLAPSE_FLOOR:
                reason = "collapse_event"
                break
            if abs(y0) >= blowup_ceiling or abs(y1) >= blowup_ceiling or abs(y2) >= blowup_ceiling:
                reason = "blowup_event"
                break
            if t >= t_end:
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
    if leg is not None:
        return integrate_frame(leg.f[0], leg.df[0], leg.t[0], t_target, germ.lam,
                               leg=leg, **kw)
    eps = germs.germ_start_offset(germ)
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
