"""Two-sided shooting: close the metric over [0, T].

Unknowns are the two free germ parameters at each end plus the interval
length T.  Both ends are integrated toward an interior match point theta*T
in their own outward coordinate; the six componentwise differences of
(f, f') there form the match residual.  The conserved first integral makes
one of the six conditions dependent, so five unknowns against six equations
is a well-posed least-squares root find.
"""

import concurrent.futures
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .germs import GermConstructionError, GroupDiagram, series_solve
from .integrator import Trajectory, drift_report, integrate_germ

__all__ = [
    "ShootingProblem",
    "SolutionReport",
    "AdmissibilityError",
    "NonConvergence",
    "match_residual",
    "solve",
    "scan",
    "detect_equal_pairs",
]

_PENALTY = 1e3
# (f, f') under t -> T - t
_MIRROR = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])


class AdmissibilityError(ValueError):
    pass


class NonConvergence(RuntimeError):
    def __init__(self, msg, best_u=None, best_norm=None):
        super().__init__(msg)
        self.best_u = best_u
        self.best_norm = best_norm


@dataclass(frozen=True)
class ShootingProblem:
    diagram: GroupDiagram
    lam: float = 3.0
    theta: float = 0.5
    germ_order: int = 8
    rtol: float = 1e-11
    atol: float = 1e-13
    defect_target: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("match fraction theta must be in (0, 1)")
        n_unknowns = len(self.diagram.left.free) + len(self.diagram.right.free) + 1
        # 6 match conditions, one made dependent by the first integral
        if n_unknowns != 5:
            raise ValueError(
                f"unknown count {n_unknowns} does not close the 6-condition match"
            )

    @property
    def unknown_names(self):
        return (tuple(f"L.{n}" for n in self.diagram.left.free)
                + tuple(f"R.{n}" for n in self.diagram.right.free) + ("T",))

    def split(self, u):
        u = np.asarray(u, dtype=float)
        nl = len(self.diagram.left.free)
        nr = len(self.diagram.right.free)
        if u.shape != (nl + nr + 1,):
            raise ValueError(f"unknown vector must have length {nl + nr + 1}")
        left = dict(zip(self.diagram.left.free, u[:nl]))
        right = dict(zip(self.diagram.right.free, u[nl:nl + nr]))
        return left, right, float(u[-1])

    def check_admissible(self, u):
        left, right, T = self.split(u)
        if not np.all(np.isfinite(u)):
            raise AdmissibilityError("non-finite unknown vector")
        if T <= 0.0:
            raise AdmissibilityError(f"interval length T = {T} must be positive")
        for side, vals in (("left", left), ("right", right)):
            for name in ("h", "q"):
                if name in vals and vals[name] <= 0.0:
                    raise AdmissibilityError(
                        f"{side} germ parameter {name} = {vals[name]} must be positive"
                    )


@dataclass
class SolutionReport:
    problem: ShootingProblem
    u: np.ndarray
    T: float
    converged: bool
    residual: np.ndarray
    residual_norm: float
    n_iter: int
    jacobian_rank: int
    trajectory: Optional[Trajectory]
    left_free: dict
    right_free: dict
    drift: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    @property
    def diagram(self):
        return self.problem.diagram

    @property
    def lam(self):
        return self.problem.lam


def _legs(pr: ShootingProblem, u):
    left, right, T = pr.split(u)
    gl = series_solve(pr.diagram.left, left, pr.lam, order=pr.germ_order)
    gr = series_solve(pr.diagram.right, right, pr.lam, order=pr.germ_order)
    tl = pr.theta * T
    tr = (1.0 - pr.theta) * T
    kw = dict(rtol=pr.rtol, atol=pr.atol, defect_target=pr.defect_target)
    trl = integrate_germ(gl, tl, **kw)
    trr = integrate_germ(gr, tr, **kw)
    return gl, gr, trl, trr, tl, tr


def match_residual(pr: ShootingProblem, u):
    """Six differences of (f, f') where the two outward integrations meet.

    Integration events (collapse, blowup) before the match point yield a
    finite penalty residual proportional to the shortfall, so scans remain
    total functions of the unknowns.
    """
    try:
        pr.check_admissible(u)
        _, _, trl, trr, tl, tr = _legs(pr, u)
    except (AdmissibilityError, GermConstructionError, ValueError):
        return np.full(6, _PENALTY)
    res = np.empty(6)
    short = 0.0
    for traj, t_need in ((trl, tl), (trr, tr)):
        if traj.reason != "reached_target":
            short += (t_need - traj.t_end) / max(t_need, 1e-300)
    if short > 0.0:
        return np.full(6, _PENALTY * (1.0 + short))
    fl, dfl = trl.eval(tl)
    fr, dfr = trr.eval(tr)
    res[:3] = fl[0] - fr[0]
    res[3:] = dfl[0] + dfr[0]  # opposite orientations
    return res


def _assemble(pr: ShootingProblem, u):
    """Full-interval trajectory in global time t in [0, T] from the two legs."""
    left, right, T = pr.split(u)
    gl = series_solve(pr.diagram.left, left, pr.lam, order=pr.germ_order)
    gr = series_solve(pr.diagram.right, right, pr.lam, order=pr.germ_order)
    kw = dict(rtol=pr.rtol, atol=pr.atol, defect_target=pr.defect_target)
    trl = integrate_germ(gl, pr.theta * T, **kw)
    trr = integrate_germ(gr, (1.0 - pr.theta) * T, **kw)
    if trl.reason != "reached_target" or trr.reason != "reached_target":
        raise NonConvergence("leg integration terminated before the match point")
    # right leg: global t = T - s, orientation flips df and so f' in the
    # slopes; f'' is even in df, so the stored slopes stay exact
    keep = trr.t < (1.0 - pr.theta) * T - 1e-12
    t = np.concatenate([trl.t, (T - trr.t[keep])[::-1]])
    y = np.concatenate([trl.y, trr.y[keep][::-1] * _MIRROR])
    dy = np.concatenate([trl.dy, trr.dy[keep][::-1] * -_MIRROR])
    return Trajectory(t, y, dy, pr.lam, "reached_target",
                      trl.n_accepted + trr.n_accepted,
                      trl.n_rejected + trr.n_rejected), gl, gr


def solve(pr: ShootingProblem, guess, max_iter=40, tol=1e-9, fd_step=1e-7,
          verbose=False) -> SolutionReport:
    """Damped Gauss-Newton on the match residual with a forward-difference
    Jacobian.  Raises NonConvergence with the best iterate on failure."""
    u = np.asarray(guess, dtype=float).copy()
    pr.check_admissible(u)
    r = match_residual(pr, u)
    norm = np.max(np.abs(r))

    def jacobian(u, r):
        J = np.empty((6, len(u)))
        for i in range(len(u)):
            h = fd_step * (1.0 + abs(u[i]))
            up = u.copy()
            up[i] += h
            J[:, i] = (match_residual(pr, up) - r) / h
        return J

    n_iter = 0
    while not norm < tol:  # a NaN norm must not pass as converged
        if n_iter == max_iter:
            raise NonConvergence(
                f"no convergence in {max_iter} iterations, "
                f"|residual| = {norm:.3e}", u, norm)
        J = jacobian(u, r)
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        lam_damp = 1.0
        for _ in range(12):
            u_try = u + lam_damp * step
            r_try = match_residual(pr, u_try)
            n_try = np.max(np.abs(r_try))
            if n_try < norm:
                u, r, norm = u_try, r_try, n_try
                break
            lam_damp *= 0.5
        else:
            raise NonConvergence(
                f"line search stalled at |residual| = {norm:.3e}", u, norm)
        if verbose:
            print(f"  iter {n_iter:2d}  |residual| = {norm:.3e}")
        n_iter += 1
    J = jacobian(u, r)
    rank = int(np.linalg.matrix_rank(J, tol=1e-8 * max(1.0, np.abs(J).max())))
    left, right, T = pr.split(u)
    traj, _, _ = _assemble(pr, u)
    report = SolutionReport(
        problem=pr, u=u, T=T, converged=True, residual=r,
        residual_norm=float(norm), n_iter=n_iter, jacobian_rank=int(rank),
        trajectory=traj, left_free=left, right_free=right,
    )
    report.drift = drift_report(traj)
    return report


def scan(pr: ShootingProblem, grid, jobs=1):
    """Residual map over an iterable of unknown vectors; order-preserving."""
    grid = [np.asarray(u, dtype=float) for u in grid]
    if not grid:
        return []

    def one(u):
        return u, float(np.max(np.abs(match_residual(pr, u))))

    if jobs <= 1:
        return [one(u) for u in grid]
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(one, grid))


def detect_equal_pairs(sr: SolutionReport, tol=1e-6):
    """Index pairs (1-based) whose profiles coincide in sup log-ratio norm."""
    f = sr.trajectory.f
    out = set()
    for i, j in ((0, 1), (1, 2), (2, 0)):
        if np.max(np.abs(np.log(f[:, i] / f[:, j]))) < tol:
            out.add((i + 1, j + 1))
    return out
