"""Two-sided shooting: close the metric over [0, T].

Unknowns are the two free germ parameters at each end plus the interval
length T.  Both ends are integrated toward an interior match point theta*T
in their own outward coordinate; the six componentwise differences of
(f, f') there form the match residual.  The conserved first integral makes
one of the six conditions dependent, so five unknowns against six equations
is a well-posed least-squares root find.
"""

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .germs import GermConstructionError, GroupDiagram, series_solve
from .integrator import HandoffError, Trajectory, check_tolerances, drift_report, integrate_germ

__all__ = [
    "ShootingProblem",
    "SolutionReport",
    "Shot",
    "AdmissibilityError",
    "NonConvergence",
    "shoot",
    "match_residual",
    "solve",
    "scan",
    "detect_equal_pairs",
]

_log = logging.getLogger("c1einstein")

_PENALTY = 1e3
# blow-up ceiling on |f| in the lambda = 3 gauge: solved profiles stay below
# 4.1, and an su2_s4 scan-box leg past 10 is within 8e-4 in t of |f| = 1e6
_BLOWUP = 10.0
_FD_STEP = 1e-7
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

    def __post_init__(self):
        if not np.isfinite(self.lam):
            raise ValueError(f"Einstein constant must be finite, got lam = {self.lam}")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("match fraction theta must be in (0, 1)")
        check_tolerances(self.rtol, self.atol)
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
        return left, right, T


@dataclass(frozen=True)
class Shot:
    """One evaluation of the unknowns: the (left, right) germs and legs, the
    (left, right) match distances and the six match differences.  Germs,
    legs and distances are empty when the unknowns were rejected before
    integration.

    ``failure`` is None for a shot whose legs both reached the match point;
    otherwise it says why the residual is the penalty: "inadmissible",
    "germ" (the series or its hand-off offset could not be built),
    "handoff" (the hand-off offset is not below the match distance), or the
    stop reason of the first leg that fell short ("collapse_event",
    "blowup_event", "step_failure").

    ``sides`` is the side cache the shot read and filled, which a shot
    built with this one as ``base`` shares (see ``shoot``)."""

    germs: tuple
    legs: tuple
    residual: np.ndarray
    reach: tuple = ()
    failure: Optional[str] = None
    sides: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass
class SolutionReport:
    problem: ShootingProblem
    u: np.ndarray
    T: float
    converged: bool
    residual_norm: float
    n_iter: int
    jacobian_rank: int
    trajectory: Optional[Trajectory]
    left_free: dict
    right_free: dict
    germs: tuple  # (left, right) series germs of the solution
    drift: dict

    @property
    def diagram(self):
        return self.problem.diagram

    @property
    def lam(self):
        return self.problem.lam


def shoot(pr: ShootingProblem, u, base: Optional[Shot] = None) -> Shot:
    """Build both germs, integrate both legs outward to the match point and
    take the six differences of (f, f') there.

    Integration events (collapse, blowup) before the match point yield a
    finite penalty residual proportional to the shortfall, so scans remain
    total functions of the unknowns; ``Shot.failure`` names the cause.  For
    lam > 0 a leg stops as a blowup once |f| passes ``_BLOWUP`` scaled from
    the lambda = 3 gauge, since f -> s f, t -> s t, lam -> lam / s^2 maps
    solutions to solutions.  A malformed unknown vector raises ValueError.

    A side, the germ and leg of one end, depends only on the problem, that
    end's condition, free values and match distance.  Each side is looked
    up in a side cache (see ``_side``): base's, when ``base`` is given, and
    a new one otherwise.  So a mirror shot (equal ends, free values and
    match distances) builds one side for both, a column of base's Jacobian
    takes base's unchanged side, and a T column continues base's legs.  The
    shot is the same, bit for bit, as one built side by side.
    """
    sides = {} if base is None else base.sides
    failures = {AdmissibilityError: "inadmissible", GermConstructionError: "germ",
                HandoffError: "handoff"}
    try:
        left, right, T = pr.check_admissible(u)
        reach = (pr.theta * T, (1.0 - pr.theta) * T)
        germs, legs = zip(*(_side(pr, sides, end, free, r) for end, free, r in
                            zip((pr.diagram.left, pr.diagram.right), (left, right), reach)))
    except tuple(failures) as exc:
        return Shot((), (), np.full(6, _PENALTY), failure=failures[type(exc)], sides=sides)
    short = 0.0
    failure = None
    for traj, t_need in zip(legs, reach):
        if traj.reason != "reached_target":
            short += (t_need - traj.t_end) / max(t_need, 1e-300)
            failure = failure or traj.reason
    if failure is not None:
        return Shot(germs, legs, np.full(6, _PENALTY * (1.0 + short)), reach, failure, sides)
    fl, dfl = legs[0].eval(reach[0])
    fr, dfr = legs[1].eval(reach[1])
    res = np.empty(6)
    res[:3] = fl[0] - fr[0]
    res[3:] = dfl[0] + dfr[0]  # opposite orientations
    return Shot(germs, legs, res, reach, sides=sides)


def _side(pr, sides, end, free, reach):
    """The germ and leg of one end from the side cache ``sides``, which maps
    (problem, end condition, free values) to the germ and its legs by match
    distance: a leg of the same distance is taken as it is, one of a shorter
    distance is continued, and whatever is built is stored."""
    # tobytes, not ==: a germ built from -0.0 may differ from one built from 0.0
    key = (pr, end, np.array(list(free.values())).tobytes())
    if key not in sides:
        sides[key] = (series_solve(end, free, pr.lam, order=pr.germ_order), {})
    germ, legs = sides[key]
    if reach not in legs:
        kw = dict(rtol=pr.rtol, atol=pr.atol)
        if pr.lam > 0.0:
            kw["blowup_ceiling"] = _BLOWUP * math.sqrt(3.0 / pr.lam)
        shorter = [r for r in legs if r < reach]
        legs[reach] = integrate_germ(germ, reach, **kw,
                                     leg=legs[max(shorter)] if shorter else None)
    return germ, legs[reach]


def match_residual(pr: ShootingProblem, u, base: Optional[Shot] = None):
    """Six differences of (f, f') where the two outward integrations meet;
    with ``base``, the sides are looked up in base's side cache as in
    ``shoot``, and the ones built are added to it."""
    return shoot(pr, u, base).residual


def _assemble(pr: ShootingProblem, T, shot: Shot):
    """Full-interval trajectory in global time t in [0, T] from the legs."""
    if [leg.reason for leg in shot.legs] != ["reached_target"] * 2:
        raise NonConvergence("leg integration terminated before the match point")
    trl, trr = shot.legs
    # right leg: global t = T - s, orientation flips df and so f' in the
    # slopes; f'' is even in df, so the stored slopes stay exact
    keep = trr.t < shot.reach[1] - 1e-12
    t = np.concatenate([trl.t, (T - trr.t[keep])[::-1]])
    y = np.concatenate([trl.y, trr.y[keep][::-1] * _MIRROR])
    dy = np.concatenate([trl.dy, trr.dy[keep][::-1] * -_MIRROR])
    return Trajectory(t, y, dy, pr.lam, "reached_target",
                      trl.n_rejected + trr.n_rejected)


def solve(pr: ShootingProblem, guess, max_iter=40, tol=1e-9) -> SolutionReport:
    """Damped Gauss-Newton on the match residual with a forward-difference
    Jacobian.  Raises NonConvergence with the best iterate on failure.
    Logs each step's residual norm to the "c1einstein" logger at DEBUG."""
    if max_iter < 0:
        raise ValueError(f"max_iter must be at least 0, got {max_iter}")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got tol = {tol}")
    u = np.asarray(guess, dtype=float).copy()
    pr.check_admissible(u)
    shot = shoot(pr, u)
    norm = np.max(np.abs(shot.residual))

    def jacobian(u, shot):
        # each column moves one unknown and shares the base shot's side
        # cache, so it builds only the side that unknown feeds: a germ
        # parameter one germ and leg (none on a mirror diagram's right end,
        # whose side the left column built), T continues the legs
        J = np.empty((6, len(u)))
        for i in range(len(u)):
            h = _FD_STEP * (1.0 + abs(u[i]))
            up = u.copy()
            up[i] += h
            J[:, i] = (match_residual(pr, up, base=shot) - shot.residual) / h
        return J

    n_iter = 0
    while not norm < tol:  # a NaN norm must not pass as converged
        if n_iter == max_iter:
            raise NonConvergence(
                f"no convergence in {max_iter} iterations, "
                f"|residual| = {norm:.3e}", u, norm)
        J = jacobian(u, shot)
        step, *_ = np.linalg.lstsq(J, -shot.residual, rcond=None)
        lam_damp = 1.0
        for _ in range(12):
            u_try = u + lam_damp * step
            shot_try = shoot(pr, u_try)
            n_try = np.max(np.abs(shot_try.residual))
            if n_try < norm:
                u, shot, norm = u_try, shot_try, n_try
                break
            lam_damp *= 0.5
        else:
            why = f" (shot failure: {shot.failure})" if shot.failure else ""
            raise NonConvergence(
                f"line search stalled at |residual| = {norm:.3e}{why}", u, norm)
        _log.debug("iter %2d  |residual| = %.3e", n_iter, norm)
        n_iter += 1
    J = jacobian(u, shot)
    rank = int(np.linalg.matrix_rank(J, tol=1e-8 * max(1.0, np.abs(J).max())))
    left, right, T = pr.split(u)
    traj = _assemble(pr, T, shot)
    return SolutionReport(
        problem=pr, u=u, T=T, converged=True,
        residual_norm=float(norm), n_iter=n_iter, jacobian_rank=int(rank),
        trajectory=traj, left_free=left, right_free=right, germs=shot.germs,
        drift=drift_report(traj),
    )


def scan(pr: ShootingProblem, grid, jobs=1):
    """Residual map over an iterable of unknown vectors, in input order.
    The points are shot in ascending T with one side cache, so each distinct
    germ is built once and each leg is continued to longer match distances;
    every norm is a fresh shot's, bit for bit.  ``jobs`` must be 1: the
    keyword goes when the benchmark stops passing it."""
    if jobs != 1:
        raise ValueError(f"scan runs on one thread, got jobs = {jobs}")
    grid = [np.asarray(u, dtype=float) for u in grid]
    anchor = Shot((), (), np.empty(0))  # an empty shot: every point shares its side cache
    norms = {i: float(np.max(np.abs(match_residual(pr, grid[i], base=anchor))))
             for i in sorted(range(len(grid)), key=lambda i: pr.split(grid[i])[2])}
    return [(u, norms[i]) for i, u in enumerate(grid)]


def detect_equal_pairs(sr: SolutionReport, tol=1e-6):
    """Index pairs (1-based) whose profiles coincide in sup log-ratio norm."""
    f = sr.trajectory.f
    out = set()
    for i, j in ((0, 1), (1, 2), (2, 0)):
        if np.max(np.abs(np.log(f[:, i] / f[:, j]))) < tol:
            out.add((i + 1, j + 1))
    return out
