"""Two-sided shooting: close the metric over [0, T].

Unknowns are the two free germ parameters at each end plus the interval
length T.  Both ends are integrated toward an interior match point theta*T
in their own outward coordinate; the six componentwise differences of
(f, f') there form the match residual.  The conserved first integral makes
one of the six conditions dependent, so five unknowns against six equations
is a well-posed least-squares root find.
"""

import functools
import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .germs import GERM_ORDER, GermConstructionError, GroupDiagram, check_germ_order, series_solve
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
    "check_solve_options",
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
    germ_order: int = GERM_ORDER
    rtol: float = 1e-11
    atol: float = 1e-13

    def __post_init__(self):
        if not np.isfinite(self.lam):
            raise ValueError(f"Einstein constant must be finite, got lam = {self.lam}")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("match fraction theta must be in (0, 1)")
        check_tolerances(self.rtol, self.atol)
        check_germ_order(self.germ_order)
        # 6 match conditions, one made dependent by the first integral
        if len(self.unknown_names) != 5:
            raise ValueError(f"unknown count {len(self.unknown_names)} "
                             "does not close the 6-condition match")

    @functools.cached_property
    def layout(self):
        """The unknown vector's layout by end: (end condition, its free values' column
        range) for the left end, then the right; the last column is T."""
        nl = len(self.diagram.left.free)
        return ((self.diagram.left, range(nl)),
                (self.diagram.right, range(nl, nl + len(self.diagram.right.free))))

    @functools.cached_property
    def unknown_names(self):
        return tuple(f"{s}.{n}" for s, (end, _) in zip("LR", self.layout)
                     for n in end.free) + ("T",)

    def split(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (len(self.unknown_names),):
            raise ValueError(f"unknown vector must have length {len(self.unknown_names)}")
        left, right = (dict(zip(end.free, u[cols])) for end, cols in self.layout)
        return left, right, float(u[-1])

    def check_admissible(self, u):
        left, right, T = self.split(u)
        if not np.all(np.isfinite(u)):
            raise AdmissibilityError("non-finite unknown vector")
        if T <= 0.0:
            raise AdmissibilityError(f"interval length T = {T} must be positive")
        for side, (end, _), vals in zip(("left", "right"), self.layout, (left, right)):
            for name in end.lengths:
                if vals[name] <= 0.0:
                    raise AdmissibilityError(f"{side} germ parameter {name} = "
                                             f"{vals[name]} must be positive")
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

    ``sides`` is the side cache the shot read and filled (see ``shoot``); a
    shot of ``solve``'s finds its germs and its Jacobian's column germs
    seeded there (see ``_seeded_shot``)."""

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

    @functools.cached_property
    def curvature(self):
        """The trajectory's ``diagnostics()``, computed on the first read and kept."""
        return self.trajectory.diagnostics()


def shoot(pr: ShootingProblem, u, sides: Optional[dict] = None) -> Shot:
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
    up in the side cache ``sides`` (see ``_side``), a new one when it is
    None, and what is built is added to it.  So a mirror shot (equal ends,
    free values and match distances) builds one side for both, a shot that
    moves one end's free values finds the other side of a shot made from
    the same cache, and a shot at a longer T continues that shot's legs.
    The shot is the same, bit for bit, as one built side by side.
    """
    sides = {} if sides is None else sides
    failures = {AdmissibilityError: "inadmissible", GermConstructionError: "germ",
                HandoffError: "handoff"}
    try:
        left, right, T = pr.check_admissible(u)
        reach = (pr.theta * T, (1.0 - pr.theta) * T)
        germs, legs = zip(*(_side(pr, sides, end, free, r) for (end, _), free, r in
                            zip(pr.layout, (left, right), reach)))
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
    # a reached leg's last sample is its match point; orientations are opposite
    res = legs[0].y[-1] - legs[1].y[-1] * _MIRROR
    return Shot(germs, legs, res, reach, sides=sides)


def _side(pr, sides, end, free, reach):
    """The germ and leg of one end from the side cache ``sides``, which maps
    (problem, end condition, free values) to the germ and its legs by match
    distance: a leg of the same distance is taken as it is, one of a shorter
    distance is continued, and whatever is built is stored."""
    key = _side_key(pr, end, list(free.values()))
    if key not in sides:
        sides[key] = (series_solve(end, free, pr.lam, order=pr.germ_order), {})
    germ, legs = sides[key]
    if reach not in legs:
        shorter = [r for r in legs if r < reach]
        legs[reach] = integrate_germ(germ, reach, **_leg_options(pr),
                                     leg=legs[max(shorter)] if shorter else None)
    return germ, legs[reach]


def _side_key(pr, end, values):
    """The side cache's key for an end's free values, in end.free order."""
    # bytes, not ==: a germ built from -0.0 may differ from one built from 0.0
    return pr, end, np.array(values, dtype=float).tobytes()


def _leg_options(pr):
    """The integrator options of the problem's legs."""
    kw = dict(rtol=pr.rtol, atol=pr.atol)
    if pr.lam > 0.0:
        kw["blowup_ceiling"] = _BLOWUP * math.sqrt(3.0 / pr.lam)
    return kw


def match_residual(pr: ShootingProblem, u, sides: Optional[dict] = None):
    """Six differences of (f, f') where the two outward integrations meet,
    from the side cache ``sides`` as in ``shoot``."""
    return shoot(pr, u, sides).residual


def _assemble(pr: ShootingProblem, T, shot: Shot):
    """Full-interval trajectory in global time t in [0, T] from the legs."""
    if shot.failure is not None:
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


def _fd_steps(u):
    """The forward-difference step of each unknown: ``_FD_STEP`` relative
    to 1 + |u_i|."""
    return _FD_STEP * (1.0 + np.abs(u))


def _seeded_shot(pr, u):
    """``shoot(pr, u)`` from a side cache that already holds the germs of
    its Jacobian: each end's germ and the germs of its columns' moved free
    values come from one batched staircase, and a mirror shot's right rows
    find the left rows' germs.  An end with a row moved past the largest
    float, or whose batch raises, seeds nothing and logs why at DEBUG;
    ``shoot`` then builds that end's germ alone, and each of its column
    shots its own.  An inadmissible u seeds nothing.  The shot is
    ``shoot(pr, u)``'s, bit for bit."""
    sides = {}
    try:
        pr.check_admissible(u)
    except AdmissibilityError:
        return shoot(pr, u, sides)
    h = _fd_steps(u)
    for name, (end, cols) in zip(("left", "right"), pr.layout):
        rows = np.tile(u[cols], (len(cols) + 1, 1))
        with np.errstate(over="ignore"):  # a column moved past the largest float is inf
            rows[np.arange(1, len(cols) + 1), np.arange(len(cols))] += h[cols]
        keys = [_side_key(pr, end, row) for row in rows]
        new = [j for j, key in enumerate(keys) if key not in sides]
        if not new:
            continue
        if not np.isfinite(rows).all():
            _log.debug("no %s germs seeded: a column moved past the largest float is inf", name)
            continue
        try:
            for j, germ in zip(new, series_solve(end, rows[new], pr.lam, order=pr.germ_order)):
                sides[keys[j]] = (germ, {})
        except GermConstructionError as exc:
            _log.debug("no %s germs seeded: %s", name, exc)
    return shoot(pr, u, sides)


def _jacobian(pr: ShootingProblem, u, shot: Shot):
    """Forward differences of the match residual at ``u``, whose shot is
    ``shot``: each unknown is moved by its step (``_fd_steps``), and its
    column is the residual of a shot at the moved unknowns, in a shallow
    copy of ``shot``'s side cache, less ``shot``'s, over the step.

    When both of ``shot``'s legs reached the match point, the T column is
    the derivative of y_L(theta T) - y_R((1 - theta) T) * _MIRROR from the
    legs' end slopes, and each germ column's moved side, if ``shot``'s cache
    holds its germ (a ``_seeded_shot`` seeded it) and the copy no leg of it
    at its match distance, is first replayed into the copy (``_replay``).
    So a mirror shot's right columns find the left ones' replays, or, where
    a replay was not kept, the leg the left column's shot integrated.  A
    penalised shot replays nothing: its penalty's gradient lies in its legs'
    stop times, which a replay would freeze."""
    h = _fd_steps(u)
    J = np.empty((6, len(u)))
    sides = dict(shot.sides)
    if shot.failure is None:
        J[:, -1] = (pr.theta * shot.legs[0].dy[-1]
                    - (1.0 - pr.theta) * shot.legs[1].dy[-1] * _MIRROR)
    for i in range(len(u) - (shot.failure is None)):  # a failed shot's T column too
        up = u.copy()
        up[i] += h[i]
        for side, (end, cols) in enumerate(pr.layout):
            if shot.failure is None and i in cols:  # keyed as its shot looks its side up
                key = _side_key(pr, end, up[cols])
                if key in shot.sides and shot.reach[side] not in sides[key][1]:
                    _replay(pr, sides, key, shot.reach[side], shot.legs[side])
        J[:, i] = (match_residual(pr, up, sides) - shot.residual) / h[i]
    return J


def _replay(pr, sides, key, reach, leg):
    """Replay ``leg`` into ``sides`` from the germ of side ``key``, handing off
    at ``leg``'s offset and taking its accepted steps.  A replay that stops
    short of ``reach``, or whose germ is not positive at the offset, is
    logged at DEBUG and not kept."""
    germ, legs = sides[key]
    try:
        col = integrate_germ(germ, reach, replay=leg, **_leg_options(pr))
    except GermConstructionError as exc:
        _log.debug("a column's side is not replayed: %s", exc)
        return
    if col.reason == "reached_target":
        sides[key] = (germ, {**legs, reach: col})
    else:
        _log.debug("a column's side is not replayed: its replay stopped "
                   "short of the match point (%s)", col.reason)


def check_solve_options(max_iter=40, tol=1e-9):
    """ValueError unless max_iter >= 0 and 0 < tol < inf; the defaults are solve's."""
    if max_iter < 0:
        raise ValueError(f"max_iter must be at least 0, got {max_iter}")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got tol = {tol}")


def solve(pr: ShootingProblem, guess, max_iter=40, tol=1e-9) -> SolutionReport:
    """Damped Gauss-Newton on the match residual.  Each shot it makes, the
    guess's and each line-search try's, is seeded (``_seeded_shot``) with
    its germ and its Jacobian columns' germs, one staircase per end, and
    its forward-difference Jacobian (``_jacobian``) replays a reached
    iterate's own legs from those germs.  Raises NonConvergence with the
    best iterate on failure.  Logs each step's residual norm to the
    "c1einstein" logger at DEBUG."""
    check_solve_options(max_iter, tol)
    u = np.asarray(guess, dtype=float).copy()
    pr.check_admissible(u)
    shot = _seeded_shot(pr, u)
    norm = np.max(np.abs(shot.residual))
    n_iter = 0
    while not norm < tol:  # a NaN norm must not pass as converged
        if n_iter == max_iter:
            raise NonConvergence(
                f"no convergence in {max_iter} iterations, "
                f"|residual| = {norm:.3e}", u, norm)
        J = _jacobian(pr, u, shot)
        step, *_ = np.linalg.lstsq(J, -shot.residual, rcond=None)
        lam_damp = 1.0
        for _ in range(12):
            u_try = u + lam_damp * step
            shot_try = _seeded_shot(pr, u_try)
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
    J = _jacobian(pr, u, shot)
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
    sides = {}
    norms = {i: float(np.max(np.abs(match_residual(pr, grid[i], sides))))
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
