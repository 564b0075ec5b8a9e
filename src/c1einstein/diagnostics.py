"""Numeric certificates extracted from converged solutions: scale-invariant
endpoint constants, cone monitoring, Kaehler and (anti-)self-duality
detection, extremum checks for profile ratios, and the Gauss-Bonnet /
signature quadratures.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import core
from .shooting import SolutionReport

__all__ = [
    "InvariantConstants",
    "ConeSpec",
    "TopologyReport",
    "invariant_constants",
    "cone_monitor",
    "kahler_detector",
    "eigen_gap_report",
    "characteristic_numbers",
    "max_principle_check",
    "fd_curvature_oracle",
]

# quadrature normalizations, calibrated once on the round closed form (chi)
# and the Fubini-Study closed form (tau), then validated on independent cases.
# kappa_tau is negative: the orientation induced by the (t, 1, 2, 3) frame
# order is opposite to the complex orientation of the Fubini-Study case.
KAPPA_CHI = 1.0 / (8.0 * np.pi**2)
KAPPA_TAU = -1.0 / (12.0 * np.pi**2)
# Gauss-Legendre panels per segment and nodes per panel of the coarse
# quadrature; the reported values use twice the panels
_PANELS = 24
_NODES = 12
# the (nodes, weights) of that rule, read-only; see _gauss_legendre
_GAUSS_LEGENDRE = None
# the component of core.uij_residual and its sign for each ratio pair (i, j)
_RATIO_PAIRS = {(1, 2): (0, 1.0), (2, 3): (1, 1.0), (3, 1): (2, 1.0),
                (2, 1): (0, -1.0), (3, 2): (1, -1.0), (1, 3): (2, -1.0)}


@dataclass(frozen=True)
class InvariantConstants:
    """Scale-invariant endpoint constants; fields are None when the constant
    is not defined for the diagram."""

    alpha: Optional[float] = None    # lam * h^2 at a mirror end
    beta: Optional[float] = None     # lam * q^2 at a conic/orbifold end
    delta: Optional[float] = None    # 8 - lam * q^2 at an S^2 end
    theta_k: Optional[float] = None  # 4 + 8/k for the orbifold cases

    def as_dict(self):
        return {k: v for k, v in self.__dict__.items() if v is not None}


@dataclass(frozen=True)
class ConeSpec:
    """Sign pattern over a coefficient triple: each entry '+', '-', '0' or
    'free'."""

    target: str  # "A" or "B"
    signs: tuple

    def __post_init__(self):
        if self.target not in ("A", "B"):
            raise ValueError("cone target must be 'A' or 'B'")
        if len(self.signs) != 3 or not any(s != "free" for s in self.signs):
            raise ValueError("cone needs three signs, at least one not free")
        if not set(self.signs) <= {"+", "-", "0", "free"}:
            raise ValueError(f"cone signs must be '+', '-', '0' or 'free', got {self.signs}")


@dataclass(frozen=True)
class TopologyReport:
    chi: float
    tau: float
    node_doubling_change: float


def invariant_constants(sr: SolutionReport) -> InvariantConstants:
    """Endpoint constants read off the germ data (never from interior
    samples, which would carry an O(eps) bias).  Each end fixes the constant
    its catalog entry names; the right end wins where both name the same.
    Every field is None on a diagram whose ends fix none."""
    lam = sr.lam
    d = sr.diagram
    vals = {}
    for end, free in ((d.left, sr.left_free), (d.right, sr.right_free)):
        if end.fixes is not None:
            x = lam * free[end.free[0]] ** 2
            vals[end.fixes] = 8.0 - x if end.fixes == "delta" else x
        if end.k:  # only an orbifold end has a cone order
            vals["theta_k"] = 4.0 + 8.0 / end.k
    return InvariantConstants(**vals)


def cone_monitor(sr: SolutionReport, cone: ConeSpec, window=None):
    """Check the sign pattern at every sample inside the window.

    Returns dict with satisfied flag, worst signed margin and its location.
    Margin convention: positive means strictly inside the cone; for '0'
    entries the margin is minus the absolute value.
    """
    diag = sr.trajectory.diagnostics()
    t = diag["t"]
    vals = diag[cone.target]
    if window is not None:
        lo, hi = window
        keep = (t >= lo) & (t <= hi)
        t, vals = t[keep], vals[keep]
    if len(t) == 0:
        raise ValueError("empty cone window")
    margins = np.full_like(vals, np.inf)
    for i, s in enumerate(cone.signs):
        if s == "+":
            margins[:, i] = vals[:, i]
        elif s == "-":
            margins[:, i] = -vals[:, i]
        elif s == "0":
            margins[:, i] = -np.abs(vals[:, i])
    m = np.min(margins, axis=1)
    worst = int(np.argmin(m))
    zero_tol = 1e-6
    ok = bool(np.all(m > -zero_tol)) if "0" in cone.signs else bool(np.all(m >= 0.0))
    return {
        "satisfied": ok,
        "worst_margin": float(m[worst]),
        "worst_t": float(t[worst]),
    }


def kahler_detector(sr: SolutionReport):
    """Parallel-form test: sup norms of the two connection coefficients of
    the diagram's catalog pair, the A pair on S^2 x S^2 and B elsewhere,
    against 1e-6."""
    labeling = sr.diagram.kahler_pair
    target, i, j = labeling
    vals = sr.trajectory.diagnostics()[target]
    sup_i = float(np.max(np.abs(vals[:, i - 1])))
    sup_j = float(np.max(np.abs(vals[:, j - 1])))
    return {"is_kahler": sup_i < 1e-6 and sup_j < 1e-6, "sup_norms": (sup_i, sup_j),
            "labeling": labeling}


def eigen_gap_report(sr: SolutionReport):
    """Sup over samples of the spreads of the two curvature-eigenvalue
    triples."""
    d = sr.trajectory.diagnostics()
    spread = lambda x: float(np.max(np.max(x, axis=1) - np.min(x, axis=1)))
    return {"a_spread": spread(d["a"]), "b_spread": spread(d["b"])}


def characteristic_numbers(sr: SolutionReport) -> TopologyReport:
    """Gauss-Bonnet and signature quadratures.

    chi = kappa_chi * Integral( sum (a_i - lam/3)^2 + sum (b_i - lam/3)^2
                                + s^2/24 ) dvol,  s = 4 lam,
    tau = kappa_tau * Integral( sum (a_i - lam/3)^2 - sum (b_i - lam/3)^2 ) dvol,
    dvol = V f1 f2 f3 dt with the diagram's orbit volume V.  The endpoint
    neighborhoods are covered by the germ series, the interior by the dense
    trajectory.  Each of the three segments is evaluated once, on the nodes
    of the _PANELS and 2 _PANELS rules together.  The evaluations and the
    density work row by row and each panel sums its own nodes, so each
    rule's sums are those of an evaluation on its nodes alone, bit for bit.
    """
    d = sr.diagram
    lam = sr.lam
    gl, gr = sr.germs
    traj = sr.trajectory
    t_lo, t_hi = traj.t[0], traj.t[-1]
    V = d.orbit_volume
    s2_term = (4.0 * lam) ** 2 / 24.0

    def density(f, df):
        # f, df shape (n, 3)
        *_, a, b = core.frame_curvature(f, df)
        wp = np.sum((a - lam / 3.0) ** 2, axis=-1)
        wm = np.sum((b - lam / 3.0) ** 2, axis=-1)
        vol = V * np.prod(f, axis=-1)
        return np.stack([(wp + wm + s2_term) * vol, (wp - wm) * vol])

    def right(ts):
        # the right germ runs in reversed time, which swaps the two Weyl
        # halves, so its slopes are negated to restore the global orientation
        f, df = gr.eval(ts)
        return f, -df

    x, w = _gauss_legendre()

    def seg(lo, hi, ev):
        # the panels of both rules, coarse then fine, in one evaluation;
        # (coarse, fine) sums, each rule's panels added in order
        mid, half = [], []
        for npan in (_PANELS, 2 * _PANELS):
            edges = np.linspace(lo, hi, npan + 1)
            mid.append(0.5 * (edges[:-1] + edges[1:]))
            half.append(0.5 * (edges[1:] - edges[:-1]))
        mid, half = np.concatenate(mid), np.concatenate(half)
        f, df = ev((mid[:, None] + half[:, None] * x).ravel())
        panels = half * np.sum(w * density(f, df).reshape(2, len(half), -1), axis=-1)
        return np.stack([np.add.accumulate(p, axis=1)[:, -1]
                         for p in np.split(panels, [_PANELS], axis=1)])

    # germ windows at both ends, each as wide as its germ's hand-off
    # offset, and the dense trajectory between, added to 0 in that order
    c1, c2 = sum((seg(0.0, t_lo, gl.eval), seg(0.0, sr.T - t_hi, right),
                  seg(t_lo, t_hi, traj.eval)), np.zeros((2, 2)))
    chi = KAPPA_CHI * c2[0]
    tau = KAPPA_TAU * c2[1]
    change = max(abs(KAPPA_CHI) * abs(c2[0] - c1[0]),
                 abs(KAPPA_TAU) * abs(c2[1] - c1[1]))
    return TopologyReport(float(chi), float(tau), float(change))


def _gauss_legendre():
    """The _NODES-point Gauss-Legendre nodes and weights, built on the first
    call and reused: importing this module imports no numpy.polynomial."""
    global _GAUSS_LEGENDRE
    if _GAUSS_LEGENDRE is None:
        x, w = np.polynomial.legendre.leggauss(_NODES)
        x.flags.writeable = w.flags.writeable = False
        _GAUSS_LEGENDRE = x, w
    return _GAUSS_LEGENDRE


def max_principle_check(sr: SolutionReport, pairs=((1, 2), (2, 3), (3, 1))):
    """Locate the maximum of each log-ratio u_ij = log(f_i/f_j) and verify
    the second-order ratio equation there.

    Reports per pair: the sup of u_ij, its location, whether the maximum is
    attained at a nonpositive value, and the equation residual at the
    extremum (computed from dense samples and the analytic right-hand side)
    with whether it is below 1e-7.
    """
    # each pair's residual component and sign, checked before any work: the
    # ratio equation is antisymmetric under swapping the pair
    try:
        checks = [((i, j), *_RATIO_PAIRS[(i, j)]) for i, j in pairs]
    except KeyError as e:
        raise ValueError(f"unknown ratio pair {e.args[0]}") from None
    traj = sr.trajectory
    ts = np.linspace(traj.t[0], traj.t[-1], 4001)
    f, df = traj.eval(ts)
    out = {}
    for (i, j), pair_pos, sign in checks:
        u = np.log(f[:, i - 1] / f[:, j - 1])
        m = int(np.argmax(u))
        # equation residual at the extremum from analytic second derivatives
        ddf = core.frame_rhs(f[m], df[m], sr.lam)
        res = core.uij_residual(f[m], df[m], ddf)
        out[(i, j)] = {
            "sup": float(u[m]),
            "argmax": float(ts[m]),
            "nonpositive": bool(u[m] <= 1e-9),
            "interior": bool(0 < m < len(ts) - 1),
            "eq_residual": float(sign * res[pair_pos]),
            "eq_ok": bool(abs(res[pair_pos]) < 1e-7),
        }
    return out


def fd_curvature_oracle(sampler, t, h, lam):
    """Curvature eigenvalues and constraint from centered differences of f
    alone; an independent check on the analytic (f, f') pipeline.

    sampler(t) must return the (3,) profile triple at time t.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    f = np.asarray(sampler(t), dtype=float)
    fp = np.asarray(sampler(t + h), dtype=float)
    fm = np.asarray(sampler(t - h), dtype=float)
    df = (fp - fm) / (2.0 * h)
    L, R, _, _, a, b = core.frame_curvature(f, df)
    return a, b, core.constraint_residual(L, R, lam)
