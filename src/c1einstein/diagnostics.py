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


@dataclass(frozen=True)
class TopologyReport:
    chi: float
    tau: float
    n_nodes: int
    node_doubling_change: float


def _germs(sr: SolutionReport):
    from .germs import series_solve

    pr = sr.problem
    gl = series_solve(pr.diagram.left, sr.left_free, pr.lam, order=pr.germ_order)
    gr = series_solve(pr.diagram.right, sr.right_free, pr.lam, order=pr.germ_order)
    return gl, gr


def invariant_constants(sr: SolutionReport) -> InvariantConstants:
    """Endpoint constants read off the germ data (never from interior
    samples, which would carry an O(eps) bias)."""
    lam = sr.lam
    d = sr.diagram
    vals = {}
    for end, free in ((d.left, sr.left_free), (d.right, sr.right_free)):
        if end.kind == "mirror":
            vals["alpha"] = lam * free["h"] ** 2
        elif end.kind in ("circle",):
            vals.setdefault("beta", lam * free["q"] ** 2)
        elif end.kind == "even_pair":
            vals["delta"] = 8.0 - lam * free["q"] ** 2
        elif end.kind == "orbifold":
            vals["beta"] = lam * free["q"] ** 2
            vals["theta_k"] = 4.0 + 8.0 / end.k
    # the conic end of so3_cp2 is a mirror end whose q is the pair value h
    if d.case_id == "so3_cp2":
        vals["beta"] = lam * sr.right_free["h"] ** 2
        vals.pop("alpha", None)
    # delta marks the two-sphere pairing specific to the product diagram
    if d.case_id != "so3_s2xs2":
        vals.pop("delta", None)
    if d.case_id == "su2_cp2bar":
        vals.pop("beta", None)  # no conic end; q here is a circle radius
    if not vals:
        raise ValueError(f"no invariant constants defined for diagram {d.name}")
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
        elif s != "free":
            raise ValueError(f"bad sign {s!r}")
    m = np.min(margins, axis=1)
    worst = int(np.argmin(m))
    zero_tol = 1e-6
    ok = bool(np.all(m > -zero_tol)) if "0" in cone.signs else bool(np.all(m >= 0.0))
    return {
        "satisfied": ok,
        "worst_margin": float(m[worst]),
        "worst_t": float(t[worst]),
    }


def kahler_detector(sr: SolutionReport, labeling=None, tol=1e-6):
    """Parallel-form test: sup norms of the two designated connection
    coefficients.  labeling is ("B", 1, 2) or ("A", 1, 2); default picks the
    B pair except on the S^2 x S^2 diagram where the A pair degenerates."""
    if labeling is None:
        labeling = ("A", 1, 2) if sr.diagram.case_id == "so3_s2xs2" else ("B", 1, 2)
    target, i, j = labeling
    vals = sr.trajectory.diagnostics()[target]
    sup_i = float(np.max(np.abs(vals[:, i - 1])))
    sup_j = float(np.max(np.abs(vals[:, j - 1])))
    return {"is_kahler": sup_i < tol and sup_j < tol, "sup_norms": (sup_i, sup_j),
            "labeling": labeling}


def eigen_gap_report(sr: SolutionReport):
    """Sup over samples of the spreads of the two curvature-eigenvalue
    triples, plus their values at the first and last samples."""
    d = sr.trajectory.diagnostics()
    a, b = d["a"], d["b"]
    spread = lambda x: float(np.max(np.max(x, axis=1) - np.min(x, axis=1)))
    return {
        "a_spread": spread(a),
        "b_spread": spread(b),
        "a_ends": (a[0].copy(), a[-1].copy()),
        "b_ends": (b[0].copy(), b[-1].copy()),
    }


def characteristic_numbers(sr: SolutionReport, n_panels=24, n_nodes=12) -> TopologyReport:
    """Gauss-Bonnet and signature quadratures.

    chi = kappa_chi * Integral( sum (a_i - lam/3)^2 + sum (b_i - lam/3)^2
                                + s^2/24 ) dvol,  s = 4 lam,
    tau = kappa_tau * Integral( sum (a_i - lam/3)^2 - sum (b_i - lam/3)^2 ) dvol,
    dvol = V f1 f2 f3 dt with the diagram's orbit volume V.  The endpoint
    neighborhoods are covered by the germ series, the interior by the dense
    trajectory.
    """
    d = sr.diagram
    if d.case_id == "so3_hitchin" and d.k >= 2:
        raise ValueError("characteristic numbers unsupported for orbifold cases")
    lam = sr.lam
    gl, gr = _germs(sr)
    traj = sr.trajectory
    t_lo, t_hi = traj.t[0], traj.t[-1]
    V = d.orbit_volume
    s2_term = (4.0 * lam) ** 2 / 24.0

    def density(f, df):
        # f, df shape (n, 3)
        L, R, _ = core.lr_from_frame(f, df)
        A, B = core.ab_coeffs(L, R)
        a, b = core.curv_eigs(R, A, B)
        wp = np.sum((a - lam / 3.0) ** 2, axis=-1)
        wm = np.sum((b - lam / 3.0) ** 2, axis=-1)
        vol = V * np.prod(f, axis=-1)
        return np.stack([(wp + wm + s2_term) * vol, (wp - wm) * vol])

    def run(npan, nn):
        x, w = np.polynomial.legendre.leggauss(nn)

        def seg(lo, hi, ev):
            edges = np.linspace(lo, hi, npan + 1)
            tot = np.zeros(2)
            for a, b in zip(edges[:-1], edges[1:]):
                mid, half = 0.5 * (a + b), 0.5 * (b - a)
                ts = mid + half * x
                f, df = ev(ts)
                tot += half * np.sum(w * density(f, df), axis=1)
            return tot

        total = np.zeros(2)
        # germ windows at both ends, dense trajectory between; the right
        # germ runs in reversed time, which swaps the two Weyl halves, so
        # its slopes are negated to restore the global orientation
        total += seg(0.0, t_lo, lambda ts: gl.eval(ts))
        if sr.T - t_hi > 0:
            def right(ts):
                f, df = gr.eval(ts)
                return f, -df
            total += seg(0.0, sr.T - t_hi, right)
        total += seg(t_lo, t_hi, lambda ts: traj.eval(ts))
        return total

    c1 = run(n_panels, n_nodes)
    c2 = run(2 * n_panels, n_nodes)
    chi = KAPPA_CHI * c2[0]
    tau = KAPPA_TAU * c2[1]
    change = max(abs(KAPPA_CHI) * abs(c2[0] - c1[0]),
                 abs(KAPPA_TAU) * abs(c2[1] - c1[1]))
    return TopologyReport(float(chi), float(tau), 2 * n_panels * n_nodes, float(change))


def max_principle_check(sr: SolutionReport, pairs=((1, 2), (2, 3), (3, 1)), tol=1e-7):
    """Locate the maximum of each log-ratio u_ij = log(f_i/f_j) and verify
    the second-order ratio equation there.

    Reports per pair: the sup of u_ij, its location, whether the maximum is
    attained at a nonpositive value, and the equation residual at the
    extremum (computed from dense samples and the analytic right-hand side).
    """
    traj = sr.trajectory
    ts = np.linspace(traj.t[0], traj.t[-1], 4001)
    f, df = traj.eval(ts)
    out = {}
    for i, j in pairs:
        u = np.log(f[:, i - 1] / f[:, j - 1])
        m = int(np.argmax(u))
        # equation residual at the extremum from analytic second derivatives
        ft, dft = traj.eval(np.array([ts[m]]))
        ddf = core.frame_rhs(ft[0], dft[0], sr.lam)
        res = core.uij_residual(ft[0], dft[0], ddf)
        # the ratio equation is antisymmetric under swapping the pair
        try:
            pair_pos, sign = {(1, 2): (0, 1.0), (2, 3): (1, 1.0),
                              (3, 1): (2, 1.0), (2, 1): (0, -1.0),
                              (3, 2): (1, -1.0), (1, 3): (2, -1.0)}[(i, j)]
        except KeyError:
            raise ValueError(f"unknown ratio pair {(i, j)}") from None
        out[(i, j)] = {
            "sup": float(u[m]),
            "argmax": float(ts[m]),
            "nonpositive": bool(u[m] <= 1e-9),
            "interior": bool(0 < m < len(ts) - 1),
            "eq_residual": float(sign * res[pair_pos]),
            "eq_ok": bool(abs(res[pair_pos]) < tol),
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
    L, R, _ = core.lr_from_frame(f, df)
    A, B = core.ab_coeffs(L, R)
    a, b = core.curv_eigs(R, A, B)
    return a, b, core.constraint_residual(L, R, lam)
