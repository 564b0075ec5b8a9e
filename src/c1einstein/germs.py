"""Singular-orbit boundary data: diagram catalog, Taylor germs, indicial analysis.

A germ is a truncated Taylor expansion f_i(t) = sum_n c[i][n] t^n at a
collapsed orbit, with the slope/parity structure dictated by the smoothness
conditions of the acting group.  Coefficients are found order by order: the
second-order Einstein system, multiplied through by f_i f_j^2 f_k^2, is a
polynomial identity

    P_i := f_i'' f_i q_i + 1/4 (f_i^2)' q_i'
           - 2 f_i^4 + 2 (f_j^2 - f_k^2)^2 + lambda f_i^2 q_i  =  0,
    q_i := f_j^2 f_k^2,

and each Taylor order of P is linear in the coefficients it introduces.
Coefficients the staircase cannot fix are the free germ parameters; they are
the shooting unknowns.
"""

import functools
import numbers
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from . import core
from .core import J, K, NonPositiveProfile

__all__ = [
    "GroupDiagram",
    "EndCondition",
    "SeriesGerm",
    "GermConstructionError",
    "DIAGRAM_IDS",
    "diagram_catalog",
    "get_diagram",
    "series_solve",
    "germ_start_offset",
    "indicial_eigenvalues",
    "indicial_catalog",
    "germ_decay_check",
]

TWO_PI2 = 2.0 * np.pi**2


class GermConstructionError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# end conditions and diagram catalog
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EndCondition:
    """Collapse/parity structure of one singular orbit.

    kind:
      fixed_point -- all three directions collapse with slope 1
      mirror      -- one direction collapses (slope 4 for RP^2 orbits, 4 for
                     the conic S^2); the other two satisfy f_c(t) = f_b(-t)
      even_pair   -- one direction collapses with slope 2; the other two are
                     even with a common value q at t = 0
      circle      -- weight-one circle collapse, slope 1; the other two are
                     even and agree through order 2
      orbifold    -- Hitchin end with normal angle 2*pi/k: collapse slope 4/k,
                     even pair sum, pair difference starting at order k
    fixes names the endpoint constant that the end's first free parameter
    p determines: alpha = lam p^2, beta = lam p^2 or delta = 8 - lam p^2.
    Indices are 0-based internally.
    """

    kind: str
    collapse: tuple
    slope: float
    pair: tuple  # (b, c); empty for fixed_point
    free: tuple  # free germ parameter names, in unknown-vector order
    k: int = 0
    fixes: Optional[str] = None  # "alpha", "beta", "delta" or None


@dataclass(frozen=True)
class GroupDiagram:
    case_id: str
    left: EndCondition
    right: EndCondition
    orbit_volume: float  # volume of G/H with sigma_i orthonormal
    chi_tau: tuple  # expected (chi, tau)
    k: int = 0
    kahler_pair: tuple = ("B", 1, 2)  # connection coefficients the Kaehler test reads

    @property
    def name(self):
        return f"{self.case_id}(k={self.k})" if self.k else self.case_id


def _fixed_point():
    return EndCondition("fixed_point", (0, 1, 2), 1.0, (), ("da", "db"))


def _mirror(a, b, c):
    return EndCondition("mirror", (a,), 4.0, (b, c), ("h", "c"), fixes="alpha")


def _even_pair(a, b, c):
    return EndCondition("even_pair", (a,), 2.0, (b, c), ("q", "d2"), fixes="delta")


def _circle(a, b, c):
    return EndCondition("circle", (a,), 1.0, (b, c), ("q", "d4"))


def _orbifold(a, b, c, k):
    return EndCondition("orbifold", (a,), 4.0 / k, (b, c), ("q", "w"), k=k, fixes="beta")


_CATALOG = {
    "su2_s4": GroupDiagram(
        "su2_s4", _fixed_point(), _fixed_point(), TWO_PI2, chi_tau=(2, 0)
    ),
    "so3_s4": GroupDiagram(
        "so3_s4", _mirror(0, 1, 2), _mirror(1, 2, 0), np.pi**2 / 4.0, chi_tau=(2, 0)
    ),
    # the circle end is conic here; on su2_cp2bar q is only a circle radius
    "su2_cp2": GroupDiagram(
        "su2_cp2", _fixed_point(), replace(_circle(2, 0, 1), fixes="beta"),
        TWO_PI2, chi_tau=(3, 1)
    ),
    # the conic end is a mirror end whose pair value h fixes beta; delta
    # belongs to the two-sphere pairing of the product diagram only
    "so3_cp2": GroupDiagram(
        "so3_cp2", replace(_even_pair(0, 1, 2), fixes=None),
        replace(_mirror(2, 0, 1), fixes="beta"), np.pi**2 / 2.0, chi_tau=(3, 1)
    ),
    "su2_cp2bar": GroupDiagram(
        "su2_cp2bar", _circle(0, 1, 2), _circle(0, 1, 2), TWO_PI2, chi_tau=(4, 0)
    ),
    # the Kaehler test reads the A pair on the product, the B pair elsewhere
    "so3_s2xs2": GroupDiagram(
        "so3_s2xs2", _even_pair(2, 0, 1), _even_pair(0, 1, 2), np.pi**2,
        chi_tau=(4, 0), kahler_pair=("A", 1, 2)
    ),
}
DIAGRAM_IDS = tuple(_CATALOG) + ("so3_hitchin",)


def get_diagram(case_id, k=0) -> GroupDiagram:
    if case_id == "so3_hitchin":
        if not isinstance(k, numbers.Integral):
            raise ValueError(f"so3_hitchin requires an integer cone order k, got k = {k!r}")
        if k < 1:
            raise ValueError("so3_hitchin requires k >= 1")
        if k == 1:
            return replace(_CATALOG["so3_s4"], case_id="so3_hitchin", k=1)
        # orbifold chi, tau: Kawasaki, Nagoya Math. J. 84 (1981); Hitchin, JDG 42 (1995)
        return GroupDiagram(
            "so3_hitchin", _mirror(0, 1, 2), _orbifold(1, 2, 0, k), np.pi**2 / 4.0,
            chi_tau=(Fraction(k + 1, k), Fraction(2 - 2 * k * k, 3 * k * k)), k=k,
        )
    try:
        diagram = _CATALOG[case_id]
    except KeyError:
        raise ValueError(f"unknown diagram id {case_id!r}") from None
    if k != 0:
        raise ValueError(f"diagram {case_id!r} has no cone order k, got k = {k!r}")
    return diagram


def diagram_catalog():
    """The seven cases, Hitchin at k = 1, 2 and 3."""
    return ([get_diagram(cid) for cid in _CATALOG]
            + [get_diagram("so3_hitchin", k) for k in (1, 2, 3)])


# --------------------------------------------------------------------------
# slot structure of an end
# --------------------------------------------------------------------------

# a generic Einstein constant, for the first-order scan
_LAM_GENERIC = 1.7
_STAIRCASE_RTOL = 1e-9


@dataclass
class _Structure:
    base: np.ndarray  # (3*(N+1),) fixed coefficients, flattened
    E: np.ndarray  # (slots, 3*(N+1)) placement of each slot's value
    names: list  # slot names, in slot order
    free_slots: dict  # parameter name -> slot index
    N: int  # ansatz order, padded past the germ order
    first: np.ndarray = field(init=False)  # first Taylor order of P each slot moves
    m_stop: int = field(init=False)  # last order of P the staircase solves


@functools.lru_cache(maxsize=None)
def _structure(end: EndCondition, order: int) -> _Structure:
    """Slot schedule of an end for a germ of the given order; cached and
    shared, so read-only.  The internal ansatz is padded to order + 8 so
    every equation in use has its coefficients."""
    N = order + 8
    base = np.zeros((3, N + 1))
    names, rows, lowest = [], [], []

    def add(name, n, *placements):
        """A slot whose smallest Taylor power is n; placements are
        (direction, power, coefficient)."""
        row = np.zeros((3, N + 1))
        for i, p, coef in placements:
            row[i, p] = coef
        names.append(name)
        rows.append(row.ravel())
        lowest.append(n)

    # each collapsing direction: slope * t plus the odd powers
    for a in end.collapse:
        base[a, 1] = end.slope
        for n in range(3, N + 1, 2):
            add(f"c{a + 1},{n}", n, (a, n, 1.0))
    b, c = end.pair or (None, None)
    if end.kind == "fixed_point":
        pins = ("c1,3", "c2,3")
    elif end.kind == "mirror":
        for n in range(N + 1):
            add(f"c{b + 1},{n}", n, (b, n, 1.0), (c, n, (-1.0) ** n))
        pins = (f"c{b + 1},0", f"c{b + 1},1")
    elif end.kind in ("even_pair", "circle"):
        add("q", 0, (b, 0, 1.0), (c, 0, 1.0))
        lo = 2
        if end.kind == "circle":
            add("e2", 2, (b, 2, 1.0), (c, 2, 1.0))
            lo = 4
        for n in range(lo, N + 1, 2):
            for i in (b, c):
                add(f"c{i + 1},{n}", n, (i, n, 1.0))
        pins = ("q", f"c{c + 1},{lo}")
    elif end.kind == "orbifold":
        add("q", 0, (b, 0, 1.0), (c, 0, 1.0))
        for n in range(2, N + 1, 2):
            add(f"p{n}", n, (b, n, 1.0), (c, n, 1.0))
        for n in range(end.k, N + 1, 2):
            add(f"w{n}", n, (b, n, 1.0), (c, n, -1.0))
        pins = ("q", f"w{end.k}")
    else:
        raise ValueError(f"unknown end kind {end.kind!r}")

    st = _Structure(base.ravel(), np.array(rows), names,
                    {p: names.index(s) for p, s in zip(end.free, pins)}, N)
    # the first Taylor order of P each slot affects, at a generic point, in
    # the N + 4 Taylor orders of P in use
    r = _probe(st, _generic_point(len(names)), np.arange(len(names)), _LAM_GENERIC, N + 4)[0]
    scale = max(np.max(np.abs(r[0])), 1.0)
    hit = np.abs(r[1::2] - r[0]).max(axis=1) > 1e-9 * scale  # (slots, N + 4)
    absent = ~hit.any(axis=1)
    if absent.any():
        raise GermConstructionError(
            f"slot {names[absent.argmax()]} never enters the residual")
    st.first = hit.argmax(axis=1)
    # the last of those orders moved by a slot in the germ's orders
    st.m_stop = int(max(st.first[[s for s, n in enumerate(lowest) if n <= order]]))
    return st


def _generic_point(n):
    # one row of n slot values k = 1 .. n, 0.3 + 0.8 frac(k / golden ratio):
    # fixed, spread over [0.3, 1.1), and built without numpy.random
    return 0.3 + 0.8 * (np.arange(1, n + 1)[None] * 0.6180339887498949 % 1.0)


def _apply(st: _Structure, values) -> np.ndarray:
    """Coefficient matrix (..., 3, N+1) for slot values (..., slots)."""
    values = np.asarray(values, dtype=float)
    return (st.base + values @ st.E).reshape(values.shape[:-1] + (3, st.N + 1))


def _probe(st: _Structure, values, slots, lam, L) -> np.ndarray:
    """Taylor orders 0 .. L-1 of the residual P, shape
    (rows, 1 + 2 len(slots), 3, L) for slot values (rows, slots) and an
    index array of slots, in one batched call: probe 0 at a row's slot
    values, probes 1 + 2j and 2 + 2j with slot j moved by +1 and -1."""
    j = np.arange(len(slots))
    probes = np.repeat(values[:, None], 1 + 2 * len(j), axis=1)
    probes[:, 1 + 2 * j, slots] += 1.0
    probes[:, 2 + 2 * j, slots] -= 1.0
    return _poly_residual(_apply(st, probes), lam, L)


# --------------------------------------------------------------------------
# polynomial residual
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _toeplitz(la, lb, L):
    """Gather indices n - p into b and the mask of the cells outside
    0 <= n - p < lb, for rows p < la and output orders n < L; cached and
    shared, so read-only."""
    n = np.arange(L) - np.arange(la)[:, None]
    inside = (n >= 0) & (n < lb)
    return np.where(inside, n, 0), ~inside


def _pmul(a, b, L):
    """Truncated product of coefficient arrays along the last axis.

    out[n] = sum over p of a[p] b[n - p], added in the order p = 0, 1, ...
    to +0.0, as a loop over p would: a reduction over the row axis of the
    (..., p, n) block adds whole rows in turn.  Cells outside the product
    hold +0.0 in place of a product, and adding +0.0 to a sum that started
    at +0.0 changes no bit, not even the sign of a zero."""
    la = min(a.shape[-1], L)
    idx, outside = _toeplitz(la, b.shape[-1], L)
    prod = b[..., idx]  # the gather is a copy: one block, multiplied in place
    np.multiply(a[..., :la, None], prod, out=prod)
    prod[..., outside] = 0.0
    return np.add.reduce(prod, axis=-2, initial=0.0)


def _pder(a):
    return a[..., 1:] * np.arange(1, a.shape[-1])


def _poly_residual(c, lam, L):
    """Taylor coefficients of P_i, shape (..., 3, L); c has shape (..., 3, N+1).
    The squares f^2 and q run through order L, so their derivatives reach L - 1."""
    f2 = _pmul(c, c, L + 1)
    fj2, fk2 = f2[..., J, :], f2[..., K, :]
    q = _pmul(fj2, fk2, L + 1)
    diff = fj2 - fk2
    term1 = _pmul(_pmul(_pder(_pder(c)), c, L), q, L)
    term2 = 0.25 * _pmul(_pder(f2), _pder(q), L)
    term3 = -2.0 * _pmul(f2, f2, L)
    term4 = 2.0 * _pmul(diff, diff, L)
    term5 = lam * _pmul(f2, q, L)
    return term1 + term2 + term3 + term4 + term5


# --------------------------------------------------------------------------
# order-by-order solve
# --------------------------------------------------------------------------

# a huge finite parameter overflows the products: raised below as a germ error
@np.errstate(over="ignore", invalid="ignore")
def _staircase(st, values, determined, lam):
    """Solve dependent slots order by order in place, through order m_stop,
    for slot values (rows, slots) that share which slots are determined:
    each row is solved and checked as it would be alone, and any row that
    fails raises.  Each wanted slot moves an order <= m_stop, so it
    ends determined or this raises.  P is probed only at orders that hold
    unknowns and at m_stop.  An order with none is checked from row 0 of the
    next probe, at the scale of the orders through it: no slot solved since
    moves an order of P below its first."""
    pending = np.flatnonzero(~determined)
    groups = {}  # the pending slots by the first order they move, ascending
    for s, m in zip(pending.tolist(), st.first[pending].tolist()):
        groups.setdefault(m, []).append(s)
    unchecked = 0  # the first order neither checked nor solved
    for m in range(st.m_stop + 1):
        if m not in groups and m < st.m_stop:
            continue
        S_m = np.array(groups.get(m, ()), dtype=np.intp)
        # orders <= m only: an order of P depends on no higher one, and
        # _pmul's sums keep their bits when its trailing orders are cut
        r = _probe(st, values, S_m, lam, m + 1)  # (rows, probes, 3, m + 1)
        if not np.isfinite(r).all():
            raise GermConstructionError(f"germ residual is not finite at order {m}")
        for row, r_row in zip(values, r):  # each row as it would be alone
            r0 = np.abs(r_row[0])  # |P| at the slot values
            for j in range(unchecked, m if S_m.size else m + 1):
                scale = max(r0[:, :j + 1].max(), 1.0)
                if r0[:, j].max() > _STAIRCASE_RTOL * scale:
                    raise GermConstructionError(
                        f"inconsistent equations at order {j} with no unknowns left to fix")
            if not S_m.size:
                continue
            scale = max(r0.max(), 1.0)
            rm = r_row[0, :, m]
            rp = r_row[1::2, :, m]
            rn = r_row[2::2, :, m]
            A = 0.5 * (rp - rn).T  # (3, |S_m|)
            curv = np.max(np.abs(rp + rn - 2.0 * rm), axis=1)  # per slot
            bent = S_m[curv > 1e-7 * scale]
            if bent.size:
                raise GermConstructionError(
                    f"equations at order {m} are not linear in the order-{m} "
                    f"coefficients (nonlinear in {', '.join(st.names[s] for s in bent)}): "
                    "a free parameter may be left to the equations")
            x, _, rank, _ = np.linalg.lstsq(A, -rm, rcond=1e-10)
            if rank < S_m.size:
                raise GermConstructionError(
                    f"singular linear solve at order {m} (rank {rank} < {S_m.size}): "
                    "resonance or misdeclared free parameter"
                )
            if np.abs(A @ x + rm).max() > max(_STAIRCASE_RTOL * scale, 1e-6 * r0[:, m].max()):
                raise GermConstructionError(f"inconsistent linear system at order {m}")
            row[S_m] += x
        unchecked = m + 1
        if not S_m.size:
            return
        determined[S_m] = True


# --------------------------------------------------------------------------
# public germ interface
# --------------------------------------------------------------------------

# the germ's validity window is (0, _RADIUS] in its local coordinate
_RADIUS = 0.5


@dataclass(frozen=True)
class SeriesGerm:
    """Truncated Taylor germ at a singular orbit, in the local coordinate
    increasing away from the orbit."""

    lam: float
    order: int
    coeffs: np.ndarray  # (3, order+1)

    def eval(self, t):
        """(f, df) at local coordinate t; t may be an array."""
        t = np.asarray(t, dtype=float)
        if np.any(t > _RADIUS) or np.any(t <= 0.0):
            raise ValueError(f"t outside germ validity window (0, {_RADIUS}]")
        powers = t[..., None, None] ** np.arange(self.order + 1)
        f = np.sum(self.coeffs * powers, axis=-1)
        dcoef = _pder(self.coeffs)
        df = np.sum(dcoef * powers[..., :-1], axis=-1)
        return f, df

    def eval_second(self, t):
        t = np.asarray(t, dtype=float)
        dd = _pder(_pder(self.coeffs))
        powers = t[..., None, None] ** np.arange(dd.shape[-1])
        return np.sum(dd * powers, axis=-1)


def series_solve(end: EndCondition, free, lam, order=8):
    """Construct the Taylor germ with the given free-parameter values.

    free: mapping of the end's free parameter names to values, or a sequence
    in the order of end.free; or a 2-D array of such sequences, whose germs
    come back as a tuple from one staircase over the rows, each the germ its
    row builds alone, bit for bit.
    """
    if order < 4:
        raise ValueError("germ order must be at least 4")
    if not np.isfinite(lam):
        raise ValueError(f"Einstein constant must be finite, got lam = {lam}")
    frees = free if np.ndim(free) == 2 else [free]  # a batch, or one germ's values
    st = _structure(end, order)
    values = np.zeros((len(frees), len(st.names)))
    determined = np.zeros(len(st.names), dtype=bool)
    for row, f in zip(values, frees):
        f = f if isinstance(f, dict) else dict(zip(end.free, f))
        if set(f) != set(end.free):
            raise ValueError(f"free parameters {set(end.free)} required, got {set(f)}")
        for name, v in f.items():
            if not np.isfinite(v):
                raise ValueError(f"germ parameter {name} must be finite, got {v}")
            if name in ("h", "q") and v <= 0.0:
                raise ValueError(f"germ parameter {name} must be positive, got {v}")
            row[st.free_slots[name]] = v
    determined[list(st.free_slots.values())] = True
    _staircase(st, values, determined, lam)
    germs = tuple(SeriesGerm(lam, order, _apply(st, v)[:, : order + 1]) for v in values)
    return germs if frees is free else germs[0]


# relative equation defect a germ must reach at its hand-off offset; it lies
# above the 2-5e-12 rounding floor of an order-8 circle-end germ
_DEFECT_TARGET = 1e-11


def germ_start_offset(germ: SeriesGerm):
    """Largest offset on a log-spaced grid at which the germ's own second
    derivative matches the right-hand side on (f, df) to a relative defect
    below ``_DEFECT_TARGET``.  GermConstructionError is raised when no offset
    does, or when the germ leaves f > 0 at an offset tried before one does.
    """
    eps_grid = _RADIUS * np.logspace(-0.5, -3.0, 26)
    # one pass over the grid: each row is the scalar evaluation's, bit for bit
    (f, df), dd = germ.eval(eps_grid), germ.eval_second(eps_grid)
    for i, eps in enumerate(eps_grid):
        try:
            rhs = core.frame_rhs(f[i], df[i], germ.lam)
        except NonPositiveProfile as exc:
            # a mirror end's f = h -/+ c t + ... can cross zero inside the
            # radius when h is small against c
            raise GermConstructionError(
                f"germ is not positive at offset {eps:.3g}: {exc}") from exc
        # relative defect: near a collapse the rhs grows like 1/t^2 and the
        # absolute defect bottoms out at roundoff of that magnitude
        defect = np.max(np.abs(rhs - dd[i])) / (1.0 + np.max(np.abs(rhs)))
        if defect < _DEFECT_TARGET:
            return float(eps)
    raise GermConstructionError(
        f"no hand-off offset down to {eps_grid[-1]:.3g} meets the defect target "
        f"{_DEFECT_TARGET:.3g}")


# --------------------------------------------------------------------------
# indicial analysis (regular singular points t X' = Q X + t B(t) X)
# --------------------------------------------------------------------------

def indicial_eigenvalues(Q):
    """Closed-form eigenvalues of the 2x2 indicial matrix Q, ascending."""
    Q = np.asarray(Q, dtype=float)
    tr = Q[0, 0] + Q[1, 1]
    disc = np.sqrt((Q[0, 0] - Q[1, 1]) ** 2 + 4.0 * Q[0, 1] * Q[1, 0])
    return (tr - disc) / 2.0, (tr + disc) / 2.0


def indicial_catalog(k=2):
    """The 2x2 indicial matrices arising at the singular orbits."""
    half = 0.5

    def sym(p, q):
        return np.array([[p, q], [q, p]])

    return {
        "s4_A_pair": sym(-half, 3 * half),  # A2,A3 at the RP^2 end of S^4
        "s4_F_pair": sym(-3 * half, 3 * half),  # F2,F3 gaps at the RP^2 end of S^4
        "cp2_B_pair": sym(-half, 3 * half),  # B1,B2 at the conic end of CP^2
        "s2xs2_A_pair": sym(-1.0, 2.0),  # A1,A2 at an S^2 end of S^2xS^2
        "hitchin_B_pair": sym(-k / 2.0, (k + 2) / 2.0),  # B1,B3 at the O_k orbifold end
        "hitchin_E_pair": sym(-(k + 2) / 2.0, (k + 2) / 2.0),  # E1,E3 gaps at the O_k end
    }


@dataclass(frozen=True)
class DecayReport:
    identically_zero: bool
    fitted_order: Optional[float]
    matched_eigenvalue: Optional[float]
    passed: bool


def germ_decay_check(ts, X, Q) -> DecayReport:
    """Check the leading vanishing order of a 2-component quantity near an end.

    ts: local coordinates approaching 0; X: shape (len(ts), 2).  Fits the
    slope of log |X| against log t and accepts if it matches an eigenvalue of
    the indicial matrix Q within 0.2, or if X sits below a noise floor of 1e-9.
    """
    ts = np.asarray(ts, dtype=float)
    X = np.asarray(X, dtype=float)
    if ts.size < 4:
        raise ValueError("need at least 4 samples for a decay fit")
    mag = np.linalg.norm(X, axis=1)
    if np.max(mag) < 1e-9:
        return DecayReport(True, None, None, True)
    good = mag > 1e-300
    slope, _ = np.polyfit(np.log(ts[good]), np.log(mag[good]), 1)
    eigs = indicial_eigenvalues(Q)
    nearest = min(eigs, key=lambda e: abs(e - slope))
    ok = abs(nearest - slope) <= 0.2
    return DecayReport(False, float(slope), float(nearest) if ok else None, ok)
