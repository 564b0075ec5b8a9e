"""Singular-orbit boundary data: diagram catalog, Taylor germs, indicial analysis.

A germ is a truncated Taylor expansion f_i(t) = sum_n c[i][n] t^n at a
collapsed orbit, with the slope/parity structure dictated by the smoothness
conditions of the acting group.  Coefficients are found order by order: the
second-order Einstein system, multiplied through by f_i f_j^2 f_k^2, is a
polynomial identity

    P_i := f_i'' f_i f_j^2 f_k^2
           + f_i f_i' (f_j' f_j f_k^2 + f_k' f_k f_j^2)
           - 2 f_i^4 + 2 (f_j^2 - f_k^2)^2 + lambda f_i^2 f_j^2 f_k^2  =  0,

and each Taylor order of P is linear in the coefficients it introduces.
Coefficients the staircase cannot fix are the free germ parameters; they are
the shooting unknowns.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import FrameState, J, K

__all__ = [
    "GroupDiagram",
    "EndCondition",
    "SeriesGerm",
    "IndicialProblem",
    "GermConstructionError",
    "DIAGRAM_IDS",
    "diagram_catalog",
    "get_diagram",
    "end_conditions",
    "series_solve",
    "germ_eval",
    "germ_start_offset",
    "discover_free_parameters",
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
    Indices are 0-based internally.
    """

    kind: str
    collapse: tuple
    slope: float
    pair: tuple  # (b, c); empty for fixed_point
    free: tuple  # free germ parameter names, in unknown-vector order
    k: int = 0

    @property
    def slopes(self):
        s = np.zeros(3)
        for i in self.collapse:
            s[i] = self.slope
        return s


@dataclass(frozen=True)
class GroupDiagram:
    case_id: str
    left: EndCondition
    right: EndCondition
    orbit_volume: float  # volume of G/H with sigma_i orthonormal
    k: int = 0
    chi_tau: Optional[tuple] = None  # expected (chi, tau) for the closed cases

    @property
    def name(self):
        return f"{self.case_id}(k={self.k})" if self.case_id == "so3_hitchin" else self.case_id


def _fixed_point():
    return EndCondition("fixed_point", (0, 1, 2), 1.0, (), ("da", "db"))


def _mirror(a, b, c, slope=4.0):
    return EndCondition("mirror", (a,), slope, (b, c), ("h", "c"))


def _even_pair(a, b, c):
    return EndCondition("even_pair", (a,), 2.0, (b, c), ("q", "d2"))


def _circle(a, b, c):
    return EndCondition("circle", (a,), 1.0, (b, c), ("q", "d4"))


def _orbifold(a, b, c, k):
    return EndCondition("orbifold", (a,), 4.0 / k, (b, c), ("q", "w"), k=k)


def _build_catalog():
    cat = {
        "su2_s4": GroupDiagram(
            "su2_s4", _fixed_point(), _fixed_point(), TWO_PI2, chi_tau=(2, 0)
        ),
        "so3_s4": GroupDiagram(
            "so3_s4", _mirror(0, 1, 2), _mirror(1, 2, 0), np.pi**2 / 4.0, chi_tau=(2, 0)
        ),
        "su2_cp2": GroupDiagram(
            "su2_cp2", _fixed_point(), _circle(2, 0, 1), TWO_PI2, chi_tau=(3, 1)
        ),
        "so3_cp2": GroupDiagram(
            "so3_cp2", _even_pair(0, 1, 2), _mirror(2, 0, 1), np.pi**2 / 2.0, chi_tau=(3, 1)
        ),
        "su2_cp2bar": GroupDiagram(
            "su2_cp2bar", _circle(0, 1, 2), _circle(0, 1, 2), TWO_PI2, chi_tau=(4, 0)
        ),
        "so3_s2xs2": GroupDiagram(
            "so3_s2xs2", _even_pair(2, 0, 1), _even_pair(0, 1, 2), np.pi**2, chi_tau=(4, 0)
        ),
    }
    return cat


_CATALOG = _build_catalog()
DIAGRAM_IDS = tuple(_CATALOG) + ("so3_hitchin",)


def get_diagram(case_id, k=0) -> GroupDiagram:
    if case_id == "so3_hitchin":
        if k < 1:
            raise ValueError("so3_hitchin requires k >= 1")
        if k == 1:
            base = _CATALOG["so3_s4"]
            return GroupDiagram("so3_hitchin", base.left, base.right,
                                base.orbit_volume, k=1, chi_tau=base.chi_tau)
        return GroupDiagram(
            "so3_hitchin", _mirror(0, 1, 2), _orbifold(1, 2, 0, k),
            np.pi**2 / 4.0, k=k,
        )
    try:
        return _CATALOG[case_id]
    except KeyError:
        raise ValueError(f"unknown diagram id {case_id!r}") from None


def diagram_catalog(k_values=(1, 2, 3)):
    """The seven cases; Hitchin instantiated at the requested k values."""
    out = [get_diagram(cid) for cid in _CATALOG]
    out += [get_diagram("so3_hitchin", k) for k in k_values]
    return out


def end_conditions(diagram: GroupDiagram, which: str) -> EndCondition:
    if which == "left":
        return diagram.left
    if which == "right":
        return diagram.right
    raise ValueError(f"which must be 'left' or 'right', got {which!r}")


# --------------------------------------------------------------------------
# slot structure of an end
# --------------------------------------------------------------------------

@dataclass
class _Slot:
    name: str
    placements: list  # [(i, n, coefficient)]
    order: int  # smallest Taylor power it touches


@dataclass
class _Structure:
    base: np.ndarray  # (3, N+1) fixed coefficients
    slots: list
    free_slots: dict  # parameter name -> slot index
    N: int


def _structure(end: EndCondition, N: int) -> _Structure:
    base = np.zeros((3, N + 1))
    slots = []

    def add(name, placements, order):
        slots.append(_Slot(name, placements, order))
        return len(slots) - 1

    free = {}
    if end.kind == "fixed_point":
        for i in range(3):
            base[i, 1] = 1.0
            for n in range(3, N + 1, 2):
                s = add(f"c{i + 1},{n}", [(i, n, 1.0)], n)
                if n == 3 and i == 0:
                    free["da"] = s
                if n == 3 and i == 1:
                    free["db"] = s
    elif end.kind == "mirror":
        (a,), (b, c) = end.collapse, end.pair
        base[a, 1] = end.slope
        for n in range(3, N + 1, 2):
            add(f"c{a + 1},{n}", [(a, n, 1.0)], n)
        for n in range(N + 1):
            s = add(f"c{b + 1},{n}", [(b, n, 1.0), (c, n, (-1.0) ** n)], n)
            if n == 0:
                free["h"] = s
            elif n == 1:
                free["c"] = s
    elif end.kind in ("even_pair", "circle"):
        (a,), (b, c) = end.collapse, end.pair
        base[a, 1] = end.slope
        for n in range(3, N + 1, 2):
            add(f"c{a + 1},{n}", [(a, n, 1.0)], n)
        free["q"] = add("q", [(b, 0, 1.0), (c, 0, 1.0)], 0)
        if end.kind == "circle":
            add("e2", [(b, 2, 1.0), (c, 2, 1.0)], 2)
            lo = 4
        else:
            lo = 2
        for n in range(lo, N + 1, 2):
            for i in (b, c):
                s = add(f"c{i + 1},{n}", [(i, n, 1.0)], n)
                if i == c and n == lo:
                    free["d2" if end.kind == "even_pair" else "d4"] = s
    elif end.kind == "orbifold":
        (a,), (b, c) = end.collapse, end.pair
        k = end.k
        base[a, 1] = end.slope
        for n in range(3, N + 1, 2):
            add(f"c{a + 1},{n}", [(a, n, 1.0)], n)
        free["q"] = add("q", [(b, 0, 1.0), (c, 0, 1.0)], 0)
        for n in range(2, N + 1, 2):
            add(f"p{n}", [(b, n, 1.0), (c, n, 1.0)], n)
        for n in range(k, N + 1, 2):
            s = add(f"w{n}", [(b, n, 1.0), (c, n, -1.0)], n)
            if n == k:
                free["w"] = s
    else:
        raise ValueError(f"unknown end kind {end.kind!r}")

    assert set(free) == set(end.free), (end, free)
    return _Structure(base, slots, free, N)


def _apply(structure: _Structure, values: np.ndarray) -> np.ndarray:
    """Coefficient matrix for a slot-value vector (supports leading batch axes)."""
    values = np.asarray(values, dtype=float)
    batch = values.shape[:-1]
    c = np.broadcast_to(structure.base, batch + (3, structure.N + 1)).copy()
    for s, slot in enumerate(structure.slots):
        for i, n, coef in slot.placements:
            c[..., i, n] += coef * values[..., s]
    return c


# --------------------------------------------------------------------------
# polynomial residual
# --------------------------------------------------------------------------

def _pmul(a, b, L):
    """Truncated product of coefficient arrays along the last axis."""
    out = np.zeros(a.shape[:-1] + (L,))
    la, lb = a.shape[-1], b.shape[-1]
    for p in range(min(la, L)):
        w = min(lb, L - p)
        out[..., p:p + w] += a[..., p:p + 1] * b[..., :w]
    return out


def _pder(a):
    n = np.arange(1, a.shape[-1])
    return a[..., 1:] * n


def _poly_residual(c, lam, L):
    """Taylor coefficients of P_i, shape (..., 3, L); c has shape (..., 3, N+1)."""
    f = c
    d = _pder(f)
    dd = _pder(d)
    fj, fk = f[..., J, :], f[..., K, :]
    dj, dk = d[..., J, :], d[..., K, :]
    f2 = _pmul(f, f, L)
    fj2, fk2 = f2[..., J, :], f2[..., K, :]
    jk2 = _pmul(fj2, fk2, L)
    diff = fj2 - fk2
    term1 = _pmul(_pmul(dd, f, L), jk2, L)
    cross = _pmul(_pmul(dj, fj, L), fk2, L) + _pmul(_pmul(dk, fk, L), fj2, L)
    term2 = _pmul(_pmul(f, d, L), cross, L)
    term3 = -2.0 * _pmul(f2, f2, L)
    term4 = 2.0 * _pmul(diff, diff, L)
    term5 = lam * _pmul(f2, jk2, L)
    return term1 + term2 + term3 + term4 + term5


# --------------------------------------------------------------------------
# order-by-order solve
# --------------------------------------------------------------------------

_M0_CACHE = {}


def _slot_first_orders(end: EndCondition, lam_probe, N, L):
    """First Taylor order of P affected by each slot, at a generic point."""
    key = (end.kind, end.collapse, end.pair, end.k, round(end.slope, 12), N)
    if key in _M0_CACHE:
        return _M0_CACHE[key]
    st = _structure(end, N)
    rng = np.random.default_rng(12345)
    g = rng.uniform(0.3, 1.1, size=len(st.slots))
    base_r = _poly_residual(_apply(st, g), lam_probe, L)
    scale = max(np.max(np.abs(base_r)), 1.0)
    m0 = np.full(len(st.slots), L, dtype=int)
    probes = np.tile(g, (len(st.slots), 1))
    probes[np.arange(len(st.slots)), np.arange(len(st.slots))] += 1.0
    r = _poly_residual(_apply(st, probes), lam_probe, L)
    delta = np.abs(r - base_r)  # (slots, 3, L)
    hit = delta.max(axis=1) > 1e-9 * scale
    for s in range(len(st.slots)):
        nz = np.nonzero(hit[s])[0]
        if nz.size == 0:
            raise GermConstructionError(f"slot {st.slots[s].name} never enters the residual")
        m0[s] = nz[0]
    _M0_CACHE[key] = m0
    return m0


def _staircase(end, st, values, determined, lam, L, m_stop, rtol=1e-9):
    """Solve dependent slots order by order in place, through order m_stop."""
    m0 = _slot_first_orders(end, lam_probe=1.7, N=st.N, L=L)
    nslots = len(st.slots)
    for m in range(m_stop + 1):
        S_m = [s for s in range(nslots) if not determined[s] and m0[s] == m]
        # one batched residual call: current values plus +/- unit probes
        probes = np.tile(values, (1 + 2 * len(S_m), 1))
        for j, s in enumerate(S_m):
            probes[1 + 2 * j, s] += 1.0
            probes[2 + 2 * j, s] -= 1.0
        r = _poly_residual(_apply(st, probes), lam, L)
        scale = max(np.max(np.abs(r[0])), 1.0)
        rm = r[0, :, m]
        if not S_m:
            if np.max(np.abs(rm)) > rtol * scale:
                raise GermConstructionError(
                    f"inconsistent equations at order {m} with no unknowns left to fix"
                )
            continue
        rp = r[1::2, :, m]
        rn = r[2::2, :, m]
        A = 0.5 * (rp - rn).T  # (3, |S_m|)
        curv = np.max(np.abs(rp + rn - 2.0 * rm))
        if curv > 1e-7 * scale:
            raise GermConstructionError(
                f"equations at order {m} are not linear in the order-{m} coefficients"
            )
        x, _, rank, _ = np.linalg.lstsq(A, -rm, rcond=1e-10)
        if rank < len(S_m):
            raise GermConstructionError(
                f"singular linear solve at order {m} (rank {rank} < {len(S_m)}): "
                "resonance or misdeclared free parameter"
            )
        if np.max(np.abs(A @ x + rm)) > max(rtol * scale, 1e-6 * np.max(np.abs(rm))):
            raise GermConstructionError(f"inconsistent linear system at order {m}")
        values[S_m] += x
        for s in S_m:
            determined[s] = True
    return m_stop


# --------------------------------------------------------------------------
# public germ interface
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesGerm:
    """Truncated Taylor germ at a singular orbit, in the local coordinate
    increasing away from the orbit."""

    end: EndCondition
    lam: float
    order: int
    coeffs: np.ndarray  # (3, order+1)
    free_values: dict
    radius: float = 0.5

    def eval(self, t):
        """(f, df) at local coordinate t; t may be an array."""
        t = np.asarray(t, dtype=float)
        if np.any(t > self.radius) or np.any(t <= 0.0):
            raise ValueError(f"t outside germ validity window (0, {self.radius}]")
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

    def state(self, t) -> FrameState:
        f, df = self.eval(t)
        return FrameState(float(t), f, df)


def series_solve(end: EndCondition, free, lam, order=8, radius=0.5) -> SeriesGerm:
    """Construct the Taylor germ with the given free-parameter values.

    free: mapping of the end's free parameter names to values, or a sequence
    in the order of end.free.
    """
    if order < 4:
        raise ValueError("germ order must be at least 4")
    if not isinstance(free, dict):
        free = dict(zip(end.free, free))
    if set(free) != set(end.free):
        raise ValueError(f"free parameters {set(end.free)} required, got {set(free)}")
    for name in ("h", "q"):
        if name in free and free[name] <= 0.0:
            raise ValueError(f"germ parameter {name} must be positive, got {free[name]}")

    # pad the internal ansatz so every equation we use has its coefficients
    n_big = order + 8
    st = _structure(end, n_big)
    L = n_big + 4
    m0 = _slot_first_orders(end, lam_probe=1.7, N=n_big, L=L)
    wanted = [s for s, slot in enumerate(st.slots) if slot.order <= order]
    m_stop = int(max(m0[s] for s in wanted))
    values = np.zeros(len(st.slots))
    determined = np.zeros(len(st.slots), dtype=bool)
    for name, s in st.free_slots.items():
        values[s] = free[name]
        determined[s] = True
    _staircase(end, st, values, determined, lam, L, m_stop)
    missing = [st.slots[s].name for s in wanted if not determined[s]]
    if missing:
        raise GermConstructionError(f"coefficients left undetermined: {missing}")
    coeffs = _apply(st, values)[:, : order + 1]
    return SeriesGerm(end, lam, order, coeffs, dict(free), radius)


def germ_eval(germ: SeriesGerm, t) -> FrameState:
    return germ.state(t)


def germ_start_offset(germ: SeriesGerm, target=1e-12):
    """Largest handoff offset at which the truncated germ still satisfies the
    second-order system to the requested accuracy.

    Compares the germ's own second derivative against the right-hand side
    evaluated on (f, df) over a log-spaced grid and picks the largest offset
    below the defect target.
    """
    from .core import frame_rhs

    eps_grid = germ.radius * np.logspace(-0.5, -3.0, 26)
    best, best_defect = eps_grid[-1], np.inf
    for eps in eps_grid:
        f, df = germ.eval(eps)
        rhs = frame_rhs(f, df, germ.lam)
        # relative defect: near a collapse the rhs grows like 1/t^2 and the
        # absolute defect bottoms out at roundoff of that magnitude
        defect = np.max(np.abs(rhs - germ.eval_second(eps))) / (1.0 + np.max(np.abs(rhs)))
        if defect < target:
            return float(eps)
        if defect < best_defect:
            best, best_defect = eps, defect
    return float(best)


def discover_free_parameters(end: EndCondition, lam=1.7, order=8):
    """Constructively find which germ coefficients the staircase cannot fix.

    Runs the order-by-order solve with no declared free parameters; whenever
    the linear system at some order is rank deficient, the excess directions
    are pinned (largest null-vector component, lowest order first) and
    reported as free.  Returns slot names in discovery order.
    """
    n_big = order + 8
    st = _structure(end, n_big)
    L = n_big + 4
    m0 = _slot_first_orders(end, lam_probe=1.7, N=n_big, L=L)
    wanted = [s for s, slot in enumerate(st.slots) if slot.order <= order]
    m_stop = int(max(m0[s] for s in wanted))
    rng = np.random.default_rng(777)
    values = rng.uniform(0.4, 1.2, size=len(st.slots))
    determined = np.zeros(len(st.slots), dtype=bool)
    freed = []
    for m in range(m_stop + 1):
        S_m = [s for s in range(len(st.slots)) if not determined[s] and m0[s] == m]
        if not S_m:
            continue
        r = _poly_residual(_apply(st, values), lam, L)
        rm = r[:, m]
        plus = np.tile(values, (len(S_m), 1))
        minus = plus.copy()
        plus[np.arange(len(S_m)), S_m] += 1.0
        minus[np.arange(len(S_m)), S_m] -= 1.0
        rp = _poly_residual(_apply(st, plus), lam, L)[:, :, m]
        rn = _poly_residual(_apply(st, minus), lam, L)[:, :, m]
        A = 0.5 * (rp - rn).T
        while True:
            rank = np.linalg.matrix_rank(A, tol=1e-8 * max(1.0, np.abs(A).max()))
            if rank >= len(S_m):
                break
            # pin the most null direction, preferring low-order slots
            _, _, vh = np.linalg.svd(A)
            null = vh[-1]
            pick = max(range(len(S_m)), key=lambda j: (abs(null[j]), -st.slots[S_m[j]].order))
            s = S_m.pop(pick)
            freed.append(st.slots[s].name)
            determined[s] = True  # keeps its random generic value
            A = np.delete(A, pick, axis=1)
            if not S_m:
                break
        if S_m:
            x, *_ = np.linalg.lstsq(A, -rm, rcond=1e-10)
            values[S_m] += x
            determined[np.asarray(S_m)] = True
    return freed


# --------------------------------------------------------------------------
# indicial analysis (regular singular points t X' = Q X + t B(t) X)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IndicialProblem:
    Q: np.ndarray
    tag: str = ""


def indicial_eigenvalues(p: IndicialProblem):
    """Closed-form eigenvalues of the 2x2 indicial matrix, ascending."""
    Q = np.asarray(p.Q, dtype=float)
    tr = Q[0, 0] + Q[1, 1]
    disc = np.sqrt((Q[0, 0] - Q[1, 1]) ** 2 + 4.0 * Q[0, 1] * Q[1, 0])
    return (tr - disc) / 2.0, (tr + disc) / 2.0


def indicial_catalog(k=2):
    """The indicial problems arising at the singular orbits."""
    half = 0.5

    def sym(p, q, tag):
        return IndicialProblem(np.array([[p, q], [q, p]]), tag)

    return {
        "s4_A_pair": sym(-half, 3 * half, "A2,A3 at the RP^2 end of S^4"),
        "s4_F_pair": sym(-3 * half, 3 * half, "F2,F3 gaps at the RP^2 end of S^4"),
        "cp2_B_pair": sym(-half, 3 * half, "B1,B2 at the conic end of CP^2"),
        "s2xs2_A_pair": sym(-1.0, 2.0, "A1,A2 at an S^2 end of S^2xS^2"),
        "hitchin_B_pair": sym(-k / 2.0, (k + 2) / 2.0, f"B1,B3 at the O_{k} orbifold end"),
        "hitchin_E_pair": sym(-(k + 2) / 2.0, (k + 2) / 2.0, f"E1,E3 gaps at the O_{k} orbifold end"),
    }


@dataclass(frozen=True)
class DecayReport:
    identically_zero: bool
    fitted_order: Optional[float]
    matched_eigenvalue: Optional[float]
    passed: bool


def germ_decay_check(ts, X, p: IndicialProblem, noise_floor=1e-9, tol=0.2) -> DecayReport:
    """Check the leading vanishing order of a 2-component quantity near an end.

    ts: local coordinates approaching 0; X: shape (len(ts), 2).  Fits the
    slope of log |X| against log t and accepts if it matches an eigenvalue of
    the indicial matrix within tol, or if X sits below the noise floor.
    """
    ts = np.asarray(ts, dtype=float)
    X = np.asarray(X, dtype=float)
    if ts.size < 4:
        raise ValueError("need at least 4 samples for a decay fit")
    mag = np.linalg.norm(X, axis=1)
    if np.max(mag) < noise_floor:
        return DecayReport(True, None, None, True)
    good = mag > 1e-300
    slope, _ = np.polyfit(np.log(ts[good]), np.log(mag[good]), 1)
    eigs = indicial_eigenvalues(p)
    nearest = min(eigs, key=lambda e: abs(e - slope))
    ok = abs(nearest - slope) <= tol
    return DecayReport(False, float(slope), float(nearest) if ok else None, ok)
