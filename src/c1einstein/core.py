"""Right-hand sides and algebraic identities for diagonal cohomogeneity-one
Einstein metrics g = dt^2 + sum_i f_i(t)^2 sigma_i^2 with dsigma_i = -2 sigma_j ^ sigma_k.

Triple-valued quantities are numpy arrays of shape (..., 3), indexed
cyclically along the last axis: for index i the companions are j = J[i] =
(i+1) % 3 and k = K[i] = (i+2) % 3.  Each function takes a single triple or
a batch with any leading shape, a batch giving exactly the row-by-row
results, except the integrator's hot path frame_slope (one state as six
Python floats) and its array form frame_rhs (one triple).  Profiles are
coerced and checked where they enter; derived triples (L, R, A, B, a, b)
arrive as arrays.  Every function here is pure; nothing is mutated.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NonPositiveProfile",
    "GapState",
    "lr_from_frame",
    "lr_rhs",
    "frame_slope",
    "frame_rhs",
    "constraint_residual",
    "ab_coeffs",
    "ab_rhs",
    "curv_eigs",
    "frame_curvature",
    "curv_eigs_rhs",
    "gap_rhs",
    "uij_residual",
]

# cyclic companions j and k of each index i
J = np.array([1, 2, 0])
K = np.array([2, 0, 1])


@dataclass(frozen=True)
class GapState:
    """Two curvature-eigenvalue gaps; role 'F' pairs with A, 'E' with B."""

    g1: float
    g2: float
    role: str  # "F": (a1-a2, a1-a3); "E": (b2-b1, b2-b3)


class NonPositiveProfile(ValueError):
    """Some f_i is not positive, so the frame quantities are undefined."""


def _check_positive(f):
    f = np.asarray(f, dtype=float)
    bad = np.argwhere(f <= 0.0)
    if bad.size:
        at = tuple(bad[0])
        raise NonPositiveProfile(f"f_{at[-1] + 1} = {f[at]} must be positive")
    return f


def lr_from_frame(f, df):
    """Logarithmic derivatives L_i = f_i'/f_i, ratios R_i = f_i/(f_j f_k),
    and the principal-orbit mean curvature S = sum L_i."""
    f = _check_positive(f)
    df = np.asarray(df, dtype=float)
    L = df / f
    R = f / (f[..., J] * f[..., K])
    return L, R, np.sum(L, axis=-1)


def lr_rhs(L, R, lam):
    """First-order evolution of (L, R):
    L_i' = -S L_i + 2 R_i^2 - 2 (R_j - R_k)^2 - lambda,
    R_i' = R_i (L_i - L_j - L_k)."""
    S = np.sum(L, axis=-1)[..., None]
    dL = -S * L + 2.0 * R**2 - 2.0 * (R[..., J] - R[..., K]) ** 2 - lam
    dR = R * (L - L[..., J] - L[..., K])
    return dL, dR


def frame_slope(f1, f2, f3, d1, d2, d3, lam):
    """Slope (f', f'') of one state (f, f'), six Python floats, as six floats:
    lr_from_frame and lr_rhs unrolled over one state, in their operation order.
    An f_j f_k that underflows to 0 gives R_i = inf, numpy's f_i / 0.0."""
    if f1 <= 0.0 or f2 <= 0.0 or f3 <= 0.0:
        _check_positive((f1, f2, f3))
    L1, L2, L3 = d1 / f1, d2 / f2, d3 / f3
    try:
        R1, R2, R3 = f1 / (f2 * f3), f2 / (f3 * f1), f3 / (f1 * f2)
    except ZeroDivisionError:
        R1, R2, R3 = (f / q if q else f * math.inf
                      for f, q in ((f1, f2 * f3), (f2, f3 * f1), (f3, f1 * f2)))
    nS = -(L1 + L2 + L3)
    e1, e2, e3 = R2 - R3, R3 - R1, R1 - R2
    return (d1, d2, d3, f1 * (nS * L1 + 2.0 * (R1 * R1) - 2.0 * (e1 * e1) - lam + L1 * L1),
            f2 * (nS * L2 + 2.0 * (R2 * R2) - 2.0 * (e2 * e2) - lam + L2 * L2),
            f3 * (nS * L3 + 2.0 * (R3 * R3) - 2.0 * (e3 * e3) - lam + L3 * L3))


def frame_rhs(f, df, lam):
    """Second derivatives f_i'' = f_i (L_i' + L_i^2) of one triple, as an array."""
    (f1, f2, f3), (d1, d2, d3) = map(float, f), map(float, df)
    return np.array(frame_slope(f1, f2, f3, d1, d2, d3, lam)[3:])


def constraint_residual(L, R, lam):
    """Residual of the conserved constraint
    lambda = -sum R_i^2 + 2 sum_{i<j} R_i R_j - sum_{i<j} L_i L_j."""
    sum_RR = np.sum(R * R[..., J], axis=-1)
    sum_LL = np.sum(L * L[..., J], axis=-1)
    return -np.sum(R**2, axis=-1) + 2.0 * sum_RR - sum_LL - lam


def ab_coeffs(L, R):
    """Connection coefficients on Lambda^2_+/-:
    A_i = L_i + R_j + R_k - R_i,  B_i = L_i - R_j - R_k + R_i."""
    Rj, Rk = R[..., J], R[..., K]
    return L + Rj + Rk - R, L - Rj - Rk + R


def ab_rhs(A, B, R):
    """Evolution of the connection coefficients (cross-check use only):
    A_i' = (R_j + R_k - 3 R_i) A_i - A_i^2 + A_j A_k,
    B_i' = (3 R_i - R_j - R_k) B_i - B_i^2 + B_j B_k."""
    Rj, Rk = R[..., J], R[..., K]
    dA = (Rj + Rk - 3.0 * R) * A - A**2 + A[..., J] * A[..., K]
    dB = (3.0 * R - Rj - Rk) * B - B**2 + B[..., J] * B[..., K]
    return dA, dB


def curv_eigs(R, A, B):
    """Curvature-operator eigenvalues in the invariant frames:
    a_i = 2 R_i A_i - A_j A_k on Lambda^2_+,
    b_i = -2 R_i B_i - B_j B_k on Lambda^2_-."""
    a = 2.0 * R * A - A[..., J] * A[..., K]
    b = -2.0 * R * B - B[..., J] * B[..., K]
    return a, b


def frame_curvature(f, df):
    """The chain lr_from_frame -> ab_coeffs -> curv_eigs on profiles (f, df):
    returns L, R, A, B, a, b."""
    L, R, _ = lr_from_frame(f, df)
    A, B = ab_coeffs(L, R)
    a, b = curv_eigs(R, A, B)
    return L, R, A, B, a, b


def curv_eigs_rhs(a, b, A, B):
    """Evolution of the eigenvalue triples (cross-check use only):
    a_i' = -A_j (a_i - a_k) - A_k (a_i - a_j), likewise b with B."""
    da = -A[..., J] * (a - a[..., K]) - A[..., K] * (a - a[..., J])
    db = -B[..., J] * (b - b[..., K]) - B[..., K] * (b - b[..., J])
    return da, db


def gap_rhs(g: GapState, coeffs) -> GapState:
    """Derivative of an eigenvalue-gap pair.

    Role "F" evolves (F2, F3) = (a1-a2, a1-a3) with the A coefficients:
        F2' = (A1-A2) F3 - (A1+2A3) F2,   F3' = (A1-A3) F2 - (A1+2A2) F3.
    Role "E" evolves (E1, E3) = (b2-b1, b2-b3) with the B coefficients:
        E1' = (B2-B1) E3 - (B2+2B3) E1,   E3' = (B2-B3) E1 - (2B1+B2) E3,
    which is role "F"'s law with the first two coefficients swapped.
    """
    c0, c1, c2 = coeffs
    if g.role == "E":
        c0, c1 = c1, c0
    elif g.role != "F":
        raise ValueError(f"unknown gap role {g.role!r}")
    d1 = (c0 - c1) * g.g2 - (c0 + 2.0 * c2) * g.g1
    d2 = (c0 - c2) * g.g1 - (c0 + 2.0 * c1) * g.g2
    return GapState(float(d1), float(d2), g.role)


def uij_residual(f, df, ddf):
    """Residual of the ratio equation for u_ij = log(f_i/f_j), pairs
    (1,2), (2,3), (3,1):

        u_ij'' + S u_ij' - 4 (f_i^2 - f_j^2)(f_i^2 + f_j^2 - f_k^2) / (f1 f2 f3)^2.

    Zero along Einstein solutions."""
    L, _, S = lr_from_frame(f, df)
    f = np.asarray(f, dtype=float)
    ddf = np.asarray(ddf, dtype=float)
    # u_i'' relative to a fixed reference: d/dt(L_i) = f_i''/f_i - L_i^2
    dL = ddf / f - L**2
    f2 = f**2
    f2j = f2[..., J]
    src = 4.0 * (f2 - f2j) * (f2 + f2j - f2[..., K]) / np.prod(f2, axis=-1)[..., None]
    return dL - dL[..., J] + S[..., None] * (L - L[..., J]) - src
