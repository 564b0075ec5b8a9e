"""Right-hand sides and algebraic identities for diagonal cohomogeneity-one
Einstein metrics g = dt^2 + sum_i f_i(t)^2 sigma_i^2 with dsigma_i = -2 sigma_j ^ sigma_k.

Triple-valued quantities are numpy arrays of shape (..., 3), indexed
cyclically along the last axis: for index i the companions are j = J[i] =
(i+1) % 3 and k = K[i] = (i+2) % 3.  Every function except frame_rhs takes a
single triple or a batch with any leading shape, and a batch gives exactly
the row-by-row results.  frame_rhs, the integrator's hot path, takes one
triple and evaluates it on scalars.  Every function here is pure; nothing is
mutated.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FrameState",
    "GapState",
    "triple",
    "lr_from_frame",
    "lr_rhs",
    "frame_rhs",
    "constraint_residual",
    "ab_coeffs",
    "ab_rhs",
    "curv_eigs",
    "curv_eigs_rhs",
    "gap_rhs",
    "uij_residual",
]

# cyclic companions j and k of each index i
J = np.array([1, 2, 0])
K = np.array([2, 0, 1])


def triple(x1, x2, x3=None):
    """Build a (3,) float array; accepts three scalars or one sequence."""
    if x3 is None:
        a = np.asarray(x1, dtype=float)
    else:
        a = np.array([x1, x2, x3], dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected 3 components, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"non-finite triple {a}")
    return a


@dataclass(frozen=True)
class FrameState:
    """Metric profile at one arc-length value: t, f_i and df_i/dt."""

    t: float
    f: np.ndarray
    df: np.ndarray

    def require_positive(self):
        bad = np.nonzero(np.asarray(self.f) <= 0.0)[0]
        if bad.size:
            raise ValueError(
                f"f_{bad[0] + 1} = {self.f[bad[0]]} is not positive at t = {self.t}"
            )


@dataclass(frozen=True)
class GapState:
    """Two curvature-eigenvalue gaps; role 'F' pairs with A, 'E' with B."""

    g1: float
    g2: float
    role: str  # "F": (a1-a2, a1-a3); "E": (b2-b1, b2-b3)


def _check_positive(f):
    f = np.asarray(f, dtype=float)
    bad = np.argwhere(f <= 0.0)
    if bad.size:
        at = tuple(bad[0])
        raise ValueError(f"f_{at[-1] + 1} = {f[at]} must be positive")
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
    L = np.asarray(L, dtype=float)
    R = np.asarray(R, dtype=float)
    S = np.sum(L, axis=-1)[..., None]
    dL = -S * L + 2.0 * R**2 - 2.0 * (R[..., J] - R[..., K]) ** 2 - lam
    dR = R * (L - L[..., J] - L[..., K])
    return dL, dR


def _frame_rhs(f1, f2, f3, d1, d2, d3, lam):
    # lr_from_frame and lr_rhs unrolled over one triple, in their operation order
    L1, L2, L3 = d1 / f1, d2 / f2, d3 / f3
    R1, R2, R3 = f1 / (f2 * f3), f2 / (f3 * f1), f3 / (f1 * f2)
    S = L1 + L2 + L3
    e1, e2, e3 = R2 - R3, R3 - R1, R1 - R2
    return (f1 * (-S * L1 + 2.0 * (R1 * R1) - 2.0 * (e1 * e1) - lam + L1 * L1),
            f2 * (-S * L2 + 2.0 * (R2 * R2) - 2.0 * (e2 * e2) - lam + L2 * L2),
            f3 * (-S * L3 + 2.0 * (R3 * R3) - 2.0 * (e3 * e3) - lam + L3 * L3))


def frame_rhs(f, df, lam):
    """Second derivatives f_i'' = f_i (L_i' + L_i^2) of one triple; the
    integrator's native form.

    Evaluated on Python floats, which for a single triple is more than ten
    times cheaper than the array form and gives the same bits.  Where f_j f_k
    underflows to zero Python would raise ZeroDivisionError, so that case is
    redone on np.float64 scalars to give numpy's inf/nan."""
    f = np.asarray(f, dtype=float).tolist()
    f1, f2, f3 = f
    d1, d2, d3 = np.asarray(df, dtype=float).tolist()
    if f1 <= 0.0 or f2 <= 0.0 or f3 <= 0.0:
        i = next(i for i, x in enumerate(f) if x <= 0.0)
        raise ValueError(f"f_{i + 1} = {f[i]} must be positive")
    try:
        return np.array(_frame_rhs(f1, f2, f3, d1, d2, d3, lam))
    except ZeroDivisionError:
        return np.array(_frame_rhs(*map(np.float64, (f1, f2, f3, d1, d2, d3)), lam))


def constraint_residual(L, R, lam):
    """Residual of the conserved constraint
    lambda = -sum R_i^2 + 2 sum_{i<j} R_i R_j - sum_{i<j} L_i L_j."""
    L = np.asarray(L, dtype=float)
    R = np.asarray(R, dtype=float)
    sum_RR = np.sum(R * R[..., J], axis=-1)
    sum_LL = np.sum(L * L[..., J], axis=-1)
    return -np.sum(R**2, axis=-1) + 2.0 * sum_RR - sum_LL - lam


def ab_coeffs(L, R):
    """Connection coefficients on Lambda^2_+/-:
    A_i = L_i + R_j + R_k - R_i,  B_i = L_i - R_j - R_k + R_i."""
    L = np.asarray(L, dtype=float)
    R = np.asarray(R, dtype=float)
    Rj, Rk = R[..., J], R[..., K]
    return L + Rj + Rk - R, L - Rj - Rk + R


def ab_rhs(A, B, R):
    """Evolution of the connection coefficients (cross-check use only):
    A_i' = (R_j + R_k - 3 R_i) A_i - A_i^2 + A_j A_k,
    B_i' = (3 R_i - R_j - R_k) B_i - B_i^2 + B_j B_k."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    R = np.asarray(R, dtype=float)
    Rj, Rk = R[..., J], R[..., K]
    dA = (Rj + Rk - 3.0 * R) * A - A**2 + A[..., J] * A[..., K]
    dB = (3.0 * R - Rj - Rk) * B - B**2 + B[..., J] * B[..., K]
    return dA, dB


def curv_eigs(R, A, B):
    """Curvature-operator eigenvalues in the invariant frames:
    a_i = 2 R_i A_i - A_j A_k on Lambda^2_+,
    b_i = -2 R_i B_i - B_j B_k on Lambda^2_-."""
    R = np.asarray(R, dtype=float)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    a = 2.0 * R * A - A[..., J] * A[..., K]
    b = -2.0 * R * B - B[..., J] * B[..., K]
    return a, b


def curv_eigs_rhs(a, b, A, B):
    """Evolution of the eigenvalue triples (cross-check use only):
    a_i' = -A_j (a_i - a_k) - A_k (a_i - a_j), likewise b with B."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    da = -A[..., J] * (a - a[..., K]) - A[..., K] * (a - a[..., J])
    db = -B[..., J] * (b - b[..., K]) - B[..., K] * (b - b[..., J])
    return da, db


def gap_rhs(g: GapState, coeffs) -> GapState:
    """Derivative of an eigenvalue-gap pair.

    Role "F" evolves (F2, F3) = (a1-a2, a1-a3) with the A coefficients:
        F2' = (A1-A2) F3 - (A1+2A3) F2,   F3' = (A1-A3) F2 - (A1+2A2) F3.
    Role "E" evolves (E1, E3) = (b2-b1, b2-b3) with the B coefficients:
        E1' = (B2-B1) E3 - (B2+2B3) E1,   E3' = (B2-B3) E1 - (2B1+B2) E3.
    """
    c = np.asarray(coeffs, dtype=float)
    if g.role == "F":
        d1 = (c[0] - c[1]) * g.g2 - (c[0] + 2.0 * c[2]) * g.g1
        d2 = (c[0] - c[2]) * g.g1 - (c[0] + 2.0 * c[1]) * g.g2
    elif g.role == "E":
        d1 = (c[1] - c[0]) * g.g2 - (c[1] + 2.0 * c[2]) * g.g1
        d2 = (c[1] - c[2]) * g.g1 - (2.0 * c[0] + c[1]) * g.g2
    else:
        raise ValueError(f"unknown gap role {g.role!r}")
    return GapState(float(d1), float(d2), g.role)


def uij_residual(f, df, ddf):
    """Residual of the ratio equation for u_ij = log(f_i/f_j), pairs
    (1,2), (2,3), (3,1):

        u_ij'' + S u_ij' - 4 (f_i^2 - f_j^2)(f_i^2 + f_j^2 - f_k^2) / (f1 f2 f3)^2.

    Zero along Einstein solutions."""
    f = _check_positive(f)
    df = np.asarray(df, dtype=float)
    ddf = np.asarray(ddf, dtype=float)
    L = df / f
    S = np.sum(L, axis=-1)[..., None]
    # u_i'' relative to a fixed reference: d/dt(L_i) = f_i''/f_i - L_i^2
    dL = ddf / f - L**2
    f2 = f**2
    f2j = f2[..., J]
    src = 4.0 * (f2 - f2j) * (f2 + f2j - f2[..., K]) / np.prod(f2, axis=-1)[..., None]
    return dL - dL[..., J] + S * (L - L[..., J]) - src
