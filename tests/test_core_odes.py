"""Algebraic layer: right-hand sides, conserved quantities, curvature
eigenvalues, and their mutual consistency.

Reference values are frozen from the closed-form profiles in
c1einstein.oracles, which are validated independently here by checking the
first integral and the second-order equations by finite differences.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c1einstein import core
from c1einstein.oracles import ORACLE_IDS, oracle

RNG = np.random.default_rng(42)


def random_state(rng):
    f = rng.uniform(0.3, 2.5, 3)
    df = rng.uniform(-1.5, 1.5, 3)
    return f, df


# ---------------------------------------------------------------------------
# basic contracts
# ---------------------------------------------------------------------------

def test_positive_profile_enforced_with_index_in_message():
    with pytest.raises(ValueError, match="f_2"):
        core.lr_from_frame([1.0, -0.5, 1.0], [0.0, 0.0, 0.0])


def test_lr_from_frame_round_values():
    # f_i = sin t at t = pi/3: L_i = cot(pi/3), R_i = 1/sin(pi/3)
    t = np.pi / 3
    f = np.full(3, np.sin(t))
    df = np.full(3, np.cos(t))
    L, R, S = core.lr_from_frame(f, df)
    assert np.allclose(L, 1 / np.tan(t), atol=1e-15)
    assert np.allclose(R, 1 / np.sin(t), atol=1e-15)
    assert np.isclose(S, 3 / np.tan(t))


def _slope_rhs(f, df, lam):
    # the step loop's entry on six floats, its f'' part as an array; every
    # Python float it returns, the np.float64 fallback's included
    out = core.frame_slope(*map(float, f), *map(float, df), lam)
    assert isinstance(out, tuple) and all(type(v) is float for v in out)
    assert out[:3] == tuple(map(float, df))
    return np.array(out[3:])


# each contract below holds for both forms of the frame right-hand side
RHS_FORMS = (core.frame_rhs, _slope_rhs)


@pytest.mark.parametrize("i", range(3))
@pytest.mark.parametrize("bad", [0.0, -0.5])
def test_frame_rhs_rejects_nonpositive_component(i, bad):
    f = [1.0, 1.0, 1.0]
    f[i] = bad
    for rhs in RHS_FORMS:
        with pytest.raises(ValueError, match=f"f_{i + 1}"):
            rhs(f, [0.0, 0.0, 0.0], 3.0)


def test_positivity_failures_are_typed():
    with pytest.raises(core.NonPositiveProfile):
        core.frame_rhs([1.0, 0.0, 1.0], [0.0, 0.0, 0.0], 3.0)
    with pytest.raises(core.NonPositiveProfile):
        core.uij_residual([1.0, 1.0, -1.0], [0.0] * 3, [0.0] * 3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_frame_rhs_underflow_gives_nan_not_an_exception():
    # f_j f_k underflows to zero: numpy's inf/nan, never ZeroDivisionError
    for rhs in RHS_FORMS:
        out = rhs((1e-170,) * 3, (0.0, 0.0, 0.0), 3.0)
        assert out.shape == (3,) and np.all(np.isnan(out))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_frame_rhs_overflow_values():
    for rhs in RHS_FORMS:
        out = rhs((1e200, 1e200, 1e-100), (1e200, 1.0, 1.0), 3.0)
        assert np.array_equal(out, [-2e200, -3e200, 0.0])


def _slope_on_float64(f1, f2, f3, d1, d2, d3, lam):
    # the reference: the unrolled law with every operation on np.float64,
    # where f_i / 0.0 is numpy's inf (or nan) instead of an exception
    f1, f2, f3, d1, d2, d3 = map(np.float64, (f1, f2, f3, d1, d2, d3))
    with np.errstate(all="ignore"):
        L1, L2, L3 = d1 / f1, d2 / f2, d3 / f3
        R1, R2, R3 = f1 / (f2 * f3), f2 / (f3 * f1), f3 / (f1 * f2)
        S = L1 + L2 + L3
        e1, e2, e3 = R2 - R3, R3 - R1, R1 - R2
        return (d1, d2, d3, f1 * (-S * L1 + 2.0 * (R1 * R1) - 2.0 * (e1 * e1) - lam + L1 * L1),
                f2 * (-S * L2 + 2.0 * (R2 * R2) - 2.0 * (e2 * e2) - lam + L2 * L2),
                f3 * (-S * L3 + 2.0 * (R3 * R3) - 2.0 * (e3 * e3) - lam + L3 * L3))


def test_frame_slope_matches_the_float64_law_at_the_edges():
    # underflowing, subnormal, huge and non-finite components mixed with
    # normal ones: the Python-float law gives numpy's values, with no
    # warning, finite outputs equal and NaNs in the same places
    edge = [1e-200, 1e-170, 1e-160, 5e-324, 1e200, np.nan, np.inf]
    rng = np.random.default_rng(7)
    f_pool = edge + [0.3, 1.0, 2.5]
    df_pool = edge + [-x for x in edge[:5]] + [0.0, -1.5, 0.7, 2.0]
    for _ in range(3000):
        state = [float(rng.choice(f_pool)) for _ in range(3)]
        state += [float(rng.choice(df_pool)) for _ in range(3)]
        lam = float(rng.choice([-3.0, 0.0, 3.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = core.frame_slope(*state, lam)
        assert all(type(v) is float for v in out)
        assert np.array_equal(out, _slope_on_float64(*state, lam), equal_nan=True), state


def test_frame_rhs_accepts_lists():
    ref = core.frame_rhs(np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, -1.0]), 3.0)
    for rhs in RHS_FORMS:
        out = rhs([1, 2, 3], [0, 1, -1], 3.0)
        assert isinstance(out, np.ndarray) and out.dtype == float
        assert np.array_equal(out, ref)


# ---------------------------------------------------------------------------
# closed-form profiles satisfy everything
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ORACLE_IDS)
def test_oracle_constraint_zero(name):
    prof = oracle(name)
    for t in np.linspace(0.15, prof.T - 0.15, 9):
        L, R, _ = core.lr_from_frame(prof.f(t), prof.df(t))
        assert abs(core.constraint_residual(L, R, prof.lam)) < 1e-12


@pytest.mark.parametrize("name", ORACLE_IDS)
def test_oracle_satisfies_second_order_system(name):
    prof = oracle(name)
    h = 1e-5
    for t in np.linspace(0.2, prof.T - 0.2, 5):
        ddf_fd = (prof.f(t + h) - 2 * prof.f(t) + prof.f(t - h)) / h**2
        ddf = core.frame_rhs(prof.f(t), prof.df(t), prof.lam)
        assert np.max(np.abs(ddf - ddf_fd)) < 5e-5


@pytest.mark.parametrize("name", ORACLE_IDS)
def test_oracle_ratio_equation_zero(name):
    prof = oracle(name)
    for t in np.linspace(0.2, prof.T - 0.2, 5):
        f, df = prof.f(t), prof.df(t)
        ddf = core.frame_rhs(f, df, prof.lam)
        assert np.max(np.abs(core.uij_residual(f, df, ddf))) < 1e-9


def test_round_curvature_eigenvalues_constant():
    # unit round S^4: curvature operator is the identity times lambda/3 = 1
    prof = oracle("round_su2")
    for t in (0.4, 1.1, 2.0):
        L, R, _ = core.lr_from_frame(prof.f(t), prof.df(t))
        A, B = core.ab_coeffs(L, R)
        a, b = core.curv_eigs(R, A, B)
        assert np.allclose(a, 1.0, atol=1e-12)
        assert np.allclose(b, 1.0, atol=1e-12)


def test_fs_anti_self_dual_side_flat():
    # Fubini-Study in this frame: one Weyl half vanishes, the other has
    # eigenvalues (0, 0, lambda) on the b side
    prof = oracle("fs_su2", lam=3.0)
    for t in (0.3, 0.9, 1.6):
        L, R, _ = core.lr_from_frame(prof.f(t), prof.df(t))
        A, B = core.ab_coeffs(L, R)
        a, b = core.curv_eigs(R, A, B)
        assert np.allclose(a, 1.0, atol=1e-12)
        assert np.allclose(np.sort(b), [0.0, 0.0, 3.0], atol=1e-12)


# ---------------------------------------------------------------------------
# conserved quantities and trace identities
# ---------------------------------------------------------------------------

def test_trace_identity_on_einstein_states():
    # sum a_i = sum b_i = lambda whenever the constraint holds
    for name in ORACLE_IDS:
        prof = oracle(name)
        for t in (0.3, 0.7 * prof.T):
            L, R, _ = core.lr_from_frame(prof.f(t), prof.df(t))
            A, B = core.ab_coeffs(L, R)
            a, b = core.curv_eigs(R, A, B)
            assert abs(np.sum(a) - prof.lam) < 1e-11
            assert abs(np.sum(b) - prof.lam) < 1e-11


def test_constraint_is_first_integral_of_lr_flow():
    # d/dt of the constraint residual vanishes along the (L, R) evolution
    rng = np.random.default_rng(7)
    for _ in range(20):
        L = rng.uniform(-1, 1, 3)
        R = rng.uniform(0.2, 2.0, 3)
        lam = rng.uniform(0.5, 5.0)
        h = 1e-6
        dL, dR = core.lr_rhs(L, R, lam)
        c_p = core.constraint_residual(L + h * dL, R + h * dR, lam)
        c_m = core.constraint_residual(L - h * dL, R - h * dR, lam)
        c_0 = core.constraint_residual(L, R, lam)
        # the derivative of the residual is proportional to the residual
        # itself; near the constraint set it must vanish to first order
        drift = (c_p - c_m) / (2 * h)
        assert abs(drift) < 20.0 * abs(c_0) + 1e-8


# ---------------------------------------------------------------------------
# index-relabeling equivariance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
def test_full_permutation_equivariance(perm):
    """The system is invariant under any relabeling of the three directions:
    every permutation is induced by a rotation of the frame (swapping two
    axes and flipping the third preserves orientation, and the sign flip is
    invisible to the squared coefficients)."""
    rng = np.random.default_rng(11)
    f, df = random_state(rng)
    lam = 2.3
    p = np.asarray(perm)
    L, R, _ = core.lr_from_frame(f, df)
    A, B = core.ab_coeffs(L, R)
    a, b = core.curv_eigs(R, A, B)
    Lp, Rp, _ = core.lr_from_frame(f[p], df[p])
    Ap, Bp = core.ab_coeffs(Lp, Rp)
    ap, bp = core.curv_eigs(Rp, Ap, Bp)
    assert np.allclose(core.frame_rhs(f, df, lam)[p],
                       core.frame_rhs(f[p], df[p], lam), atol=1e-12)
    assert np.allclose(ap, a[p], atol=1e-12)
    assert np.allclose(bp, b[p], atol=1e-12)


# ---------------------------------------------------------------------------
# derivative cross-validation (finite differences, Richardson slope)
# ---------------------------------------------------------------------------

def _flow_states(f, df, lam, h):
    """States at t and t +/- h along the exact frame flow (RK4 step)."""

    def rhs(y):
        return np.concatenate([y[3:], core.frame_rhs(y[:3], y[3:], lam)])

    def rk4(y, dt):
        k1 = rhs(y)
        k2 = rhs(y + dt / 2 * k1)
        k3 = rhs(y + dt / 2 * k2)
        k4 = rhs(y + dt * k3)
        return y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    y0 = np.concatenate([f, df])
    return rk4(y0, -h), y0, rk4(y0, h)


def _abab(y):
    L, R, _ = core.lr_from_frame(y[:3], y[3:])
    A, B = core.ab_coeffs(L, R)
    a, b = core.curv_eigs(R, A, B)
    return L, R, A, B, a, b


def fd_slopes(n_profiles=100, seed=123):
    """Richardson orders for centered differences of A, B, a, b, F, E along
    the flow versus the analytic evolution laws."""
    rng = np.random.default_rng(seed)
    slopes = []
    for _ in range(n_profiles):
        f = rng.uniform(0.5, 2.0, 3)
        df = rng.uniform(-1.0, 1.0, 3)
        # the evolution laws hold on the constraint surface; the constant
        # is linear in the constraint, so solve for it
        L, R, _ = core.lr_from_frame(f, df)
        lam = core.constraint_residual(L, R, 0.0)
        errs = []
        for h in (1e-3, 5e-4):
            ym, y0, yp = _flow_states(f, df, lam, h)
            Lm, Rm, Am, Bm, am, bm = _abab(ym)
            L0, R0, A0, B0, a0, b0 = _abab(y0)
            Lp, Rp, Ap, Bp, ap, bp = _abab(yp)
            dA_fd = (Ap - Am) / (2 * h)
            dB_fd = (Bp - Bm) / (2 * h)
            da_fd = (ap - am) / (2 * h)
            db_fd = (bp - bm) / (2 * h)
            dA, dB = core.ab_rhs(A0, B0, R0)
            da, db = core.curv_eigs_rhs(a0, b0, A0, B0)
            err = max(np.max(np.abs(dA_fd - dA)), np.max(np.abs(dB_fd - dB)),
                      np.max(np.abs(da_fd - da)), np.max(np.abs(db_fd - db)))
            # gap pairs
            gF = core.GapState(a0[0] - a0[1], a0[0] - a0[2], "F")
            gE = core.GapState(b0[1] - b0[0], b0[1] - b0[2], "E")
            dgF = core.gap_rhs(gF, A0)
            dgE = core.gap_rhs(gE, B0)
            gF_fd = ((ap[0] - ap[1]) - (am[0] - am[1])) / (2 * h), \
                    ((ap[0] - ap[2]) - (am[0] - am[2])) / (2 * h)
            gE_fd = ((bp[1] - bp[0]) - (bm[1] - bm[0])) / (2 * h), \
                    ((bp[1] - bp[2]) - (bm[1] - bm[2])) / (2 * h)
            err = max(err, abs(dgF.g1 - gF_fd[0]), abs(dgF.g2 - gF_fd[1]),
                      abs(dgE.g1 - gE_fd[0]), abs(dgE.g2 - gE_fd[1]))
            errs.append(max(err, 1e-16))
        slopes.append(np.log(errs[0] / errs[1]) / np.log(2.0))
    return np.asarray(slopes)


def test_evolution_laws_match_finite_differences():
    slopes = fd_slopes()
    # centered differences: order-2 convergence to the analytic laws
    assert np.all(np.abs(slopes - 2.0) < 0.1), slopes.min()


def test_gap_rhs_rejects_unknown_role():
    with pytest.raises(ValueError):
        core.gap_rhs(core.GapState(0.1, 0.2, "X"), np.zeros(3))


def _gap_rhs_two_branch(g, coeffs):
    """The gap law written as one branch per role, kept as the reference."""
    c0, c1, c2 = coeffs
    if g.role == "F":
        d1 = (c0 - c1) * g.g2 - (c0 + 2.0 * c2) * g.g1
        d2 = (c0 - c2) * g.g1 - (c0 + 2.0 * c1) * g.g2
    else:
        d1 = (c1 - c0) * g.g2 - (c1 + 2.0 * c2) * g.g1
        d2 = (c1 - c2) * g.g1 - (2.0 * c0 + c1) * g.g2
    return core.GapState(float(d1), float(d2), g.role)


@pytest.mark.parametrize("role", ["F", "E"])
def test_gap_rhs_keeps_the_two_branch_bits(role):
    # the finite-difference test above checks the law only to a convergence
    # slope; this pins its rounding, on signed magnitudes from 1e-8 to 1e8
    rng = np.random.default_rng(2020)
    draws = rng.choice([-1.0, 1.0], (20000, 5)) * 10.0 ** rng.uniform(-8.0, 8.0, (20000, 5))
    for g1, g2, *coeffs in draws:
        g = core.GapState(float(g1), float(g2), role)
        got = core.gap_rhs(g, np.array(coeffs))
        ref = _gap_rhs_two_branch(g, np.array(coeffs))
        assert (got.g1.hex(), got.g2.hex()) == (ref.g1.hex(), ref.g2.hex()), (g, coeffs)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

pos = st.floats(min_value=0.2, max_value=3.0, allow_nan=False)
slope = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@given(st.tuples(pos, pos, pos), st.tuples(slope, slope, slope))
@settings(max_examples=60, deadline=None)
def test_ab_coeffs_sum_identity(fv, dfv):
    # A_i + B_i = 2 L_i for any state
    f = np.array(fv)
    df = np.array(dfv)
    L, R, _ = core.lr_from_frame(f, df)
    A, B = core.ab_coeffs(L, R)
    assert np.allclose(A + B, 2 * L, atol=1e-12)


@given(st.tuples(pos, pos, pos), st.tuples(slope, slope, slope),
       st.floats(min_value=0.3, max_value=4.0))
@settings(max_examples=60, deadline=None)
def test_homothety_covariance(fv, dfv, c):
    """Under f -> c f, t -> c t the eigenvalues scale by 1/c^2."""
    f = np.array(fv)
    df = np.array(dfv)
    L, R, _ = core.lr_from_frame(f, df)
    A, B = core.ab_coeffs(L, R)
    a, b = core.curv_eigs(R, A, B)
    L2, R2, _ = core.lr_from_frame(c * f, df)
    A2, B2 = core.ab_coeffs(L2, R2)
    a2, b2 = core.curv_eigs(R2, A2, B2)
    assert np.allclose(a2, a / c**2, atol=1e-10)
    assert np.allclose(b2, b / c**2, atol=1e-10)


@given(st.tuples(pos, pos, pos), st.tuples(slope, slope, slope))
@settings(max_examples=60, deadline=None)
def test_uij_residual_antisymmetry_under_swap(fv, dfv):
    # swapping two labels negates the corresponding ratio residual
    f = np.array(fv)
    df = np.array(dfv)
    ddf = core.frame_rhs(f, df, 1.0)
    r = core.uij_residual(f, df, ddf)
    p = np.array([1, 0, 2])
    r_swapped = core.uij_residual(f[p], df[p], ddf[p])
    assert np.isclose(r_swapped[0], -r[0], atol=1e-10)


@given(st.lists(st.tuples(st.tuples(pos, pos, pos), st.tuples(slope, slope, slope)),
                min_size=1, max_size=8),
       st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=60, deadline=None)
def test_batch_equals_row_by_row(rows, lam):
    """One call on an (n, 3) batch gives exactly the n single-triple results."""
    f = np.array([r[0] for r in rows])
    df = np.array([r[1] for r in rows])
    L, R, S = core.lr_from_frame(f, df)
    A, B = core.ab_coeffs(L, R)
    a, b = core.curv_eigs(R, A, B)
    c = core.constraint_residual(L, R, lam)
    for m in range(len(rows)):
        Lm, Rm, Sm = core.lr_from_frame(f[m], df[m])
        Am, Bm = core.ab_coeffs(Lm, Rm)
        am, bm = core.curv_eigs(Rm, Am, Bm)
        for batch, row in ((L, Lm), (R, Rm), (S, Sm), (A, Am), (B, Bm), (a, am),
                           (b, bm), (c, core.constraint_residual(Lm, Rm, lam))):
            assert np.array_equal(batch[m], row)


@given(st.tuples(pos, pos, pos), st.tuples(slope, slope, slope),
       st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=100, deadline=None)
def test_frame_rhs_is_the_lr_law(fv, dfv, lam):
    """The scalar f'' is the L' law of lr_rhs, f_i (L_i' + L_i^2), exactly."""
    f = np.array(fv)
    L, R, _ = core.lr_from_frame(f, dfv)
    assert np.array_equal(core.frame_rhs(fv, dfv, lam),
                          f * (core.lr_rhs(L, R, lam)[0] + L**2))
