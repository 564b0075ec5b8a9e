"""End-to-end acceptance checks, one per headline claim:

1. round sphere recovery from a perturbed guess
2. quotient-sphere rigidity mechanism (cone + spreads + constants)
3. Fubini-Study reached through both group actions
4. Page metric: non-symmetric, non-Kaehler Einstein solution
5. product metric on S^2 x S^2
6. Hitchin orbifold family k = 1, 2, 3
7. indicial matrices and decay certification
8. cross-validation of the evolution laws by finite differences
9. ratio-extremum certificates on every converged solution

Each test prints a single summary line; the pytest verdict per test is the
pass/fail line for the corresponding claim.
"""

import numpy as np
import pytest

from c1einstein import core
from c1einstein.diagnostics import (ConeSpec, characteristic_numbers,
                                    cone_monitor, eigen_gap_report,
                                    invariant_constants, kahler_detector,
                                    max_principle_check)
from c1einstein.germs import (germ_decay_check, get_diagram, indicial_catalog,
                              indicial_eigenvalues, series_solve)
from c1einstein.integrator import drift_report, integrate_germ
from c1einstein.oracles import ORACLE_IDS, oracle
from c1einstein.presets import initial_guess
from c1einstein.shooting import (ShootingProblem, detect_equal_pairs, solve)

from test_core_odes import fd_slopes

S2 = np.sqrt(2.0)
S3 = np.sqrt(3.0)


def _profile_distance(sr, oracle_name, n=400):
    """Sup distance between a solution profile and a closed form, compared
    on the common sub-interval away from the collapse ends."""
    prof = oracle(oracle_name, lam=3.0)
    t_hi = min(sr.trajectory.t[-1], prof.T - 1e-9)
    ts = np.linspace(sr.trajectory.t[0], t_hi, n)
    f, _ = sr.trajectory.eval(ts)
    return float(np.max(np.abs(f - prof.f(ts))))


def test_round_sphere_recovery(solutions):
    rng = np.random.default_rng(11)
    exact = np.array([-1 / 6, -1 / 6, -1 / 6, -1 / 6, np.pi])
    guess = exact * (1 + 0.2 * rng.uniform(-1, 1, 5))
    sr = solve(ShootingProblem(get_diagram("su2_s4")), guess)
    ts = np.linspace(sr.trajectory.t[0], sr.trajectory.t[-1], 500)
    f, _ = sr.trajectory.eval(ts)
    sup = float(np.max(np.abs(f - np.sin(ts)[:, None])))
    rep = characteristic_numbers(sr)
    print(f"\n  round recovery: sup={sup:.2e} drift={sr.drift['max_constraint']:.2e} "
          f"chi={rep.chi:.6f} tau={rep.tau:.2e}")
    assert sup < 1e-6
    assert sr.drift["max_constraint"] < 1e-7
    assert rep.chi == pytest.approx(2.0, abs=1e-4)
    assert rep.tau == pytest.approx(0.0, abs=1e-4)


def test_quotient_sphere_rigidity(solutions):
    sr = solutions("so3_s4")
    consts = invariant_constants(sr)
    cone = cone_monitor(sr, ConeSpec("A", ("+", "-", "-")))
    gaps = eigen_gap_report(sr)
    rep = characteristic_numbers(sr)
    dist = _profile_distance(sr, "round_so3")
    print(f"\n  quotient sphere: alpha={consts.alpha:.6f} cone_margin="
          f"{cone['worst_margin']:.2e} a_spread={gaps['a_spread']:.2e} "
          f"tau={rep.tau:.2e} round_dist={dist:.2e}")
    assert consts.alpha > 12.0
    assert cone["satisfied"]
    assert gaps["a_spread"] < 1e-6
    assert rep.tau == pytest.approx(0.0, abs=1e-4)
    assert dist < 1e-5


def test_fubini_study_both_actions(solutions):
    sr_u = solutions("su2_cp2")
    sr_o = solutions("so3_cp2")
    assert (1, 2) in detect_equal_pairs(sr_u, tol=1e-6)
    kd = kahler_detector(sr_o)
    beta = invariant_constants(sr_o).beta
    d_u = _profile_distance(sr_u, "fs_su2")
    d_o = _profile_distance(sr_o, "fs_so3")
    reps = [characteristic_numbers(s) for s in (sr_u, sr_o)]
    print(f"\n  fubini-study: supB={max(kd['sup_norms']):.2e} beta={beta:.6f} "
          f"dist=({d_u:.2e},{d_o:.2e}) "
          f"chi=({reps[0].chi:.5f},{reps[1].chi:.5f}) "
          f"tau=({reps[0].tau:.5f},{reps[1].tau:.5f})")
    assert max(kd["sup_norms"]) < 1e-6
    assert beta == pytest.approx(12.0, abs=1e-3)
    assert d_u < 1e-5 and d_o < 1e-5
    for rep in reps:
        assert rep.chi == pytest.approx(3.0, abs=1e-3)
        assert rep.tau == pytest.approx(1.0, abs=1e-3)


def test_page_metric(solutions):
    sr = solutions("su2_cp2bar")
    assert detect_equal_pairs(sr, tol=1e-6) == {(2, 3)}
    dists = {name: _profile_distance(sr, name) for name in ORACLE_IDS}
    kd = kahler_detector(sr)
    rep = characteristic_numbers(sr)
    print(f"\n  page: min_oracle_dist={min(dists.values()):.3f} "
          f"drift={sr.drift['max_constraint']:.2e} chi={rep.chi:.5f} "
          f"tau={rep.tau:.2e} kahler_margin={min(kd['sup_norms']):.2e}")
    assert min(dists.values()) > 1e-2
    assert sr.drift["max_constraint"] < 1e-7
    assert rep.chi == pytest.approx(4.0, abs=1e-3)
    assert rep.tau == pytest.approx(0.0, abs=1e-3)
    assert not kd["is_kahler"]
    assert min(kd["sup_norms"]) > 1e-3


def test_product_metric(solutions):
    sr = solutions("so3_s2xs2")
    dist = _profile_distance(sr, "product_s2xs2")
    delta = invariant_constants(sr).delta
    diag = sr.trajectory.diagnostics()
    supA = float(np.max(np.abs(diag["A"][:, :2])))
    rep = characteristic_numbers(sr)
    print(f"\n  product: dist={dist:.2e} delta={delta:.2e} supA12={supA:.2e} "
          f"chi={rep.chi:.5f} tau={rep.tau:.2e}")
    assert dist < 1e-6
    assert delta == pytest.approx(0.0, abs=1e-4)
    assert supA < 1e-6
    assert rep.chi == pytest.approx(4.0, abs=1e-3)
    assert rep.tau == pytest.approx(0.0, abs=1e-3)


def test_hitchin_orbifolds(solutions):
    lines = []
    for k in (2, 3):
        sr = solutions("so3_hitchin", k)
        assert sr.converged and sr.jacobian_rank == 5
        germ = series_solve(sr.diagram.right, sr.right_free, sr.lam, order=6)
        slope = germ.coeffs[1, 1]
        assert slope == 4.0 / k  # exact structural value
        gaps = eigen_gap_report(sr)
        consts = invariant_constants(sr)
        margin = consts.beta - consts.theta_k
        lines.append(f"k={k}: slope={slope} b_spread={gaps['b_spread']:.2e} "
                     f"beta={consts.beta:.6f} margin={margin:.6f}")
        assert gaps["b_spread"] < 1e-6
        assert margin > 0
    # k = 1 reproduces the smooth quotient-sphere solution
    sr1 = solutions("so3_hitchin", 1)
    sr_ref = solutions("so3_s4")
    gap = float(np.max(np.abs(sr1.u - sr_ref.u)))
    lines.append(f"k=1 vs smooth: {gap:.2e}")
    print("\n  hitchin: " + "; ".join(lines))
    assert gap < 1e-8


def test_indicial_and_decay_suite():
    cat = indicial_catalog(k=2)
    assert indicial_eigenvalues(cat["s4_A_pair"]) == (-2.0, 1.0)
    assert indicial_eigenvalues(cat["s4_F_pair"]) == (-3.0, 0.0)
    assert indicial_eigenvalues(cat["s2xs2_A_pair"]) == (-3.0, 1.0)
    assert indicial_eigenvalues(cat["hitchin_B_pair"]) == (-3.0, 1.0)
    assert indicial_eigenvalues(cat["hitchin_E_pair"]) == (-4.0, 0.0)
    assert indicial_eigenvalues(indicial_catalog(k=3)["hitchin_B_pair"]) == (-4.0, 1.0)

    # decay certification on the conic Kaehler closed form
    prof = oracle("fs_so3", lam=3.0)
    ts = np.geomspace(1e-3, 0.2, 24)
    X = np.empty((len(ts), 2))
    for i, s in enumerate(ts):
        L, R, _ = core.lr_from_frame(prof.f(prof.T - s), prof.df(prof.T - s))
        _, B = core.ab_coeffs(L, R)
        X[i] = B[:2]
    good = germ_decay_check(ts, X, cat["cp2_B_pair"])
    # synthetic order-2 profile against a matrix without eigenvalue 2
    bad = germ_decay_check(ts, np.column_stack([ts**2, ts**2]), cat["s4_A_pair"])
    print(f"\n  indicial: decay pass={good.passed} "
          f"(identically zero={good.identically_zero}); negative control "
          f"pass={bad.passed}")
    assert good.passed and good.identically_zero
    assert not bad.passed


def test_evolution_law_cross_validation():
    slopes = fd_slopes(n_profiles=100, seed=2024)
    drifts = []
    for name, free in (("su2_s4", {"da": -1 / 6, "db": -1 / 6}),
                       ("so3_s4", {"h": 2 * S3, "c": -2.0}),
                       ("so3_cp2", {"q": 2 * S2, "d2": -2 * S2})):
        germ = series_solve(get_diagram(name).left, free, 3.0, order=8)
        traj = integrate_germ(germ, 0.9, rtol=1e-11, atol=1e-13)
        drifts.append(drift_report(traj)["max_constraint"])
    print(f"\n  cross-validation: slope range=({slopes.min():.3f},"
          f"{slopes.max():.3f}) max germ drift={max(drifts):.2e}")
    assert np.all(np.abs(slopes - 2.0) < 0.1)
    assert max(drifts) < 1e-7


def test_ratio_extremum_certificates(solutions):
    cases = [("su2_s4", 0), ("so3_s4", 0), ("su2_cp2", 0), ("so3_cp2", 0),
             ("su2_cp2bar", 0), ("so3_s2xs2", 0), ("so3_hitchin", 2),
             ("so3_hitchin", 3)]
    worst = 0.0
    for cid, k in cases:
        rep = max_principle_check(solutions(cid, k))
        for pair, r in rep.items():
            assert abs(r["eq_residual"]) < 1e-7, (cid, k, pair, r["eq_residual"])
            worst = max(worst, abs(r["eq_residual"]))
    # profile-ratio bounds: the collapsing-direction profiles stay below the
    # persisting ones on the symmetric solutions and on Page
    bound_tol = 1e-6
    rep = max_principle_check(solutions("su2_s4"))
    assert all(abs(r["sup"]) < bound_tol for r in rep.values())  # all equal
    rep = max_principle_check(solutions("su2_cp2"), pairs=((3, 1), (3, 2)))
    assert all(r["sup"] < bound_tol for r in rep.values())
    rep = max_principle_check(solutions("su2_cp2bar"), pairs=((1, 2), (1, 3)))
    assert all(r["sup"] < bound_tol for r in rep.values())
    print(f"\n  ratio extrema: worst residual={worst:.2e}")
    assert worst < 1e-7
