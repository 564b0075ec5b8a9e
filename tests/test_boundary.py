"""Boundary data: diagram catalog, Taylor germs at the singular orbits,
indicial analysis, and decay certification.

Frozen germ parameter values below come from the closed-form profiles
rescaled to lambda = 3; see c1einstein.oracles.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from c1einstein import core, germs, shooting
from c1einstein.germs import (DIAGRAM_IDS, GermConstructionError,
                              diagram_catalog, germ_decay_check,
                              germ_start_offset, get_diagram,
                              indicial_catalog, indicial_eigenvalues,
                              series_solve)
from c1einstein.oracles import oracle
from c1einstein.presets import initial_guess

S2 = np.sqrt(2.0)
S3 = np.sqrt(3.0)

# (oracle, side, diagram, k, free values at lambda = 3)
ORACLE_GERMS = [
    ("round_su2", "left", "su2_s4", 0, {"da": -1 / 6, "db": -1 / 6}),
    ("round_so3", "left", "so3_s4", 0, {"h": 2 * S3, "c": -2.0}),
    ("round_so3", "right", "so3_s4", 0, {"h": 2 * S3, "c": 2.0}),
    ("fs_su2", "left", "su2_cp2", 0, {"da": -1 / 12, "db": -1 / 12}),
    ("fs_su2", "right", "su2_cp2", 0, {"q": S2, "d4": S2 / 96}),
    ("fs_so3", "left", "so3_cp2", 0, {"q": 2 * S2, "d2": -2 * S2}),
    ("fs_so3", "right", "so3_cp2", 0, {"h": 2.0, "c": -S2}),
    ("product_s2xs2", "left", "so3_s2xs2", 0, {"q": 2 * S2 / S3, "d2": 0.0}),
    ("product_s2xs2", "right", "so3_s2xs2", 0,
     {"q": 2 * S2 / S3, "d2": -1.5 * S2 / S3}),
    ("hitchin_k2", "left", "so3_hitchin", 2, {"h": 2.0, "c": -S2}),
    ("hitchin_k2", "right", "so3_hitchin", 2, {"q": 2 * S2, "w": 0.75 * S2}),
]


def _end(case_id, k, side):
    d = get_diagram(case_id, k)
    return d.left if side == "left" else d.right


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_has_seven_cases():
    cases = {d.case_id for d in diagram_catalog()}
    assert cases == {"su2_s4", "so3_s4", "su2_cp2", "so3_cp2", "su2_cp2bar",
                     "so3_s2xs2", "so3_hitchin"}


def test_unknown_diagram_rejected():
    with pytest.raises(ValueError):
        get_diagram("nope")
    with pytest.raises(ValueError):
        get_diagram("so3_hitchin", 0)


def test_non_integer_cone_order_rejected():
    with pytest.raises(ValueError, match="2.5"):
        get_diagram("so3_hitchin", 2.5)
    with pytest.raises(ValueError, match="k >= 1"):
        get_diagram("so3_hitchin", -1)
    assert get_diagram("so3_hitchin", np.int64(3)).k == 3


def test_cone_order_rejected_where_the_diagram_has_none():
    for cid in DIAGRAM_IDS:
        if cid != "so3_hitchin":
            assert get_diagram(cid, 0).case_id == cid
            with pytest.raises(ValueError, match="k = 5"):
                get_diagram(cid, 5)


def test_hitchin_k1_is_the_smooth_so3_sphere_diagram():
    d1 = get_diagram("so3_hitchin", 1)
    d0 = get_diagram("so3_s4")
    assert d1.left == d0.left and d1.right == d0.right
    assert d1.orbit_volume == d0.orbit_volume


def test_collapse_slopes():
    assert get_diagram("so3_s4").left.slope == 4.0
    assert get_diagram("so3_cp2").left.slope == 2.0
    assert get_diagram("su2_cp2bar").left.slope == 1.0
    assert get_diagram("so3_hitchin", 2).right.slope == 2.0
    assert get_diagram("so3_hitchin", 3).right.slope == pytest.approx(4.0 / 3.0)


def test_orbit_volumes_consistent_with_known_total_volumes():
    # total volume = V * integral of f1 f2 f3 over the closed forms
    cases = [("su2_s4", "round_su2", 8 * np.pi**2 / 3),
             ("so3_s4", "round_so3", 8 * np.pi**2 / 3),
             ("so3_s2xs2", "product_s2xs2", 16 * np.pi**2)]
    for cid, orc, vol in cases:
        d = get_diagram(cid)
        prof = oracle(orc, lam=3.0) if cid != "so3_s2xs2" else oracle(orc)
        ts = np.linspace(1e-9, prof.T - 1e-9, 20001)
        dens = np.prod(prof.f(ts), axis=1)
        total = d.orbit_volume * np.trapezoid(dens, ts)
        # product case is stated at lambda = 1 where the volume is 16 pi^2
        assert total == pytest.approx(vol, rel=1e-6)


# ---------------------------------------------------------------------------
# germ construction against the closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("orc,side,cid,k,free", ORACLE_GERMS,
                         ids=[f"{o}-{s}" for o, s, *_ in ORACLE_GERMS])
def test_series_solve_matches_closed_form(orc, side, cid, k, free):
    prof = oracle(orc, lam=3.0)
    germ = series_solve(_end(cid, k, side), free, lam=3.0, order=10)
    for t in (0.02, 0.1, 0.2):
        f, df = germ.eval(t)
        tt = t if side == "left" else prof.T - t
        fo, dfo = prof.f(tt), prof.df(tt)
        if side == "right":
            dfo = -dfo
        assert np.max(np.abs(f - fo)) < 2e-11
        assert np.max(np.abs(df - dfo)) < 2e-10


def test_round_germ_third_order_coefficient():
    # f = sin t: cubic coefficient -1/6 appears in all three directions
    end = get_diagram("su2_s4").left
    g = series_solve(end, {"da": -1 / 6, "db": -1 / 6}, 3.0, order=6)
    assert np.allclose(g.coeffs[:, 3], -1 / 6, atol=1e-13)
    assert np.allclose(g.coeffs[:, 1], 1.0, atol=1e-15)
    assert np.allclose(g.coeffs[:, 0::2], 0.0, atol=1e-14)


def test_fixed_point_dependent_direction_is_pinned_by_the_equations():
    # only two cubic coefficients are free; the third is determined, and on
    # the symmetric choice it equals the others
    end = get_diagram("su2_s4").left
    g = series_solve(end, {"da": -0.2, "db": -0.1}, 3.0, order=6)
    # the third cubic coefficient satisfies the trace relation
    # da + db + dc = -lambda/6 for unit slopes
    assert g.coeffs[2, 3] == pytest.approx(-0.5 + 0.2 + 0.1, abs=1e-12)


def test_mirror_pair_parity():
    end = get_diagram("so3_s4").left
    g = series_solve(end, {"h": 3.1, "c": -1.2}, 3.0, order=8)
    signs = (-1.0) ** np.arange(9)
    assert np.allclose(g.coeffs[2], signs * g.coeffs[1], atol=1e-12)
    assert g.coeffs[0, 1] == pytest.approx(4.0)


def test_even_pair_shares_orbit_value():
    end = get_diagram("so3_cp2").left
    g = series_solve(end, {"q": 2.2, "d2": -1.0}, 3.0, order=8)
    assert g.coeffs[1, 0] == pytest.approx(2.2, abs=1e-14)
    assert g.coeffs[2, 0] == pytest.approx(2.2, abs=1e-14)
    # collapsing direction is odd, pair directions even
    assert np.allclose(g.coeffs[0, 0::2], 0.0, atol=1e-13)
    assert np.allclose(g.coeffs[1:, 1::2], 0.0, atol=1e-13)


def test_circle_pair_agrees_through_second_order():
    end = get_diagram("su2_cp2bar").left
    g = series_solve(end, {"q": 1.1, "d4": -0.1}, 3.0, order=8)
    assert g.coeffs[1, 0] == g.coeffs[2, 0]
    assert g.coeffs[1, 2] == pytest.approx(g.coeffs[2, 2], abs=1e-13)
    # generic germs split at fourth order
    assert abs(g.coeffs[1, 4] - g.coeffs[2, 4]) > 1e-3


def test_orbifold_end_constraint_relation():
    # at the cone end, lambda = 4/q^2 - 4 p2 / q with p2 the shared
    # second-order coefficient of the non-collapsing pair
    end = get_diagram("so3_hitchin", 2).right
    q = 2 * S2
    g = series_solve(end, {"q": q, "w": 0.75 * S2}, 3.0, order=8)
    p2 = 0.5 * (g.coeffs[0, 2] + g.coeffs[2, 2])
    assert 4.0 / q**2 - 4.0 * p2 / q == pytest.approx(3.0, abs=1e-11)


def test_orbifold_k3_pair_difference_starts_at_order_three():
    end = get_diagram("so3_hitchin", 3).right
    g = series_solve(end, {"q": 2.6, "w": 0.8}, 3.0, order=9)
    diff = g.coeffs[2] - g.coeffs[0]
    assert np.allclose(diff[:3], 0.0, atol=1e-12)
    assert diff[3] == pytest.approx(2 * 0.8, abs=1e-12)


def test_germ_second_order_defect_shrinks_with_offset():
    end = get_diagram("so3_s4").left
    g = series_solve(end, {"h": 2 * S3, "c": -2.0}, 3.0, order=8)
    def defect(t):
        f, df = g.eval(t)
        return np.max(np.abs(core.frame_rhs(f, df, 3.0) - g.eval_second(t)))
    d1, d2 = defect(0.2), defect(0.1)
    assert d2 < d1 / 50.0  # high-order contact


def test_germ_start_offset_meets_target():
    end = get_diagram("su2_s4").left
    g = series_solve(end, {"da": -1 / 6, "db": -1 / 6}, 3.0, order=8)
    eps = germ_start_offset(g)
    f, df = g.eval(eps)
    rhs = core.frame_rhs(f, df, 3.0)
    assert np.max(np.abs(rhs - g.eval_second(eps))) / (1.0 + np.max(np.abs(rhs))) < 1e-11


def test_germ_start_offset_raises_when_no_offset_meets_target():
    # a 4th-order germ bottoms out at a defect of 4.1e-11
    end = get_diagram("su2_s4").left
    g = series_solve(end, {"da": -1 / 6, "db": -1 / 6}, 3.0, order=4)
    with pytest.raises(GermConstructionError, match="meets the defect target 1e-11"):
        germ_start_offset(g)


# the eight distinct catalog instances: so3_hitchin at k = 1 is so3_s4
INSTANCES = [(cid, 0) for cid in DIAGRAM_IDS[:-1]] + [("so3_hitchin", 2), ("so3_hitchin", 3)]


@pytest.mark.parametrize("case_id,k", INSTANCES)
def test_a_jacobian_column_takes_its_base_legs_sample_times(case_id, k, monkeypatch):
    # a Jacobian column moves one germ parameter by the finite-difference
    # step, hands off where its side's base leg does and replays that leg's
    # steps, so no jump in hand-off offset or step size enters the
    # difference.  At the shipped guess and at ten starts 1e-6 away
    pr = shooting.ShootingProblem(get_diagram(case_id, k))
    g = initial_guess(case_id, k)
    starts = [g] + [g * (1 + 1e-6 * np.random.default_rng(seed).uniform(-1, 1, g.size))
                    for seed in range(1, 11)]
    real = shooting.integrate_germ
    cols = []

    def recording(*args, **kw):
        cols.append((real(*args, **kw), kw["replay"]))
        return cols[-1][0]

    for u in starts:
        shot = shooting._seeded_shot(pr, u)
        monkeypatch.setattr(shooting, "integrate_germ", recording)
        shooting._jacobian(pr, u, shot)
        monkeypatch.undo()
        assert len(cols) == (2 if shot.legs[0] is shot.legs[1] else 4)
        for col, base in cols:
            assert any(base is leg for leg in shot.legs) and col.reason == "reached_target"
            assert np.array_equal(col.t, base.t), (u, col.t.size, base.t.size)
        cols.clear()


def test_the_shipped_page_germ_keeps_the_u2_symmetry():
    # Page is U(2)-invariant, so f2 = f3 on su2_cp2bar: the shipped d4 must
    # make the staircase's f2 row the f3 row at every order
    end = get_diagram("su2_cp2bar").left
    g = series_solve(end, initial_guess("su2_cp2bar")[:2], 3.0)
    assert np.max(np.abs(g.coeffs[1] - g.coeffs[2])) < 1e-16


def test_germ_eval_outside_window_rejected():
    end = get_diagram("su2_s4").left
    g = series_solve(end, {"da": -1 / 6, "db": -1 / 6}, 3.0, order=6)
    with pytest.raises(ValueError):
        g.eval(0.9)
    with pytest.raises(ValueError):
        g.eval(0.0)


def test_series_solve_validates_inputs():
    end = get_diagram("so3_s4").left
    with pytest.raises(ValueError, match="must be positive"):
        series_solve(end, {"h": -1.0, "c": 0.0}, 3.0)
    with pytest.raises(ValueError, match="free parameters"):
        series_solve(end, {"h": 1.0, "nope": 0.0}, 3.0)
    with pytest.raises(ValueError):
        series_solve(end, {"h": 1.0, "c": 0.0}, 3.0, order=2)
    for order in (3, -1, 8.5):
        with pytest.raises(ValueError, match=re.escape(
                f"germ order must be an integer of at least 4, got {order}")):
            series_solve(end, {"h": 1.0, "c": 0.0}, 3.0, order=order)
    # the length of an even_pair, a circle and an orbifold end must be
    # positive; a negative value of a free parameter that is no length
    # builds: mirror c, circle d4, orbifold w and fixed-point da
    for case_id, k, side in (("so3_s2xs2", 0, "left"), ("su2_cp2bar", 0, "left"),
                             ("so3_hitchin", 3, "right")):
        end = getattr(get_diagram(case_id, k), side)
        for q in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"germ parameter q must be positive, got {q}"):
                series_solve(end, {"q": q, end.free[1]: 0.5}, 3.0)
    for case_id, k, side, free in (("so3_s4", 0, "right", {"h": 2 * S3, "c": -2.0}),
                                   ("su2_cp2bar", 0, "left", {"q": 1.07, "d4": -0.14}),
                                   ("so3_hitchin", 3, "right", {"q": 2.58, "w": -0.6}),
                                   ("su2_s4", 0, "left", {"da": -1 / 6, "db": -1 / 6})):
        end = getattr(get_diagram(case_id, k), side)
        assert series_solve(end, free, 3.0).order == 8


def test_series_solve_rejects_an_unknown_end_kind():
    end = replace(get_diagram("so3_s4").left, kind="nope")
    with pytest.raises(ValueError, match="unknown end kind 'nope'"):
        series_solve(end, {"h": 1.0, "c": 0.0}, 3.0)


def test_series_solve_rejects_non_finite_inputs():
    end = get_diagram("so3_s4").left
    with pytest.raises(ValueError, match="h must be finite, got nan"):
        series_solve(end, {"h": np.nan, "c": 0.5}, 3.0)
    with pytest.raises(ValueError, match="c must be finite, got -inf"):
        series_solve(end, {"h": 1.0, "c": -np.inf}, 3.0)
    for lam in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"got lam = {lam}"):
            series_solve(end, {"h": 1.0, "c": 0.5}, lam)


def _pmul_loop(a, b, L):
    """The truncated product as one slice multiply-add per order of a."""
    out = np.zeros(a.shape[:-1] + (L,))
    la, lb = a.shape[-1], b.shape[-1]
    for p in range(min(la, L)):
        w = min(lb, L - p)
        out[..., p:p + w] += a[..., p:p + 1] * b[..., :w]
    return out


_coef = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
                  st.floats(-1e3, 1e3), st.floats(-1e-300, 1e-300))


@st.composite
def _pmul_inputs(draw):
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    la, lb, L = draw(st.integers(1, 24)), draw(st.integers(1, 24)), draw(st.integers(1, 20))
    a = draw(arrays(np.float64, batch + (la,), elements=_coef))
    b = draw(arrays(np.float64, batch + (lb,), elements=_coef))
    return a, b, L


@given(_pmul_inputs())
@settings(max_examples=300, deadline=None)
def test_pmul_equals_the_ordered_loop_bit_for_bit(inputs):
    a, b, L = inputs
    with np.errstate(invalid="ignore", over="ignore"):
        want = _pmul_loop(a, b, L)
        got = germs._pmul(a, b, L)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_pmul_keeps_the_signs_of_zero_sums():
    # every term is -0.0: the loop adds them to +0.0 and gets +0.0, where a
    # sum seeded with its first term would give -0.0
    a = np.array([-0.0, -0.0])
    b = np.array([1.0, 1.0])
    for L in (1, 2):
        want = _pmul_loop(a, b, L)
        assert not np.signbit(want).any()
        assert germs._pmul(a, b, L).tobytes() == want.tobytes()


def _poly_residual_13(c, lam, L):
    """P_i as written out term by term, in 13 truncated products: f_i f_i'
    and f_j' f_j f_k^2 + f_k' f_k f_j^2 formed on their own."""
    f, d = c, germs._pder(c)
    dd = germs._pder(d)
    mul = germs._pmul
    f2 = mul(f, f, L)
    fj2, fk2 = f2[..., core.J, :], f2[..., core.K, :]
    jk2 = mul(fj2, fk2, L)
    diff = fj2 - fk2
    cross = (mul(mul(d[..., core.J, :], f[..., core.J, :], L), fk2, L)
             + mul(mul(d[..., core.K, :], f[..., core.K, :], L), fj2, L))
    return (mul(mul(dd, f, L), jk2, L) + mul(mul(f, d, L), cross, L)
            - 2.0 * mul(f2, f2, L) + 2.0 * mul(diff, diff, L) + lam * mul(f2, jk2, L))


def _catalog_ends():
    ends = {}
    for d in diagram_catalog() + [get_diagram("so3_hitchin", k) for k in (4, 5, 6)]:
        ends.update(dict.fromkeys((d.left, d.right)))
    return list(ends)


@pytest.mark.parametrize("end", _catalog_ends(), ids=repr)
def test_poly_residual_matches_the_written_out_form(end, monkeypatch):
    # f f' and the cross sum are halves of the derivatives of squares the
    # residual forms anyway, so it takes 8 products, not 13
    st = germs._structure(end, 8)
    rng = np.random.default_rng(2024)
    c = germs._apply(st, rng.uniform(-1.5, 1.5, (16, len(st.names))))
    lam = rng.uniform(-3.0, 3.0)
    want = _poly_residual_13(c, lam, st.N + 4)
    scale = np.max(np.abs(_poly_residual_13(np.abs(c), abs(lam), st.N + 4)), axis=(0, 1))
    real, calls = germs._pmul, []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(germs, "_pmul", counted)
    for L in (1, st.m_stop + 1, st.N + 4):
        calls.clear()
        got = germs._poly_residual(c, lam, L)
        assert len(calls) == 8 and got.shape == c.shape[:-1] + (L,)
        # relative to each order's size with no cancellation, P of |c|
        assert np.all(np.abs(got - want[..., :L]) <= 1e-13 * scale[:L])
    # the slot schedule does not depend on which form's rounding it reads
    monkeypatch.undo()
    monkeypatch.setattr(germs, "_poly_residual", _poly_residual_13)
    for order in range(4, 13):
        ref = germs._structure.__wrapped__(end, order)
        assert np.array_equal(ref.first, germs._structure(end, order).first)
        assert ref.m_stop == germs._structure(end, order).m_stop


def test_the_generic_point_schedules_the_slots_as_the_seeded_rng_did(monkeypatch):
    # _structure's first-order scan once drew its point from
    # default_rng(12345).uniform(0.3, 1.1); the fixed sequence that replaced
    # it finds the same first orders and m_stop on every end, Hitchin k <= 8
    ends = {}
    for d in diagram_catalog() + [get_diagram("so3_hitchin", k) for k in range(4, 9)]:
        ends.update(dict.fromkeys((d.left, d.right)))
    assert len(ends) == 16
    point = germs._generic_point(40)
    assert point.shape == (1, 40) and np.all((0.3 <= point) & (point < 1.1))
    assert len(np.unique(point)) == 40
    fixed = {(end, order): germs._structure.__wrapped__(end, order)
             for end in ends for order in range(4, 13)}
    monkeypatch.setattr(germs, "_generic_point", lambda n: np.random.default_rng(
        12345).uniform(0.3, 1.1, size=(1, n)))
    for (end, order), st in fixed.items():
        drawn = germs._structure.__wrapped__(end, order)
        assert np.array_equal(st.first, drawn.first), (end, order)
        assert st.m_stop == drawn.m_stop, (end, order)


# ---------------------------------------------------------------------------
# free germ parameters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cid,k,side", [
    ("su2_s4", 0, "left"), ("so3_s4", 0, "left"), ("so3_s4", 0, "right"),
    ("su2_cp2", 0, "right"), ("so3_cp2", 0, "left"), ("su2_cp2bar", 0, "left"),
    ("so3_s2xs2", 0, "right"), ("so3_hitchin", 2, "right"),
    ("so3_hitchin", 3, "right"),
])
def test_every_end_has_exactly_two_free_parameters(cid, k, side):
    # at generic free values the staircase's rank and consistency checks
    # pass, so the two declared parameters fix every other coefficient
    end = _end(cid, k, side)
    assert len(end.free) == 2
    free = np.random.default_rng(777).uniform(0.4, 1.2, 2)
    g = series_solve(end, list(free), 1.7, order=8)
    assert np.all(np.isfinite(g.coeffs))


def _pinned_staircase(end, pins, lam=1.7, order=8):
    """Run the staircase with exactly the named slots pinned; return the
    structure and the solved slot values."""
    st = germs._structure(end, order)
    values = np.zeros((1, len(st.names)))  # one row
    determined = np.zeros(len(st.names), dtype=bool)
    for name, v in pins.items():
        s = st.names.index(name)
        values[0, s], determined[s] = v, True
    germs._staircase(st, values, determined, lam)
    return st, values[0]


def test_staircase_rejects_a_wrong_free_parameter_count():
    end = get_diagram("so3_s4").left
    rng = np.random.default_rng(777)
    h, c = rng.uniform(0.4, 1.2, 2)
    st, _ = _pinned_staircase(end, {"c2,0": h, "c2,1": c})
    assert st.free_slots == {"h": st.names.index("c2,0"), "c": st.names.index("c2,1")}
    # one declared slot left to the equations: the error names it
    for pins, left in (({"c2,0": h}, "c2,1"), ({"c2,1": c}, "c2,0")):
        with pytest.raises(GermConstructionError, match=f"nonlinear in {left}\\)"):
            _pinned_staircase(end, pins)
    # a slot the equations determine pinned as well: inconsistent
    with pytest.raises(GermConstructionError):
        _pinned_staircase(end, {"c2,0": h, "c2,1": c, "c1,3": rng.uniform(0.4, 1.2)})


@pytest.mark.parametrize("cid,k,side", [
    ("so3_s4", 0, "left"), ("su2_cp2bar", 0, "left"), ("so3_cp2", 0, "left"),
    ("su2_s4", 0, "right"), ("so3_hitchin", 3, "right"),
])
def test_staircase_probes_only_the_orders_it_has_reached(cid, k, side, monkeypatch):
    # the staircase probes P at each order m that holds unknowns, and at
    # m_stop, and there reads P through order m: it evaluates no higher order
    end = _end(cid, k, side)
    st = germs._structure(end, 8)
    seen = []
    real = germs._poly_residual

    def recorded(c, lam, L):
        seen.append(L)
        return real(c, lam, L)

    monkeypatch.setattr(germs, "_poly_residual", recorded)
    series_solve(end, [0.9, 0.7], 1.7, order=8)
    pinned = list(st.free_slots.values())
    held = {int(m) for m in np.delete(st.first, pinned) if m <= st.m_stop}
    assert seen == [m + 1 for m in sorted(held | {st.m_stop})]
    assert len(seen) < st.m_stop + 1


def test_staircase_checks_scale_with_the_orders_reached():
    # the unsolved high orders of P reach 1e6 and more; a check scaled by
    # them would accept a pinned coefficient 1e-5 off its solved value
    end = get_diagram("so3_s4").left
    h, c = np.random.default_rng(777).uniform(0.4, 1.2, 2)
    st, solved = _pinned_staircase(end, {"c2,0": h, "c2,1": c})
    c23 = solved[st.names.index("c2,3")]
    _pinned_staircase(end, {"c2,0": h, "c2,1": c, "c2,3": c23})
    with pytest.raises(GermConstructionError, match="order 3 with no unknowns"):
        _pinned_staircase(end, {"c2,0": h, "c2,1": c, "c2,3": c23 * (1 + 1e-5)})


def test_a_deferred_check_keeps_the_scale_of_its_own_orders():
    # pinned, c2,3 leaves order 3 with no unknowns, so the order-4 probe
    # checks it; scaled by that probe's unsolved order 4 as well, the check
    # would accept c2,3 1e-6 off its solved value
    end = get_diagram("so3_s4").left
    h, c = np.random.default_rng(777).uniform(0.4, 1.2, 2)
    st, solved = _pinned_staircase(end, {"c2,0": h, "c2,1": c})
    c23 = solved[st.names.index("c2,3")]
    with pytest.raises(GermConstructionError, match="order 3 with no unknowns"):
        _pinned_staircase(end, {"c2,0": h, "c2,1": c, "c2,3": c23 * (1 + 1e-6)})


@pytest.mark.parametrize("cid", ["so3_s4", "su2_s4", "su2_cp2bar"])
def test_staircase_checks_a_last_order_with_no_unknowns(cid):
    # with every slot of order m_stop pinned to its solved value, m_stop
    # holds no unknowns and its own probe checks it
    end = get_diagram(cid).left
    st = germs._structure(end, 8)
    free = np.random.default_rng(777).uniform(0.4, 1.2, 2)
    pins = {st.names[s]: v for s, v in zip(st.free_slots.values(), free)}
    _, solved = _pinned_staircase(end, pins)
    last = [st.names[s] for s in np.flatnonzero(st.first == st.m_stop)
            if st.names[s] not in pins]
    pins.update((name, solved[st.names.index(name)]) for name in last)
    _pinned_staircase(end, pins)
    pins[last[0]] *= 1 + 1e-5
    with pytest.raises(GermConstructionError, match=f"order {st.m_stop} with no unknowns"):
        _pinned_staircase(end, pins)


def _staircase_every_order(st, values, determined, lam):
    """The staircase as one probe per order 0 .. m_stop, each order with no
    unknowns checked by its own probe, for one germ's slot values (1, slots)."""
    values = values[0]  # a view: the row is solved in place
    for m in range(st.m_stop + 1):
        S_m = np.flatnonzero(~determined & (st.first == m))
        r = germs._probe(st, values[None], S_m, lam, m + 1)[0]
        scale = max(np.max(np.abs(r[0])), 1.0)
        rm = r[0, :, m]
        if not S_m.size:
            if np.max(np.abs(rm)) > germs._STAIRCASE_RTOL * scale:
                raise GermConstructionError(
                    f"inconsistent equations at order {m} with no unknowns left to fix")
            continue
        rp, rn = r[1::2, :, m], r[2::2, :, m]
        A = 0.5 * (rp - rn).T
        bent = S_m[np.max(np.abs(rp + rn - 2.0 * rm), axis=1) > 1e-7 * scale]
        if bent.size:
            raise GermConstructionError(
                f"equations at order {m} are not linear in the order-{m} "
                f"coefficients (nonlinear in {', '.join(st.names[s] for s in bent)}): "
                "a free parameter may be left to the equations")
        x, _, rank, _ = np.linalg.lstsq(A, -rm, rcond=1e-10)
        if rank < S_m.size:
            raise GermConstructionError(
                f"singular linear solve at order {m} (rank {rank} < {S_m.size}): "
                "resonance or misdeclared free parameter")
        if np.max(np.abs(A @ x + rm)) > max(germs._STAIRCASE_RTOL * scale,
                                             1e-6 * np.max(np.abs(rm))):
            raise GermConstructionError(f"inconsistent linear system at order {m}")
        values[S_m] += x
        determined[S_m] = True


def _germ_start_offset_scalar(germ):
    """The hand-off search as one evaluation of the germ per offset tried."""
    eps_grid = germs._RADIUS * np.logspace(-0.5, -3.0, 26)
    for eps in eps_grid:
        f, df = germ.eval(eps)
        try:
            rhs = core.frame_rhs(f, df, germ.lam)
        except core.NonPositiveProfile as exc:
            raise GermConstructionError(
                f"germ is not positive at offset {eps:.3g}: {exc}") from exc
        defect = np.max(np.abs(rhs - germ.eval_second(eps))) / (1.0 + np.max(np.abs(rhs)))
        if defect < germs._DEFECT_TARGET:
            return float(eps)
    raise GermConstructionError(
        f"no hand-off offset down to {eps_grid[-1]:.3g} meets the defect target "
        f"{germs._DEFECT_TARGET:.3g}")


def _germ_outcome(end, free, order):
    """Coefficient bytes and hand-off offset, with the message of whichever
    step raised in place of what it would have given."""
    try:
        germ = series_solve(end, free, 3.0, order=order)
    except GermConstructionError as exc:
        return str(exc), None
    try:
        return germ.coeffs.tobytes(), germ_start_offset(germ)
    except GermConstructionError as exc:
        return germ.coeffs.tobytes(), str(exc)


def test_germs_match_the_every_order_staircase_and_scalar_hand_off(monkeypatch):
    # every catalog end, so3_hitchin k <= 6 included, at its shipped free
    # values (the k = 3 ones for k > 3) and 12 seeded points within 25% of
    # them, plus two germs that fail: bit for bit, or the same message
    shipped = {}
    for d in diagram_catalog() + [get_diagram("so3_hitchin", k) for k in (4, 5, 6)]:
        g = initial_guess(d.case_id, min(d.k, 3))
        for end, free in ((d.left, g[:2]), (d.right, g[2:4])):
            shipped.setdefault(end, free)
    rng = np.random.default_rng(28)
    cases = [(get_diagram("so3_s4").left, [0.2, -2.0], 8),
             (get_diagram("su2_s4").left, [-1 / 6, -1 / 6], 4)]
    for end, free in shipped.items():
        cases.append((end, free, 8))
        for _ in range(12):
            scale = rng.uniform(-0.25, 0.25, 2)
            cases.append((end, np.where(free != 0.0, free * (1 + scale), scale), 8))
    got = [_germ_outcome(*case) for case in cases]
    monkeypatch.setattr(germs, "_staircase", _staircase_every_order)
    monkeypatch.setattr(germs, "germ_start_offset", _germ_start_offset_scalar)
    want = [_germ_outcome(*case) for case in cases]
    assert got == want
    assert sum(isinstance(o, str) for _, o in got) == 2


def test_the_hand_off_grid_rows_are_the_scalar_evaluations():
    germ = series_solve(get_diagram("su2_cp2bar").left, initial_guess("su2_cp2bar")[:2], 3.0)
    grid = germs._RADIUS * np.logspace(-0.5, -3.0, 26)
    (f, df), dd = germ.eval(grid), germ.eval_second(grid)
    for i, eps in enumerate(grid):
        fs, dfs = germ.eval(eps)
        assert (f[i].tobytes(), df[i].tobytes(), dd[i].tobytes()) == (
            fs.tobytes(), dfs.tobytes(), germ.eval_second(eps).tobytes())


# ---------------------------------------------------------------------------
# indicial analysis
# ---------------------------------------------------------------------------

def test_indicial_eigenvalues_of_the_standard_problems():
    cat = indicial_catalog(k=2)
    assert indicial_eigenvalues(cat["s4_A_pair"]) == (-2.0, 1.0)
    assert indicial_eigenvalues(cat["s4_F_pair"]) == (-3.0, 0.0)
    assert indicial_eigenvalues(cat["cp2_B_pair"]) == (-2.0, 1.0)
    assert indicial_eigenvalues(cat["s2xs2_A_pair"]) == (-3.0, 1.0)
    assert indicial_eigenvalues(cat["hitchin_B_pair"]) == (-3.0, 1.0)
    assert indicial_eigenvalues(cat["hitchin_E_pair"]) == (-4.0, 0.0)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_indicial_eigenvalues_hitchin_family(k):
    cat = indicial_catalog(k=k)
    assert indicial_eigenvalues(cat["hitchin_B_pair"]) == (-(k + 1.0), 1.0)
    assert indicial_eigenvalues(cat["hitchin_E_pair"]) == (-(k + 2.0), 0.0)


# each catalog entry at k = 2 as the literal [[p, q], [q, p]] it stands for
_LITERAL_INDICIAL = {
    "s4_A_pair": (-0.5, 1.5),
    "s4_F_pair": (-1.5, 1.5),
    "cp2_B_pair": (-0.5, 1.5),
    "s2xs2_A_pair": (-1.0, 2.0),
    "hitchin_B_pair": (-1.0, 2.0),
    "hitchin_E_pair": (-2.0, 2.0),
}


@pytest.mark.parametrize("name", sorted(_LITERAL_INDICIAL))
def test_indicial_input_is_a_plain_array(name):
    p, q = _LITERAL_INDICIAL[name]
    Q = np.array([[p, q], [q, p]])
    entry = indicial_catalog(k=2)[name]
    assert np.array_equal(Q, entry)
    assert indicial_eigenvalues(Q) == indicial_eigenvalues(entry)
    ts = np.geomspace(1e-3, 0.1, 30)
    for order in indicial_eigenvalues(Q):
        X = np.column_stack([ts**order, -ts**order])
        assert germ_decay_check(ts, X, Q) == germ_decay_check(ts, X, entry)
        assert germ_decay_check(ts, X, Q).passed


def test_decay_check_certifies_identically_zero():
    # Kaehler closed form: the designated pair vanishes identically
    prof = oracle("fs_so3", lam=3.0)
    ts = np.geomspace(1e-3, 0.2, 24)
    X = np.empty((len(ts), 2))
    for i, s in enumerate(ts):
        t = prof.T - s
        L, R, _ = core.lr_from_frame(prof.f(t), prof.df(t))
        _, B = core.ab_coeffs(L, R)
        X[i] = (B[0], B[1])
    cat = indicial_catalog()
    rep = germ_decay_check(ts, X, cat["cp2_B_pair"])
    assert rep.passed and rep.identically_zero


def test_decay_check_matches_admissible_order():
    ts = np.geomspace(1e-3, 0.1, 30)
    X = np.column_stack([2.0 * ts**1.0, -0.5 * ts**1.0])
    rep = germ_decay_check(ts, X, indicial_catalog()["s4_A_pair"])
    assert rep.passed and not rep.identically_zero
    assert rep.matched_eigenvalue == 1.0
    assert abs(rep.fitted_order - 1.0) < 0.05


def test_decay_check_negative_control():
    # synthetic order 0.37 is not an indicial eigenvalue of any catalog entry
    ts = np.geomspace(1e-3, 0.1, 30)
    X = np.column_stack([ts**0.37, ts**0.37])
    rep = germ_decay_check(ts, X, indicial_catalog()["s4_A_pair"])
    assert not rep.passed


def test_decay_check_input_validation():
    with pytest.raises(ValueError):
        germ_decay_check(np.array([0.1, 0.2]), np.zeros((2, 2)),
                         indicial_catalog()["s4_A_pair"])
