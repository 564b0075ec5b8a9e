"""Command-line front end: output formats, config parsing, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from c1einstein import cli, diagnostics, integrator, shooting
from c1einstein.cli import (CSV_HEADER, ConfigError, EXIT_CHECK_FAILURE, EXIT_DEFECT,
                            EXIT_NONCONVERGENCE, EXIT_PASS, EXIT_USAGE, UsageError,
                            certificates, emit, load_config, run)
from c1einstein.germs import get_diagram
from c1einstein.presets import initial_guess, scan_box
from c1einstein.shooting import NonConvergence, ShootingProblem, scan


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_load_config(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("# comment\n rtol = 1e-9 \n\nmax_iter=7  # trailing\n")
    assert load_config(p) == {"rtol": 1e-9, "max_iter": 7}


def test_load_config_unknown_key_names_line(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("rtol = 1e-9\nbogus = 3\n")
    with pytest.raises(ConfigError, match=r":2: unknown key 'bogus'"):
        load_config(p)
    # the last value does not silently win
    p.write_text("rtol = 1e-9\n\nrtol = 1e-8\n")
    with pytest.raises(ConfigError, match=r":3: duplicate key 'rtol'"):
        load_config(p)
    assert issubclass(ConfigError, UsageError)


def test_load_config_malformed_line(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("just words\n")
    with pytest.raises(ConfigError, match=r":1: expected key = value"):
        load_config(p)
    p.write_text("max_iter = soon\n")
    with pytest.raises(ConfigError, match=r":1: bad value"):
        load_config(p)


def test_load_config_rejects_a_germ_order_short_of_the_defect_target(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("rtol = 1e-9\ngerm_order = 6\n")
    with pytest.raises(ConfigError, match=r":2: germ_order must be at least 7"):
        load_config(p)
    p.write_text("germ_order = 7\n")
    assert load_config(p) == {"germ_order": 7}


# ---------------------------------------------------------------------------
# emit
# ---------------------------------------------------------------------------

def test_emit_files_and_roundtrip(tmp_path, solutions):
    sr = solutions("su2_s4")
    files = emit(sr, tmp_path / "out", certificates(sr))
    assert [f.split("/")[-1] for f in files] == [
        "solution.csv", "constants.txt", "diagnostics.json"]
    with open(files[0]) as fh:
        assert fh.readline() == CSV_HEADER + "\n"
    cols = np.loadtxt(files[0], delimiter=",", skiprows=1)
    d = sr.trajectory.diagnostics()
    # 17-significant-digit decimal round-trips doubles exactly
    assert np.array_equal(cols[:, 0], d["t"])
    assert np.array_equal(cols[:, 2], d["f"][:, 1])
    assert np.array_equal(cols[:, -1], d["constraint"])

    txt = (tmp_path / "out" / "constants.txt").read_text()
    assert "diagram = su2_s4" in txt
    assert "lambda = 3" in txt

    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert diag["converged"] is True
    assert diag["jacobian_rank"] == 5
    assert diag["chi"] == pytest.approx(2.0, abs=1e-3)
    assert diag["tau"] == pytest.approx(0.0, abs=1e-3)
    assert sorted(map(tuple, diag["equal_pairs"])) == [(1, 2), (2, 3), (3, 1)]


def test_emit_deterministic(tmp_path, solutions):
    sr = solutions("su2_s4")
    a = emit(sr, tmp_path / "a", certificates(sr))
    b = emit(sr, tmp_path / "b", certificates(sr))
    for pa, pb in zip(a, b):
        assert Path(pa).read_bytes() == Path(pb).read_bytes()


def test_solution_csv_reads_back_the_diagnostics_bit_for_bit(tmp_path, solutions):
    sr = solutions("so3_s2xs2")
    emit(sr, tmp_path, certificates(sr))
    d = sr.trajectory.diagnostics()
    want = np.column_stack([d["t"], d["f"], d["df"], d["L"], d["R"], d["A"], d["B"],
                            d["a"], d["b"], d["constraint"]])
    got = np.loadtxt(tmp_path / "solution.csv", delimiter=",", skiprows=1)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_rows", [1, 65])
def test_the_csv_writer_writes_savetxts_bytes(tmp_path, n_rows):
    # 65 rows are one full block of 64 and a block of one
    edge = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
            1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16]
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((n_rows, 26)) * 10.0 ** rng.integers(-300, 300, (n_rows, 26))
    rows[0, :len(edge)] = edge
    rows[-1, -len(edge):] = edge[::-1]
    cli._write_csv(tmp_path / "new.csv", rows, CSV_HEADER)
    np.savetxt(tmp_path / "ref.csv", rows, fmt="%.17g", delimiter=",",
               header=CSV_HEADER, comments="")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert len((tmp_path / "new.csv").read_text().splitlines()) == 1 + n_rows


def test_csv_header_matches_diagnostics_layout():
    names = CSV_HEADER.split(",")
    assert len(names) == 26
    assert names[0] == "t" and names[-1] == "constraint"


# ---------------------------------------------------------------------------
# commands and exit codes
# ---------------------------------------------------------------------------

def test_solve_command(tmp_path, capsys):
    code = run(["solve", "--diagram", "su2_s4", "--out", str(tmp_path / "o")])
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    assert "converged diagram=su2_s4" in out
    assert (tmp_path / "o" / "solution.csv").exists()


def test_verify_command_passes(tmp_path, capsys):
    for argv in (["so3_s4"], ["so3_hitchin", "--k", "3"]):
        code = run(["verify", "--diagram", *argv, "--out", str(tmp_path / argv[0])])
        assert code == EXIT_PASS
        out = capsys.readouterr().out
        assert "PASS match_residual" in out
        assert "PASS chi" in out and "PASS tau" in out
        assert "FAIL" not in out


# runs a verify and prints its exit code and whether numpy.random was imported
_VERIFY_SCRIPT = """
import sys
from c1einstein import cli
rc = cli.run(["verify", "--diagram", "so3_s4", "--out", sys.argv[1]])
print(rc, "numpy.random" in sys.modules)
"""


def test_verify_does_not_import_numpy_random(tmp_path):
    # only a perturbed start draws random numbers; a plain verify needs none
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _VERIFY_SCRIPT, str(tmp_path / "o")],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == f"{EXIT_PASS} False"


def test_verify_out_integrates_the_curvature_once(tmp_path, monkeypatch):
    # each command builds one record: every certificate, the ratio check and
    # the endpoint constants run once, and the trajectory's curvature is
    # computed by drift_report in solve, the record's Kaehler test and eigen
    # gaps, and emit's CSV rows
    calls = []

    def counting(name, fn):
        def counted(*args, **kw):
            calls.append(name)
            return fn(*args, **kw)
        return counted

    once = ["characteristic_numbers", "detect_equal_pairs", "eigen_gap_report",
            "kahler_detector", "max_principle_check", "invariant_constants"]
    for name in once:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    monkeypatch.setattr(integrator.Trajectory, "diagnostics",
                        counting("diagnostics", integrator.Trajectory.diagnostics))
    argv = ["--diagram", "su2_cp2", "--out"]
    for command, n_curvature in (("verify", 4), ("solve", 4), ("report", 3)):
        calls.clear()
        assert run([command] + argv + [str(tmp_path / command)]) == EXIT_PASS
        assert sorted(calls) == sorted(once + ["diagnostics"] * n_curvature), command
    for name in ("diagnostics.json", "constants.txt", "solution.csv"):
        assert ((tmp_path / "verify" / name).read_bytes()
                == (tmp_path / "solve" / name).read_bytes()), name


@pytest.mark.parametrize("case_id", ["so3_cp2", "su2_cp2bar"])
def test_printed_certificates_are_the_records(tmp_path, capsys, case_id):
    # so3_cp2 is Kaehler, Page's su2_cp2bar is not
    assert run(["verify", "--diagram", case_id, "--out", str(tmp_path)]) == EXIT_PASS
    verified = capsys.readouterr().out.splitlines()
    assert run(["report", "--diagram", case_id]) == EXIT_PASS
    reported = capsys.readouterr().out.splitlines()
    rec = json.loads((tmp_path / "diagnostics.json").read_text())
    # one printed verdict per check, the record's
    verdicts = [line.split()[:2] for line in verified if line.startswith(("PASS", "FAIL"))]
    assert dict((name, v) for v, name in verdicts) == {
        name: "PASS" if c["passed"] else "FAIL" for name, c in rec["checks"].items()}
    assert len(verdicts) == len(rec["checks"]) == 7
    assert all(c["passed"] for c in rec["checks"].values())
    assert [line for line in verified if " = " in line] == [
        f"  {name} = {val:.6f}" for name, val in sorted(rec["constants"].items())]
    assert [line.split()[0] for line in reported[3:-4]] == sorted(rec["constants"])
    assert [float(line.split()[1]) for line in reported[3:-4]] == pytest.approx(
        [val for _, val in sorted(rec["constants"].items())], rel=1e-11)
    assert rec["kahler"]["is_kahler"] is (case_id == "so3_cp2")
    assert f"  kahler: {str(rec['kahler']['is_kahler']).lower()}" in verified
    assert f"PASS chi ({rec['chi']:.6f})" in verified
    assert f"PASS tau ({rec['tau']:.6f})" in verified
    assert reported[-4:] == [f"a_spread  {rec['eigen_gaps']['a_spread']:.3e}",
                             f"b_spread  {rec['eigen_gaps']['b_spread']:.3e}",
                             f"chi       {rec['chi']:.9f}",
                             f"tau       {rec['tau']:.9f}"]


def _nan_ratio_residual(sr):
    out = diagnostics.max_principle_check(sr)
    out[(2, 3)]["eq_residual"] = np.nan
    return out


def _nan_trace_drift(pr, guess, **kw):
    sr = shooting.solve(pr, guess, **kw)
    sr.drift["max_trace_b"] = np.nan
    return sr


@pytest.mark.parametrize("attr,patched,check", [
    ("max_principle_check", _nan_ratio_residual, "ratio_equation_extrema"),
    ("solve", _nan_trace_drift, "trace_drift"),
])
def test_a_nan_fails_its_verify_check(tmp_path, capsys, monkeypatch, attr, patched, check):
    # Python's max skips a NaN that does not come first: max(1e-12, nan) is 1e-12
    monkeypatch.setattr(cli, attr, patched)
    code = run(["verify", "--diagram", "so3_s4", "--out", str(tmp_path)])
    assert f"FAIL {check} (nan)" in capsys.readouterr().out.splitlines()
    assert code == EXIT_CHECK_FAILURE
    rec = json.loads((tmp_path / "diagnostics.json").read_text())
    assert rec["checks"][check]["passed"] is False
    assert [n for n, c in rec["checks"].items() if not c["passed"]] == [check]


def test_emit_writes_no_coerced_value(tmp_path, monkeypatch, solutions):
    # a numpy bool is not JSON, and emit does not write it as a float (1.0)
    real = cli.kahler_detector
    monkeypatch.setattr(cli, "kahler_detector",
                        lambda sr: {**real(sr), "is_kahler": np.True_})
    sr = solutions("so3_cp2")
    with pytest.raises(TypeError, match="bool"):
        emit(sr, tmp_path / "o", certificates(sr))
    assert not (tmp_path / "o").exists()


def test_verify_detects_degraded_solution(tmp_path, capsys):
    # a deliberately loose solver tolerance leaves a residual the
    # verification thresholds must flag
    cfg = tmp_path / "cfg"
    cfg.write_text("perturb = 0.05\nseed = 3\nsolver_tol = 1e-2\nmax_iter = 2\n")
    code = run(["verify", "--diagram", "su2_s4", "--config", str(cfg),
                "--out", str(tmp_path / "o")])
    assert code == EXIT_CHECK_FAILURE
    assert "FAIL match_residual" in capsys.readouterr().out


def test_nonconvergence_exit(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("perturb = 0.2\nseed = 1\nmax_iter = 1\n")
    code = run(["solve", "--diagram", "su2_s4", "--config", str(cfg),
                "--out", str(tmp_path / "o")])
    assert code == EXIT_NONCONVERGENCE
    assert "non-convergence" in capsys.readouterr().err


def test_usage_errors(tmp_path, capsys, monkeypatch):
    # an --out that cannot be a directory is rejected before any solve
    monkeypatch.setattr(cli, "solve", None)
    monkeypatch.setattr(cli, "scan", None)
    afile = tmp_path / "afile"
    afile.write_text("")
    for out in ("", str(afile), str(afile / "sub")):
        for command in ("solve", "scan", "verify"):
            assert run([command, "--diagram", "so3_s4", "--out", out]) == EXIT_USAGE
            assert f"--out must name a directory, got {out!r}" in capsys.readouterr().err
    assert afile.read_text() == ""
    monkeypatch.undo()
    assert run(["solve", "--diagram", "nope"]) == EXIT_USAGE
    assert run(["solve"]) == EXIT_USAGE
    assert run(["explode", "--diagram", "su2_s4"]) == EXIT_USAGE
    assert run(["solve", "--diagram", "so3_hitchin"]) == EXIT_USAGE  # needs k
    bad = tmp_path / "cfg"
    bad.write_text("nonsense = 1\n")
    assert run(["solve", "--diagram", "su2_s4", "--config", str(bad)]) == EXIT_USAGE
    assert run(["--help"]) == EXIT_PASS


def test_cone_order_on_a_diagram_without_one_is_a_usage_error(tmp_path, capsys):
    assert run(["report", "--diagram", "su2_s4", "--k", "5"]) == EXIT_USAGE
    assert "k = 5" in capsys.readouterr().err
    assert run(["solve", "--diagram", "so3_s4", "--k", "1",
                "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert not (tmp_path / "o").exists()


def test_scan_command(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("scan_width = 0.05\nscan_points = 2\n")
    code = run(["scan", "--diagram", "su2_s4", "--config", str(cfg),
                "--out", str(tmp_path / "o")])
    assert code == EXIT_PASS
    lines = (tmp_path / "o" / "scan.csv").read_text().splitlines()
    assert lines[0] == "L.da,L.db,R.da,R.db,T,residual"
    assert len(lines) == 1 + 2 ** 5


@pytest.mark.parametrize("case_id", ["su2_s4", "so3_s2xs2"])
def test_scan_csv_holds_the_scan_bit_for_bit(tmp_path, capsys, case_id):
    # so3_s2xs2's guess has a zero entry, whose axis runs through 0.0
    cfg = tmp_path / "cfg"
    cfg.write_text("scan_width = 0.05\nscan_points = 2\n")
    code = run(["scan", "--diagram", case_id, "--config", str(cfg),
                "--out", str(tmp_path / "o")])
    assert code == EXIT_PASS
    path = tmp_path / "o" / "scan.csv"
    pr = ShootingProblem(get_diagram(case_id))
    assert path.read_text().splitlines()[0] == ",".join(pr.unknown_names) + ",residual"
    want = np.array([[*u, r] for u, r in scan(pr, scan_box(case_id, width=0.05, n=2))])
    got = np.loadtxt(path, delimiter=",", skiprows=1)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("points", [0, 1])
def test_scan_box_needs_two_points_per_axis(tmp_path, capsys, points):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"scan_points = {points}\n")
    code = run(["scan", "--diagram", "so3_s4", "--config", str(cfg),
                "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert not (tmp_path / "o" / "scan.csv").exists()
    assert f"at least 2 points per axis, got n = {points}" in capsys.readouterr().err


@pytest.mark.parametrize("width", [0.0, 1.0, 1.5])
def test_scan_box_stays_inside_the_positive_domain(tmp_path, capsys, width):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"scan_width = {width}\nscan_points = 2\n")
    code = run(["scan", "--diagram", "so3_s4", "--config", str(cfg),
                "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert not (tmp_path / "o").exists()
    assert f"relative width in (0, 1), got width = {width}" in capsys.readouterr().err


def test_report_command(capsys):
    for argv in (["so3_cp2"], ["so3_hitchin", "--k", "3"]):
        code = run(["report", "--diagram", *argv])
        assert code == EXIT_PASS
        out = capsys.readouterr().out
        assert "beta" in out and "chi" in out and "tau" in out


def test_report_surfaces_diagnostic_errors(tmp_path, capsys, monkeypatch):
    # a diagram without endpoint constants still reports
    assert run(["report", "--diagram", "su2_s4"]) == EXIT_PASS

    def broken(*args):
        raise ValueError("broken constants")

    # a ValueError from the diagnostics or from a shot is a defect, not a
    # usage error: it propagates out of run, and main exits 4 with its traceback
    monkeypatch.setattr(cli, "invariant_constants", broken)
    with pytest.raises(ValueError, match="broken constants"):
        run(["report", "--diagram", "so3_s4"])
    monkeypatch.undo()
    monkeypatch.setattr(shooting, "shoot", broken)
    with pytest.raises(ValueError, match="broken constants"):
        run(["verify", "--diagram", "so3_s4", "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()
    capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["c1einstein", "verify", "--diagram", "so3_s4",
                                      "--out", str(tmp_path / "o")])
    with pytest.raises(SystemExit) as exit_:
        cli.main()
    assert exit_.value.code == EXIT_DEFECT
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and err.endswith("ValueError: broken constants\n")


def test_config_keys_and_tol_reach_the_problem(tmp_path, monkeypatch):
    seen = []

    def stop(pr, guess, **kw):
        seen.append(pr)
        raise NonConvergence("stopped before solving")

    monkeypatch.setattr(cli, "solve", stop)
    cfg = tmp_path / "cfg"
    cfg.write_text("theta = 0.35\ngerm_order = 9\nrtol = 1e-8\natol = 1e-9\n")
    argv = ["solve", "--diagram", "so3_cp2", "--config", str(cfg),
            "--out", str(tmp_path / "o")]
    assert run(argv) == EXIT_NONCONVERGENCE
    # the tolerances have one route, the config file
    assert run(argv + ["--tol", "1e-10"]) == EXIT_USAGE
    # a scan runs on one thread: there is no --jobs
    assert run(["scan", "--diagram", "su2_s4", "--jobs", "2",
                "--out", str(tmp_path / "o")]) == EXIT_USAGE
    from_cfg, = seen
    assert (from_cfg.theta, from_cfg.germ_order, from_cfg.rtol, from_cfg.atol) == (
        0.35, 9, 1e-8, 1e-9)


@pytest.mark.parametrize("command", ["solve", "verify", "report"])
def test_perturb_and_seed_reach_every_solving_command(tmp_path, monkeypatch, command):
    guesses = []

    def stop(pr, guess, **kw):
        guesses.append(guess)
        raise NonConvergence("stopped before solving")

    monkeypatch.setattr(cli, "solve", stop)
    cfg = tmp_path / "cfg"
    cfg.write_text("perturb = 0.05\nseed = 3\n")
    assert run([command, "--diagram", "so3_cp2", "--config", str(cfg),
                "--out", str(tmp_path / "o")]) == EXIT_NONCONVERGENCE
    shipped = initial_guess("so3_cp2")
    rng = np.random.default_rng(3)
    assert np.array_equal(guesses[0], shipped * (1.0 + 0.05 * rng.uniform(-1, 1, 5)))


@pytest.mark.parametrize("command,config,shown", [
    ("solve", "rtol = 0\natol = 0\n", "got rtol = 0.0, atol = 0.0"),
    ("verify", "rtol = 0\natol = 0\n", "got rtol = 0.0, atol = 0.0"),
    ("scan", "rtol = 0\natol = 0\n", "got rtol = 0.0, atol = 0.0"),
    ("solve", "atol = 0\n", "atol = 0.0"),
    ("solve", "rtol = nan\n", "got rtol = nan"),
    ("solve", "atol = -1e-13\n", "atol = -1e-13"),
    ("solve", "max_iter = -1\n", "max_iter must be at least 0, got -1"),
    ("verify", "perturb = 0.01\nseed = -1\n", "expected non-negative integer"),
    ("verify", "perturb = nan\n", "non-finite unknown vector"),
    ("report", "perturb = 0.01\nmax_iter = 3\nmax_iter = 4\n", ":3: duplicate key 'max_iter'"),
])
def test_a_config_that_breaks_the_solve_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                         command, config, shown):
    # unchecked, rtol = atol = 0 ends in a ZeroDivisionError traceback and
    # max_iter = -1 caps nothing; checked, the command stops before any shot
    monkeypatch.setattr(shooting, "shoot", None)
    cfg = tmp_path / "cfg"
    cfg.write_text(config)
    out = tmp_path / "o"
    assert run([command, "--diagram", "so3_s4", "--config", str(cfg),
                "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert line.startswith("error: ") and shown in line
    assert not out.exists()


@pytest.mark.parametrize("value,shown", [("0", "0.0"), ("nan", "nan"), ("-1e-9", "-1e-09")])
def test_a_solver_tol_no_norm_can_pass_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                         value, shown):
    # unchecked, solver_tol = 0 works the solve about a second and exits 2
    monkeypatch.setattr(shooting, "shoot", None)
    cfg = tmp_path / "cfg"
    cfg.write_text(f"solver_tol = {value}\n")
    out = tmp_path / "o"
    assert run(["solve", "--diagram", "so3_s4", "--config", str(cfg),
                "--out", str(out)]) == EXIT_USAGE
    line, = capsys.readouterr().err.splitlines()
    assert line == f"error: tol must be positive and finite, got tol = {shown}"
    assert not out.exists()
