"""The benchmark's three workloads, each built from a seed.

A workload is a list of calls into the package (a closed loop with one
client: each call starts when the previous one has returned) and a check of
their outputs.  The seed decides the inputs only; the package receives the
generated vectors and diagram ids, never the seed.

- verify_catalog: ``cli.run(["verify", ...])`` on all 8 catalog instances,
  in seeded order, each writing to a fresh directory under ``bench/out``.
- perturbed_solve: ``shooting.solve`` from the shipped guess scaled by
  ``1 + 0.01 U(-1, 1)`` per unknown, on su2_cp2, so3_cp2 and so3_hitchin
  k = 3, which between them cover all five end kinds.
- residual_scan: ``shooting.scan`` on 9 points of
  ``scan_box("su2_s4", width=0.25, n=3)`` at its longest T (see
  ``mirror_rows``), one point per call so that each point's time is
  observable, with ``jobs=1``: one point per call leaves a second worker
  nothing to do.  The exact shipped vector is scanned once, untimed, for
  the check.

Every call goes through the package's module attributes (``cli.run``,
``shooting.solve``, ``shooting.scan``) so that the traced run sees it.
"""

import contextlib
import io
import itertools
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

import numpy as np

from c1einstein import cli, germs, presets, shooting

OUT_DIR = Path(__file__).resolve().parent / "out"

CATALOG = (("su2_s4", 0), ("so3_s4", 0), ("su2_cp2", 0), ("so3_cp2", 0),
           ("su2_cp2bar", 0), ("so3_s2xs2", 0), ("so3_hitchin", 2),
           ("so3_hitchin", 3))
PERTURBED = (("su2_cp2", 0), ("so3_cp2", 0), ("so3_hitchin", 3))
PERTURBATION = 0.01
SOLVE_TOL = 1e-9
SOLUTION_AGREEMENT = 1e-7
SCAN_DIAGRAM = "su2_s4"
SCAN_WIDTH = 0.25
SCAN_LEVELS = 3
SCAN_JOBS = 1
SCAN_MINIMUM = 1e-7


@dataclass
class Workload:
    name: str
    calls: List[Callable]   # zero-argument calls into the package, in order
    check: Callable         # outputs of one pass -> one pass/fail flag per call
    prepare: Callable = lambda: None  # untimed work the check needs, run before any pass


def _problem(case_id, k):
    return shooting.ShootingProblem(germs.get_diagram(case_id, k))


def _verify_call(case_id, k):
    def call():
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        text = io.StringIO()
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as out, \
                contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            rc = cli.run(["verify", "--diagram", case_id, "--k", str(k), "--out", out])
        return rc, text.getvalue()
    return call


def verify_catalog(seed, tiny=False):
    rng = np.random.default_rng(seed)
    instances = [("so3_s4", 0)] if tiny else [CATALOG[i] for i in rng.permutation(len(CATALOG))]
    # verify builds its own problems; building them here puts their cost in set-up
    for case_id, k in instances:
        _problem(case_id, k)

    def check(outputs):
        return [not isinstance(out, Exception) and out[0] == cli.EXIT_PASS
                and not any(line.startswith("FAIL") for line in out[1].splitlines())
                for out in outputs]

    return Workload("verify_catalog", [_verify_call(c, k) for c, k in instances], check)


def perturbed_solve(seed, tiny=False):
    rng = np.random.default_rng(seed)
    cases = [("so3_cp2", 0)] if tiny else PERTURBED
    problems, shipped, guesses = [], [], []
    for case_id, k in cases:
        g = presets.initial_guess(case_id, k)
        problems.append(_problem(case_id, k))
        shipped.append(g)
        guesses.append(g * (1.0 + PERTURBATION * rng.uniform(-1.0, 1.0, g.size)))
    reference = []

    def prepare():
        # a shipped guess that already meets the tolerance is the solution
        # solve returns from it; only solve when it does not
        reference[:] = [
            g if np.max(np.abs(shooting.match_residual(pr, g))) < SOLVE_TOL
            else shooting.solve(pr, g, tol=SOLVE_TOL).u
            for pr, g in zip(problems, shipped)]

    def check(outputs):
        return [not isinstance(sr, Exception) and sr.converged
                and sr.residual_norm < SOLVE_TOL
                and float(np.max(np.abs(sr.u - ref))) <= SOLUTION_AGREEMENT
                for sr, ref in zip(outputs, reference)]

    calls = [lambda pr=pr, u=u: shooting.solve(pr, u, tol=SOLVE_TOL)
             for pr, u in zip(problems, guesses)]
    return Workload("perturbed_solve", calls, check, prepare)


def mirror_rows(rng, n_germ, n_levels):
    """Grid rows (left germ levels, right germ levels, T level) at the
    longest T, for two ends with ``n_germ`` germ values each: every
    combination of germ levels once, the same at both ends, in seeded order.

    With the same values at both ends the two legs are mirror images, so a
    point either reaches the match point or blows up on both legs.  A random
    pairing of left and right values would mix in points that blow up on
    one leg only, in a number that depends on the seed, and move the median
    point time from one kind of point to another between seeds.
    """
    combos = [list(c) for c in itertools.product(range(n_levels), repeat=n_germ)]
    return np.array([combos[i] + combos[i] + [n_levels - 1]
                     for i in rng.permutation(len(combos))])


def residual_scan(seed, tiny=False):
    rng = np.random.default_rng(seed)
    pr = _problem(SCAN_DIAGRAM, 0)
    exact = presets.initial_guess(SCAN_DIAGRAM)
    box = presets.scan_box(SCAN_DIAGRAM, width=SCAN_WIDTH, n=SCAN_LEVELS)
    # both ends of su2_s4 are fixed points with the same two germ values
    rows = mirror_rows(rng, len(pr.diagram.left.free), SCAN_LEVELS)
    if tiny:
        rows = rows[:2]
    # scan_box enumerates the grid with the first axis slowest
    index = rows @ (SCAN_LEVELS ** np.arange(exact.size - 1, -1, -1))
    points = [box[i] for i in index]
    exact_norm = []

    def prepare():
        (u, norm), = shooting.scan(pr, [exact], jobs=SCAN_JOBS)
        exact_norm[:] = [norm]

    def check(outputs):
        flags, norms = [], []
        for u_in, out in zip(points, outputs):
            ok = (not isinstance(out, Exception) and len(out) == 1
                  and np.array_equal(out[0][0], u_in) and np.isfinite(out[0][1]))
            flags.append(ok)
            norms.append(out[0][1] if ok else -np.inf)
        # the exact solution must give a smaller residual than any point
        best = exact_norm[0] < SCAN_MINIMUM
        return [ok and best and exact_norm[0] < n for ok, n in zip(flags, norms)]

    calls = [lambda u=u: shooting.scan(pr, [u], jobs=SCAN_JOBS) for u in points]
    return Workload("residual_scan", calls, check, prepare)


WORKLOADS = {w.__name__: w for w in (verify_catalog, perturbed_solve, residual_scan)}


def setup(name, seed, tiny=False):
    """Everything a workload needs before its first call: the diagram
    catalog, the workload's problems and its seeded inputs."""
    germs.diagram_catalog()
    return WORKLOADS[name](seed, tiny)
