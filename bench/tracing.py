"""Spans around the package's public functions, recorded from outside it.

``Tracer.install()`` replaces each hooked function at every module attribute
through which callers resolve it at call time, and on the class for the one
method; ``Tracer.remove()`` puts the originals back.  Each span records its
name, start, end and parent; spans stay in memory until ``save``.

A span opened on a worker thread with no open span of its own takes the
innermost open span of the main thread as its parent: the only workers are
those of ``shooting.scan``'s pool, which run on behalf of that scan.
"""

import functools
import itertools
import json
import os
import threading
import time

import numpy as np

from c1einstein import cli, core, diagnostics, germs, integrator, shooting


def _leg(traj):
    return traj.reason, traj.n_accepted, traj.n_rejected


def _n_iter(report):
    return report.n_iter


def _bytes_written(paths):
    return sum(os.path.getsize(p) for p in paths)


# (span name, owner of the original, attribute, other owners that bind it by
# name at import, facts read from the return value)
HOOKS = (
    ("core.frame_rhs", core, "frame_rhs", (), None),
    ("germs.series_solve", germs, "series_solve", (shooting,), None),
    ("germs.germ_start_offset", germs, "germ_start_offset", (), None),
    ("integrator.integrate_germ", integrator, "integrate_germ", (shooting,), _leg),
    ("integrator.Trajectory.diagnostics", integrator.Trajectory, "diagnostics", (), None),
    ("integrator.drift_report", integrator, "drift_report", (shooting,), None),
    ("shooting.match_residual", shooting, "match_residual", (), None),
    ("shooting.solve", shooting, "solve", (cli,), _n_iter),
    ("shooting.scan", shooting, "scan", (cli,), None),
    ("diagnostics.characteristic_numbers", diagnostics, "characteristic_numbers", (cli,), None),
    ("diagnostics.max_principle_check", diagnostics, "max_principle_check", (cli,), None),
    ("diagnostics.kahler_detector", diagnostics, "kahler_detector", (cli,), None),
    ("diagnostics.eigen_gap_report", diagnostics, "eigen_gap_report", (cli,), None),
    ("cli.emit", cli, "emit", (), _bytes_written),
    # the verify command's body; cli.run dispatches to it by global lookup
    ("cli.verify", cli, "_verify", (), None),
)
SPAN_NAMES = tuple(h[0] for h in HOOKS)

# hooks a workload does not reach; every other hook must fire on it
NOT_REACHED = {
    "verify_catalog": {"shooting.scan"},
    "perturbed_solve": {"shooting.scan", "cli.emit", "cli.verify",
                        "diagnostics.characteristic_numbers",
                        "diagnostics.max_principle_check",
                        "diagnostics.kahler_detector",
                        "diagnostics.eigen_gap_report"},
    "residual_scan": {"shooting.solve", "integrator.Trajectory.diagnostics",
                      "integrator.drift_report", "cli.emit", "cli.verify",
                      "diagnostics.characteristic_numbers",
                      "diagnostics.max_principle_check",
                      "diagnostics.kahler_detector",
                      "diagnostics.eigen_gap_report"},
}


class HookError(RuntimeError):
    """A hooked attribute no longer holds the function the tracer expects."""


class Tracer:
    def __init__(self):
        self.spans = []   # (id, name index, parent id, start, end); parent 0 is the root
        self.facts = {}   # span id -> facts read from the return value
        self._ids = itertools.count(1)
        self._main = []   # open span ids of the main thread
        self._local = threading.local()
        self._patched = []  # (owner, attribute, original)

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name_index, read_facts):
        spans, facts, ids = self.spans, self.facts, self._ids
        main = self._main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = main[-1]
                except IndexError:
                    parent = 0
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, name_index, parent, t0, t1))
            if read_facts is not None:
                facts[sid] = read_facts(out)
            return out

        traced.__wrapped_original__ = fn
        return traced

    def install(self):
        if self._patched:
            raise HookError("tracer already installed")
        try:
            for i, (_, owner, attr, binders, read_facts) in enumerate(HOOKS):
                original = getattr(owner, attr)
                wrapper = self._wrap(original, i, read_facts)
                for target in (owner,) + binders:
                    if getattr(target, attr) is not original:
                        raise HookError(f"{target.__name__}.{attr} is not "
                                        f"{owner.__name__}.{attr}")
                    setattr(target, attr, wrapper)
                    self._patched.append((target, attr, original))
        except BaseException:
            self.remove()
            raise

    def remove(self):
        """Restore every patched attribute and report the ones that did not
        come back to their original."""
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)
        return [f"{owner.__name__}.{attr}" for _, owner, attr, binders, _ in HOOKS
                for target in (owner,) + binders
                if hasattr(getattr(target, attr), "__wrapped_original__")]

    def arrays(self):
        rows = np.array(self.spans, dtype=float).reshape(-1, 5)
        return (rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64),
                rows[:, 2].astype(np.int64), rows[:, 3], rows[:, 4])

    def save(self, path, summary):
        """Write the spans (npz) and the summary (json) side by side."""
        sid, name, parent, t0, t1 = self.arrays()
        np.savez_compressed(f"{path}.npz", names=np.array(SPAN_NAMES), id=sid,
                            name=name, parent=parent, start=t0, end=t1)
        with open(f"{path}.json", "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _covered(starts, ends):
    """Length of the union of the intervals [starts[i], ends[i]]."""
    order = np.argsort(starts)
    s, e = starts[order], ends[order]
    reach = np.maximum.accumulate(e)
    before = np.concatenate(([-np.inf], reach[:-1]))
    return float(np.sum(np.maximum(0.0, reach - np.maximum(s, before))))


def layer_metrics(tracer, jobs):
    """Per-layer metrics of one traced pass, whose scans ran with ``jobs``
    workers.  Counts come from spans and from the Trajectory and
    SolutionReport objects the hooked calls returned."""
    sid, name, parent, t0, t1 = tracer.arrays()
    dur = t1 - t0
    index = {n: i for i, n in enumerate(SPAN_NAMES)}
    of = {n: np.flatnonzero(name == i) for n, i in index.items()}

    # self time: duration minus the union of the children's intervals
    self_s = dur.copy()
    pos = {int(s): i for i, s in enumerate(sid)}
    order = np.argsort(parent, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(parent[order])) + 1)
    for g in groups:
        p = int(parent[g[0]])
        if p in pos:
            self_s[pos[p]] -= _covered(t0[g], t1[g])

    def calls(n):
        return int(of[n].size)

    def total(n):
        return float(dur[of[n]].sum())

    def self_total(n):
        return float(self_s[of[n]].sum())

    # a leg that raised returned no Trajectory; it counts as stopped, with no steps
    legs = [tracer.facts.get(int(sid[i]), ("raised", 0, 0))
            for i in of["integrator.integrate_germ"]]
    reached = [leg for leg in legs if leg[0] == "reached_target"]
    stopped = [leg for leg in legs if leg[0] != "reached_target"]

    # a residual is a penalty unless both of its legs reached the match point
    reached_children = {}
    for i, leg in zip(of["integrator.integrate_germ"], legs):
        ok = leg[0] == "reached_target"
        counts = reached_children.setdefault(int(parent[i]), [0, 0])
        counts[0] += 1
        counts[1] += ok
    residuals = [int(sid[i]) for i in of["shooting.match_residual"]]
    penalties = sum(reached_children.get(r, [0, 0]) != [2, 2] for r in residuals)

    solve_ids = {int(sid[i]) for i in of["shooting.solve"]}
    up = dict(zip(sid.tolist(), parent.tolist()))

    def under_solve(s):
        while s:
            s = up.get(s, 0)
            if s in solve_ids:
                return True
        return False

    in_solve = sum(under_solve(r) for r in residuals)
    scan_ids = {int(sid[i]) for i in of["shooting.scan"]}
    in_scan = [i for i in of["shooting.match_residual"] if int(parent[i]) in scan_ids]
    scan_wall = total("shooting.scan")
    rhs_calls = calls("core.frame_rhs")

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "core.frame_rhs.calls": rhs_calls,
        "core.frame_rhs.total_s": total("core.frame_rhs"),
        "core.frame_rhs.us_per_call": ratio(total("core.frame_rhs") * 1e6, rhs_calls),
        "germs.series_solve.calls": calls("germs.series_solve"),
        "germs.series_solve.total_s": total("germs.series_solve"),
        "germs.germ_start_offset.calls": calls("germs.germ_start_offset"),
        "germs.germ_start_offset.total_s": total("germs.germ_start_offset"),
        "integrator.integrate_germ.calls": len(legs),
        "integrator.integrate_germ.self_s": self_total("integrator.integrate_germ"),
        "integrator.steps_accepted": sum(leg[1] for leg in legs),
        "integrator.steps_rejected": sum(leg[2] for leg in legs),
        "integrator.legs_reached_frac": ratio(len(reached), len(legs)),
        "integrator.steps_in_stopped_legs": sum(leg[1] + leg[2] for leg in stopped),
        "integrator.Trajectory.diagnostics.calls": calls("integrator.Trajectory.diagnostics"),
        "integrator.Trajectory.diagnostics.total_s": total("integrator.Trajectory.diagnostics"),
        "integrator.drift_report.total_s": total("integrator.drift_report"),
        "shooting.match_residual.calls": len(residuals),
        "shooting.match_residual.total_s": total("shooting.match_residual"),
        "shooting.match_residual.penalty_frac": ratio(penalties, len(residuals)),
        "shooting.match_residual.calls_per_solve": ratio(in_solve, len(solve_ids)),
        "shooting.solve.calls": len(solve_ids),
        "shooting.solve.self_s": self_total("shooting.solve"),
        "shooting.solve.n_iter": sum(tracer.facts.get(s, 0) for s in solve_ids),
        "shooting.scan.total_s": scan_wall,
        "shooting.scan.parallel_eff": ratio(float(dur[in_scan].sum()), jobs * scan_wall),
        "diagnostics.characteristic_numbers.total_s": total("diagnostics.characteristic_numbers"),
        "diagnostics.max_principle_check.total_s": total("diagnostics.max_principle_check"),
        "diagnostics.kahler_detector.total_s": total("diagnostics.kahler_detector"),
        "diagnostics.eigen_gap_report.total_s": total("diagnostics.eigen_gap_report"),
        "cli.emit.calls": calls("cli.emit"),
        "cli.emit.total_s": total("cli.emit"),
        "cli.emit.bytes": sum(tracer.facts.get(int(sid[i]), 0) for i in of["cli.emit"]),
        "cli.verify.self_s": self_total("cli.verify"),
    }
    fired = {n for n in SPAN_NAMES if calls(n)}
    return m, fired


# counts that must repeat exactly between two traced runs of one seed
DETERMINISTIC = (
    "core.frame_rhs.calls",
    "germs.series_solve.calls",
    "germs.germ_start_offset.calls",
    "integrator.integrate_germ.calls",
    "integrator.steps_accepted",
    "integrator.steps_rejected",
    "integrator.steps_in_stopped_legs",
    "shooting.match_residual.calls",
    "shooting.solve.n_iter",
    "cli.emit.calls",
)
