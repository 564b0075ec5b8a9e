"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload verify_catalog --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  ``--trace 0`` makes whole passes of the workload, with
nothing patched, until ``--seconds`` have gone by and at least
``MIN_PASSES`` are done, and reports the end-to-end metrics: each
operation's time is its least over the passes, and the pass time is the sum
of those.  ``--trace 1`` splits ``--seconds`` between untraced passes and
passes with every hook of ``tracing.HOOKS`` installed, and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the run facts.  See ``bench/README.md`` for the
workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
# the least of this many repeats is the operation's time; fewer on a slow host
# and more on a fast one would make the estimate depend on the host's speed
MIN_PASSES = 2
WORKLOAD_NAMES = ("verify_catalog", "perturbed_solve", "residual_scan")


def use_checkout_src():
    """Put the checkout's ``src/`` first on the import path; refuse to fall
    back on an installed copy of the package."""
    if not (SRC / "c1einstein" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}")
    sys.path.insert(0, str(SRC))


def run_pass(workload):
    """One pass: every call in order, each timed alone.  Returns the pass
    wall time, the per-operation times and the outputs."""
    op_s, outputs = [], []
    start = time.perf_counter()
    for call in workload.calls:
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # an operation that raises is a failed operation
            out = exc
        op_s.append(time.perf_counter() - t0)
        outputs.append(out)
    return time.perf_counter() - start, op_s, outputs


def run_passes(workload, seconds, min_passes=MIN_PASSES):
    """Passes until ``seconds`` have gone by and at least ``min_passes`` are
    done; each pass's outputs are checked after it ends, outside the timed
    region."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        wall, op_s, outputs = run_pass(workload)
        passes.append({"wall_s": wall, "op_s": op_s, "ok": workload.check(outputs)})
    return passes


def pass_summary(passes):
    """Each operation's time is its least over the passes, and the pass time
    is the sum of those: every pass does the same work, and the host's
    slowdowns only ever add time."""
    op_s = [min(times) for times in zip(*(p["op_s"] for p in passes))]
    return {
        "wall_s": sum(op_s),
        "op_s.p50": statistics.median(op_s),
        "op_s.max": max(op_s),
        "n_ops": len(op_s),
        "n_passes": len(passes),
        "passes": [{"wall_s": p["wall_s"], "op_s": p["op_s"]} for p in passes],
    }


def measure_setup(workload, seed):
    """Median time from starting a fresh interpreter until it has imported
    the package and built the workload (catalog, problems, inputs)."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(probe), workload, str(seed)],
                                cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
        times.append(elapsed)
    return statistics.median(times)


def run_facts():
    """Informational facts about the machine and the code measured."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    import numpy as np
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "c1einstein").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit or "unknown",
        "src_lines": src_lines,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds):
    passes = run_passes(workload, seconds)
    summary = pass_summary(passes)
    setup_s = measure_setup(workload.name, seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(summary["wall_s"], "s"),
        "op_s.p50": metric(summary["op_s.p50"], "s"),
        "op_s.max": metric(summary["op_s.max"], "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    return passes, metrics, summary


def traced(workload, seconds):
    """Untraced passes, then traced passes, each for half of ``seconds``
    and at least one; each traced pass has a fresh tracer installed only
    around it.  The per-layer metrics are those of the fastest traced
    pass."""
    import tracing
    import workloads

    seconds /= 2
    untraced = run_passes(workload, seconds, min_passes=1)
    expected = set(tracing.SPAN_NAMES) - tracing.NOT_REACHED[workload.name]
    traced_passes, tracers, per_pass, problems = [], [], [], []
    start = time.perf_counter()
    while not traced_passes or time.perf_counter() - start < seconds:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_passes += run_passes(workload, 0, min_passes=1)
        finally:
            problems += [f"still wrapped: {a}" for a in tracer.remove()]
        layers, fired = tracing.layer_metrics(tracer, workloads.SCAN_JOBS)
        problems += [f"never fired: {n}" for n in sorted(expected - fired)]
        tracers.append(tracer)
        per_pass.append(layers)
    counts = [{k: layers[k] for k in tracing.DETERMINISTIC} for layers in per_pass]
    if any(c != counts[0] for c in counts):
        problems.append("counts differ between traced passes")
    fastest = min(range(len(traced_passes)), key=lambda i: traced_passes[i]["wall_s"])
    layers = dict(per_pass[fastest])
    layers["trace.overhead_frac"] = (pass_summary(traced_passes)["wall_s"]
                                     / pass_summary(untraced)["wall_s"] - 1.0)
    metrics = {k: metric(v, UNITS[k]) for k, v in layers.items()}
    summary = {
        "untraced": pass_summary(untraced),
        "traced": pass_summary(traced_passes),
        "deterministic_counts": counts[0],
        "hook_problems": problems,
    }
    return untraced + traced_passes, metrics, summary, tracers, not problems


UNITS = {
    "core.frame_rhs.calls": "count",
    "core.frame_rhs.total_s": "s",
    "core.frame_rhs.us_per_call": "us",
    "germs.series_solve.calls": "count",
    "germs.series_solve.total_s": "s",
    "germs.germ_start_offset.calls": "count",
    "germs.germ_start_offset.total_s": "s",
    "integrator.integrate_germ.calls": "count",
    "integrator.integrate_germ.self_s": "s",
    "integrator.steps_accepted": "count",
    "integrator.steps_rejected": "count",
    "integrator.legs_reached_frac": "ratio",
    "integrator.steps_in_stopped_legs": "count",
    "integrator.Trajectory.diagnostics.calls": "count",
    "integrator.Trajectory.diagnostics.total_s": "s",
    "integrator.drift_report.total_s": "s",
    "shooting.match_residual.calls": "count",
    "shooting.match_residual.total_s": "s",
    "shooting.match_residual.penalty_frac": "ratio",
    "shooting.match_residual.calls_per_solve": "count",
    "shooting.solve.calls": "count",
    "shooting.solve.self_s": "s",
    "shooting.solve.n_iter": "count",
    "shooting.scan.total_s": "s",
    "shooting.scan.parallel_eff": "ratio",
    "diagnostics.characteristic_numbers.total_s": "s",
    "diagnostics.max_principle_check.total_s": "s",
    "diagnostics.kahler_detector.total_s": "s",
    "diagnostics.eigen_gap_report.total_s": "s",
    "cli.emit.calls": "count",
    "cli.emit.total_s": "s",
    "cli.emit.bytes": "bytes",
    "cli.verify.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    use_checkout_src()
    import workloads

    workload = workloads.setup(args.workload, args.seed)
    workload.prepare()
    if args.trace:
        passes, metrics, summary, tracers, hooks_ok = traced(workload, args.seconds)
    else:
        passes, metrics, summary = end_to_end(workload, args.seed, args.seconds)
        hooks_ok = True
    flags = [ok for one_pass in passes for ok in one_pass["ok"]]
    failed = flags.count(False)
    facts = run_facts()
    facts.update(workload=args.workload, seed=args.seed, trace=args.trace)
    if args.trace:
        workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
        stem = f"trace-{args.workload}-seed{args.seed}"
        for old in workloads.OUT_DIR.glob(f"{stem}-pass*"):
            old.unlink()
        for i, tracer in enumerate(tracers):
            tracer.save(str(workloads.OUT_DIR / f"{stem}-pass{i}"),
                        {"facts": facts, "metrics": metrics, **summary})
    print(json.dumps({"facts": facts, **summary}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and hooks_ok, "attempted": len(flags),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
