"""Hook audit for the traced run.

    python3 -m pytest bench/test_hooks.py

Each workload runs once, traced, on a tiny input.  Every hook the workload
reaches must fire, every patched attribute must hold its original function
again afterwards, and the counts of ``tracing.DETERMINISTIC`` must repeat
exactly in a second traced run of the same seed.  A refactor that routes
calls around a hook then fails here instead of reporting a silent 0.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import WORKLOAD_NAMES, run_passes, use_checkout_src  # noqa: E402

use_checkout_src()
import tracing  # noqa: E402
import workloads  # noqa: E402


def _attributes():
    return {(target, attr): getattr(target, attr)
            for _, owner, attr, binders, _ in tracing.HOOKS
            for target in (owner,) + binders}


def _traced_tiny(name):
    workload = workloads.setup(name, seed=0, tiny=True)
    workload.prepare()
    originals = _attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        passes = run_passes(workload, 0, min_passes=1)
    finally:
        leftover = tracer.remove()
    restored = [f"{t.__name__}.{a}" for (t, a), fn in _attributes().items()
                if fn is not originals[(t, a)]]
    metrics, fired = tracing.layer_metrics(tracer, workloads.SCAN_JOBS)
    return passes, leftover + restored, metrics, fired


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(name, i):
        if (name, i) not in cache:
            cache[name, i] = _traced_tiny(name)
        return cache[name, i]
    return get


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_reached_hook_fires_and_is_removed(runs, name):
    passes, not_restored, _, fired = runs(name, 0)
    assert all(passes[0]["ok"])
    assert not_restored == []
    expected = set(tracing.SPAN_NAMES) - tracing.NOT_REACHED[name]
    assert sorted(expected - fired) == []


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_counts_repeat_exactly(runs, name):
    first, second = runs(name, 0)[2], runs(name, 1)[2]
    for key in tracing.DETERMINISTIC:
        assert first[key] == second[key], key


def test_self_time_subtracts_the_union_of_children():
    starts = np.array([0.0, 1.0, 2.0, 6.0])
    ends = np.array([3.0, 2.5, 4.0, 7.0])
    assert tracing._covered(starts, ends) == pytest.approx(5.0)
