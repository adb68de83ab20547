"""Auto-mode dispatch: ``color_with`` applies each algorithm's crossover once.

Every registry algorithm with a kernel is run with ``fast=None`` on one grid
on each side of its 2D and 3D crossover: the dispatch counters must say what
the table says, and the coloring must be bit-identical to ``fast=False``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.algorithms.registry import REGISTRY, color_with
from repro.core.problem import IVCInstance
from repro.kernels import wavefront
from repro.runtime.context import ExecutionContext

KERNEL_SPECS = [s.name for s in REGISTRY.specs() if s.has_kernel]


def _instance(side, dim, seed=5):
    weights = np.random.default_rng(seed).integers(1, 50, size=(side,) * dim)
    if dim == 2:
        return IVCInstance.from_grid_2d(weights)
    return IVCInstance.from_grid_3d(weights)


def _sides(crossover, dim):
    """Grid sides just below and at/above a vertex-count crossover."""
    above = 1
    while above**dim < crossover:
        above += 1
    return ([above - 1] if crossover > 1 else []) + [above]


def _dispatch(instance, name):
    ctx = ExecutionContext()
    coloring = color_with(instance, name, context=ctx)
    counters = ctx.metrics.snapshot()["counters"]
    return coloring, counters.get("registry.dispatch_fast", 0) == 1


def test_crossovers_match_committed_benchmark():
    # The table is the evidence: each spec's crossover is the ``crossovers``
    # entry of the committed BENCH_kernels.json (regenerate both together).
    # GSL's ratios wander around 1 and keep the former 4096-vertex value.
    report = json.loads((Path(__file__).parents[2] / "BENCH_kernels.json").read_text())
    measured = report["crossovers"]
    assert REGISTRY.get("GSL").crossover == {2: 4096, 3: 4096}
    for name in set(KERNEL_SPECS) - {"GSL"}:
        expected = {int(dim): cells for dim, cells in measured[name].items()}
        assert REGISTRY.get(name).crossover == expected, name


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", KERNEL_SPECS)
def test_auto_dispatch_follows_crossover(name, dim):
    crossover = REGISTRY.get(name).crossover[dim]
    for side in _sides(crossover, dim):
        instance = _instance(side, dim)
        coloring, took_kernel = _dispatch(instance, name)
        assert took_kernel is (instance.num_vertices >= crossover), (name, side)
        reference = color_with(instance, name, fast=False)
        assert np.array_equal(coloring.starts, reference.starts), (name, side)


def test_gzo_12_cubed_takes_the_kernel():
    # The served workload's GZO class: since the Kahn schedule stopped
    # hashing every target, the kernel beats the reference loop (1.50x).
    _coloring, took_kernel = _dispatch(_instance(12, 3), "GZO")
    assert took_kernel is True


def test_forced_kernels_reach_the_post_opt_sweep(monkeypatch):
    # GLF+P has no fast_fn of its own: fast=True must still reach the
    # wavefront recolor kernel in its post-optimization sweep, even far
    # below any crossover.
    calls = []
    real = wavefront.wavefront_recolor_pass

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(wavefront, "wavefront_recolor_pass", counting)
    instance = _instance(12, 2)
    fast = color_with(instance, "GLF+P", fast=True)
    assert calls, "post-opt sweep took the reference loop"
    calls.clear()
    reference = color_with(instance, "GLF+P", fast=False)
    assert not calls
    assert np.array_equal(fast.starts, reference.starts)


def test_algorithms_without_a_kernel_count_as_reference():
    # GKF has neither a fast_fn nor a crossover: the reference loop runs
    # whatever fast asks for, and the counters say so.
    for fast in (None, True):
        ctx = ExecutionContext()
        color_with(_instance(4, 2), "GKF", fast=fast, context=ctx)
        counters = ctx.metrics.snapshot()["counters"]
        assert counters.get("registry.dispatch_reference") == 1, fast
        assert "registry.dispatch_fast" not in counters, fast


def test_generic_graph_counts_as_reference_even_when_forced():
    from repro.stencil.generic import cycle_graph

    ctx = ExecutionContext()
    color_with(IVCInstance.from_graph(cycle_graph(6), np.ones(6)), "GLL", fast=True, context=ctx)
    assert ctx.metrics.snapshot()["counters"].get("registry.dispatch_reference") == 1
