"""Differential tests: wavefront kernels vs the sequential reference loops.

Every test here compares ``fast=True`` against ``fast=False`` on the *same*
instance and order and requires bit-identical starts — the kernel contract
is exact replay of the reference scan, not merely an equally good coloring.
Degenerate grids (single row/column/vertex) and zero-weight vertices are
covered explicitly.
"""

import math

import numpy as np
import pytest

from repro.core import greedy_engine
from repro.core.algorithms.registry import ALGORITHMS, REGISTRY, color_with
from repro.core.greedy_engine import greedy_color, greedy_recolor_pass
from repro.core.orderings import (
    identity_order,
    largest_first_order,
    line_by_line_order,
    random_order,
    smallest_last_order,
    zorder_order,
)
from repro.core.problem import IVCInstance
from repro.kernels import wavefront
from repro.kernels.substrate import get_substrate
from repro.runtime.fastpath import (
    fast_paths,
    fast_paths_enabled,
    resolve_fast,
    set_fast_paths,
)

SHAPES_2D = [(1, 1), (1, 5), (5, 1), (2, 2), (4, 7), (6, 6)]
SHAPES_3D = [(1, 1, 1), (3, 1, 2), (2, 2, 2), (3, 4, 2)]

ORDERINGS = {
    "identity": lambda inst: identity_order(inst.num_vertices),
    "line_by_line": line_by_line_order,
    "zorder": zorder_order,
    "largest_first": largest_first_order,
    "smallest_last": smallest_last_order,
    "random": lambda inst: random_order(inst, seed=7),
}


def _instance(shape, seed=0, zero_frac=0.25):
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 30, size=shape)
    weights[rng.random(size=shape) < zero_frac] = 0
    if len(shape) == 2:
        return IVCInstance.from_grid_2d(weights)
    return IVCInstance.from_grid_3d(weights)


def test_uncolored_sentinels_agree():
    # wavefront.py keeps its own literal to avoid an import cycle; the two
    # must never drift apart.
    assert wavefront.UNCOLORED == greedy_engine.UNCOLORED


def test_auto_mode_size_threshold():
    # Auto mode applies each algorithm's crossover once, in color_with: GLL
    # takes the kernel from its 2D crossover up.  The primitives apply no
    # size rule of their own; explicit True/False win unconditionally.
    from repro.runtime.context import ExecutionContext

    below = math.isqrt(REGISTRY.get("GLL").crossover[2] - 1)
    for side, expected in ((below, "registry.dispatch_reference"),
                           (below + 1, "registry.dispatch_fast")):
        ctx = ExecutionContext()
        color_with(_instance((side, side)), "GLL", context=ctx)
        assert ctx.metrics.snapshot()["counters"].get(expected) == 1, side
    prev = fast_paths_enabled()
    try:
        set_fast_paths(True)
        assert resolve_fast(None) is True
        assert resolve_fast(False) is False
        set_fast_paths(False)
        assert resolve_fast(None) is False
        assert resolve_fast(True) is True
    finally:
        set_fast_paths(prev)


def test_fast_paths_switch_roundtrip():
    prev = fast_paths_enabled()
    try:
        set_fast_paths(False)
        assert not fast_paths_enabled()
        with fast_paths(True):
            assert fast_paths_enabled()
        assert not fast_paths_enabled()
    finally:
        set_fast_paths(prev)


@pytest.mark.parametrize("order_name", sorted(ORDERINGS))
@pytest.mark.parametrize("shape", SHAPES_2D + SHAPES_3D)
def test_greedy_kernel_identical_to_reference(shape, order_name):
    inst = _instance(shape, seed=len(shape) * 10 + 1)
    order = np.asarray(ORDERINGS[order_name](inst), dtype=np.int64)
    ref = greedy_color(inst, order, fast=False)
    fast = greedy_color(inst, order, fast=True)
    assert np.array_equal(ref.starts, fast.starts)
    assert fast.is_valid()


@pytest.mark.parametrize("shape", SHAPES_2D + SHAPES_3D)
def test_recolor_kernel_identical_to_reference(shape):
    inst = _instance(shape, seed=3)
    starts = greedy_color(inst, identity_order(inst.num_vertices), fast=False).starts
    order = np.random.default_rng(5).permutation(inst.num_vertices).astype(np.int64)
    ref = greedy_recolor_pass(inst, starts, order, fast=False)
    fast = greedy_recolor_pass(inst, starts, order, fast=True)
    assert np.array_equal(ref, fast)


def test_all_zero_weights_color_at_zero():
    inst = _instance((4, 4), zero_frac=1.1)  # every weight zeroed
    coloring = greedy_color(inst, identity_order(inst.num_vertices), fast=True)
    assert np.array_equal(coloring.starts, np.zeros(inst.num_vertices, dtype=np.int64))


def _assert_valid_wavefront(substrate, order):
    """Batches must be pairwise non-adjacent and respect the order's DAG."""
    verts, ptr = substrate.wavefront_for(order)
    n = substrate.num_vertices
    assert sorted(verts.tolist()) == list(range(n))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    batch_of = np.empty(n, dtype=np.int64)
    for b in range(len(ptr) - 1):
        batch_of[verts[ptr[b] : ptr[b + 1]]] = b
    for v in range(n):
        for u in substrate.nbr_table[v]:
            u = int(u)
            if u == n:
                continue
            assert batch_of[u] != batch_of[v]
            if rank[u] < rank[v]:
                assert batch_of[u] < batch_of[v]
            else:
                assert batch_of[u] > batch_of[v]


@pytest.mark.parametrize("order_name", ["line_by_line", "largest_first", "random"])
@pytest.mark.parametrize("shape", [(4, 5), (1, 6), (3, 3, 2)])
def test_wavefront_batches_valid(shape, order_name):
    inst = _instance(shape, seed=2)
    substrate = get_substrate(inst.geometry)
    order = np.asarray(ORDERINGS[order_name](inst), dtype=np.int64)
    _assert_valid_wavefront(substrate, order)


def test_wavefront_schedule_cached_per_order():
    inst = _instance((5, 5), seed=4)
    substrate = get_substrate(inst.geometry)
    order = np.asarray(line_by_line_order(inst), dtype=np.int64)
    first = substrate.wavefront_for(order)
    again = substrate.wavefront_for(order.copy())  # equal content, new array
    assert first[0] is again[0] and first[1] is again[1]


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 6), (3, 4, 2)])
def test_every_registry_algorithm_identical_with_fast_paths(shape):
    # The registry-level contract: color_with(fast=True) — fast_fn or not —
    # must reproduce the reference coloring for every registered algorithm.
    inst = _instance(shape, seed=11)
    for name in ALGORITHMS:
        ref = color_with(inst, name, fast=False)
        fast = color_with(inst, name, fast=True)
        assert np.array_equal(ref.starts, fast.starts), name


def test_generic_graph_falls_back_to_reference():
    # A geometry-less instance must silently take the reference loop.
    inst = IVCInstance.from_edges(
        4, [(0, 1), (1, 2), (2, 3), (3, 0)], [3, 1, 2, 4], name="cycle"
    )
    ref = greedy_color(inst, identity_order(4), fast=False)
    fast = greedy_color(inst, identity_order(4), fast=True)
    assert np.array_equal(ref.starts, fast.starts)
