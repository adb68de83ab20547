"""Substrate cache behavior: sharing, LRU bounds, and engine-pool safety;
the offset-built neighbor table and the Kahn schedule against oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import IVCInstance
from repro.engine import run_grid
from repro.kernels.substrate import (
    CACHE_SIZE,
    _kahn_wavefront,
    _stencil_neighbor_table,
    cache_sizes,
    clear_caches,
    get_substrate,
    shared_geometry_2d,
    shared_geometry_3d,
    substrate_stats,
)
from repro.runtime.context import ExecutionContext
from repro.stencil.generic import CSRGraph
from repro.stencil.grid2d import StencilGrid2D
from repro.stencil.grid3d import StencilGrid3D


def _weights(shape, seed=0):
    return np.random.default_rng(seed).integers(1, 50, size=shape)


def test_shared_geometry_is_one_object_per_shape():
    assert shared_geometry_2d(4, 5) is shared_geometry_2d(4, 5)
    assert shared_geometry_3d(2, 3, 4) is shared_geometry_3d(2, 3, 4)
    assert shared_geometry_2d(4, 5) is not shared_geometry_2d(5, 4)


def test_get_substrate_shared_across_equal_shapes():
    # Two *distinct* geometry objects of equal shape map to the same
    # substrate (and hence the same neighbor table memory).
    a = get_substrate(StencilGrid2D(3, 6))
    b = get_substrate(StencilGrid2D(3, 6))
    assert a is b
    assert get_substrate(StencilGrid3D(2, 2, 3)) is get_substrate(StencilGrid3D(2, 2, 3))
    assert a is not get_substrate(StencilGrid2D(6, 3))


def test_from_grid_constructors_use_shared_geometry():
    w = _weights((4, 7))
    one = IVCInstance.from_grid_2d(w)
    two = IVCInstance.from_grid_2d(w * 2)
    assert one.geometry is two.geometry
    w3 = _weights((2, 3, 2))
    assert IVCInstance.from_grid_3d(w3).geometry is IVCInstance.from_grid_3d(w3).geometry


def test_caches_are_lru_bounded():
    clear_caches()
    first = shared_geometry_2d(1, 1)
    for k in range(2, CACHE_SIZE + 3):  # evicts the (1, 1) entry
        shared_geometry_2d(1, k)
    sizes = cache_sizes()
    assert sizes["geometries"] <= CACHE_SIZE
    assert shared_geometry_2d(1, 1) is not first
    clear_caches()
    assert cache_sizes() == {"geometries": 0, "substrates": 0}


def test_substrate_stats_track_hits_misses_evictions():
    clear_caches()
    before = substrate_stats()
    shared_geometry_2d(2, 9)  # cold: miss
    shared_geometry_2d(2, 9)  # warm: hit
    after = substrate_stats()
    assert after["geometries"]["misses"] == before["geometries"]["misses"] + 1
    assert after["geometries"]["hits"] == before["geometries"]["hits"] + 1
    assert after["geometries"]["size"] >= 1
    assert after["geometries"]["maxsize"] == CACHE_SIZE

    evicted_before = after["geometries"]["evictions"]
    for k in range(1, CACHE_SIZE + 2):  # overflow the cache by one
        shared_geometry_2d(3, k)
    assert substrate_stats()["geometries"]["evictions"] > evicted_before

    # Counters are process-lifetime monotonic: clearing drops entries only.
    clear_caches()
    cleared = substrate_stats()
    assert cleared["geometries"]["size"] == 0
    assert cleared["geometries"]["hits"] >= after["geometries"]["hits"]


def test_neighbor_table_matches_csr():
    for geometry in (StencilGrid2D(3, 4), StencilGrid3D(2, 3, 2), StencilGrid2D(1, 1)):
        substrate = get_substrate(geometry)
        csr = substrate.geometry.csr
        n = csr.num_vertices
        for v in range(n):
            row = substrate.nbr_table[v]
            real = sorted(int(u) for u in row if u != n)
            assert real == sorted(int(u) for u in csr.neighbors(v))
            # Padding is exactly the sentinel n, nothing else out of range.
            assert all(0 <= int(u) <= n for u in row)


def _csr_neighbor_table(csr: CSRGraph) -> np.ndarray:
    """Oracle: the CSR rows left-compacted into an ``(n, max_degree)``
    table padded with ``n``."""
    n = csr.num_vertices
    degrees = csr.degrees()
    table = np.full((n, int(degrees.max(initial=0))), n, dtype=np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
    cols = np.arange(len(csr.indices), dtype=np.int64) - np.repeat(csr.indptr[:-1], degrees)
    table[rows, cols] = csr.indices
    return table


def _geometry(shape):
    return StencilGrid2D(*shape) if len(shape) == 2 else StencilGrid3D(*shape)


def _assert_table_matches_csr(shape):
    table = _stencil_neighbor_table(shape)
    oracle = _csr_neighbor_table(_geometry(shape).csr)
    assert table.dtype == oracle.dtype and table.shape == oracle.shape, shape
    assert np.array_equal(table, oracle), shape


@pytest.mark.parametrize(
    "shape",
    [(1, 1), (1, 5), (5, 1), (2, 2), (7, 9), (1, 1, 1), (3, 1, 4), (2, 2, 2), (5, 6, 7)],
)
def test_offset_neighbor_table_is_the_csr_table(shape):
    _assert_table_matches_csr(shape)


@given(shape=st.one_of(
    st.tuples(st.integers(1, 9), st.integers(1, 9)),
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
))
@settings(max_examples=60, deadline=None)
def test_offset_neighbor_table_is_the_csr_table_for_any_shape(shape):
    _assert_table_matches_csr(shape)


def test_substrate_does_not_build_the_csr():
    substrate = get_substrate(StencilGrid3D(3, 4, 5), context=ExecutionContext())
    assert "csr" not in substrate.geometry.__dict__


def _unique_kahn_oracle(nbr_table, rank):
    """Kahn rounds deduplicating each round's targets with ``np.unique``."""
    n = len(rank)
    rank_ext = np.append(rank, np.int64(n))
    indeg = (rank_ext[nbr_table] < rank[:, None]).sum(axis=1, dtype=np.int64)
    indeg_ext = np.append(indeg, np.int64(1) << 40)
    frontier = np.flatnonzero(indeg == 0).astype(np.int64)
    batches = []
    while frontier.size:
        batches.append(frontier)
        rows = nbr_table[frontier]
        targets = rows[rank_ext[rows] > rank[frontier][:, None]]
        np.subtract.at(indeg_ext, targets, 1)
        candidates = np.unique(targets)
        frontier = candidates[indeg_ext[candidates] == 0]
    ptr = np.zeros(len(batches) + 1, dtype=np.int64)
    np.cumsum([len(b) for b in batches], out=ptr[1:])
    return np.concatenate(batches), ptr


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (9, 8), (4, 1, 3), (5, 6, 4)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kahn_schedule_matches_unique_oracle(shape, seed):
    table = _stencil_neighbor_table(shape)
    n = len(table)
    rng = np.random.default_rng(seed)
    # Random permutations, and orders by a few repeated weights (many ties).
    for order in (rng.permutation(n), np.argsort(-rng.integers(0, 3, n), kind="stable")):
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n, dtype=np.int64)
        verts, ptr = _kahn_wavefront(table, rank)
        want_verts, want_ptr = _unique_kahn_oracle(table, rank)
        assert np.array_equal(verts, want_verts) and np.array_equal(ptr, want_ptr)


def test_engine_pool_with_fast_paths_matches_serial_reference():
    # The cache is per-process (workers build their own lazily), so a pooled
    # fast-path run must reproduce the serial reference run cell for cell.
    instances = [
        IVCInstance.from_grid_2d(_weights((5, 6), seed=1), name="a"),
        IVCInstance.from_grid_2d(_weights((5, 6), seed=2), name="b"),
        IVCInstance.from_grid_3d(_weights((3, 3, 2), seed=3), name="c"),
    ]
    names = ["GLL", "GLF", "BD", "BDP"]
    ref = run_grid(instances, names, jobs=1, fast_paths=False, capture_starts=True)
    pooled = run_grid(instances, names, jobs=2, fast_paths=True, capture_starts=True)
    assert [r.status for r in pooled] == ["ok"] * len(ref)
    for r, p in zip(ref, pooled):
        assert (r.instance, r.algorithm) == (p.instance, p.algorithm)
        assert r.maxcolor == p.maxcolor
        assert r.starts == p.starts
