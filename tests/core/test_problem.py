"""Tests for the IVCInstance container."""

import dataclasses

import numpy as np
import pytest

from repro.core.problem import IVCInstance
from repro.stencil.generic import cycle_graph, path_graph
from repro.stencil.grid2d import StencilGrid2D
from repro.stencil.grid3d import StencilGrid3D


class TestConstruction:
    def test_from_grid_2d(self):
        inst = IVCInstance.from_grid_2d(np.ones((3, 4), dtype=int))
        assert inst.num_vertices == 12
        assert inst.is_2d and not inst.is_3d
        assert inst.geometry.shape == (3, 4)

    def test_from_grid_3d(self):
        inst = IVCInstance.from_grid_3d(np.ones((2, 3, 4), dtype=int))
        assert inst.num_vertices == 24
        assert inst.is_3d and not inst.is_2d

    def test_from_grid_2d_wrong_ndim(self):
        with pytest.raises(ValueError, match="2D weight grid"):
            IVCInstance.from_grid_2d(np.ones((2, 2, 2)))

    def test_from_grid_3d_wrong_ndim(self):
        with pytest.raises(ValueError, match="3D weight grid"):
            IVCInstance.from_grid_3d(np.ones((4, 4)))

    def test_from_graph(self):
        inst = IVCInstance.from_graph(path_graph(3), [1, 2, 3])
        assert inst.num_vertices == 3
        assert inst.geometry is None
        assert not inst.is_2d and not inst.is_3d

    def test_from_edges(self):
        inst = IVCInstance.from_edges(3, [(0, 1)], [1, 1, 1])
        assert inst.num_edges == 1

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            IVCInstance.from_graph(path_graph(2), [1, -1])

    def test_wrong_weight_count_rejected(self):
        with pytest.raises(ValueError, match="expected 3 weights"):
            IVCInstance.from_graph(path_graph(3), [1, 2])

    def test_geometry_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            IVCInstance(
                graph=cycle_graph(5),
                weights=np.ones(5, dtype=int),
                geometry=StencilGrid2D(2, 2),
            )

    def test_weights_coerced_to_int64(self):
        inst = IVCInstance.from_grid_2d(np.ones((2, 2), dtype=np.int32))
        assert inst.weights.dtype == np.int64


class TestProperties:
    def test_total_weight(self):
        inst = IVCInstance.from_grid_2d([[1, 2], [3, 4]])
        assert inst.total_weight == 10

    def test_weight_grid_roundtrip(self):
        grid = np.arange(6).reshape(2, 3)
        inst = IVCInstance.from_grid_2d(grid)
        assert np.array_equal(inst.weight_grid(), grid)

    def test_weight_grid_requires_geometry(self):
        inst = IVCInstance.from_graph(path_graph(2), [1, 1])
        with pytest.raises(ValueError, match="no stencil geometry"):
            inst.weight_grid()

    def test_metadata_and_name(self):
        inst = IVCInstance.from_grid_2d(
            [[1, 1], [1, 1]], name="x", metadata={"plane": "xy"}
        )
        assert inst.name == "x"
        assert inst.metadata["plane"] == "xy"

    def test_num_edges_2d(self):
        inst = IVCInstance.from_grid_2d(np.ones((2, 2)))
        assert inst.num_edges == 6  # K4


class TestLazyGraph:
    """Stencil instances build their CSR only when something reads it."""

    def test_stencil_graph_is_the_geometry_csr_on_first_access(self):
        geometry = StencilGrid2D(3, 5)
        inst = IVCInstance(weights=np.ones(15, dtype=np.int64), geometry=geometry)
        assert inst.num_vertices == 15
        assert "csr" not in geometry.__dict__
        assert inst.graph is geometry.csr

    @pytest.mark.parametrize("shape", [(1, 1), (1, 4), (2, 2), (5, 3), (1, 1, 1), (2, 3, 1), (3, 4, 5)])
    def test_num_edges_without_the_csr(self, shape):
        geometry = StencilGrid2D(*shape) if len(shape) == 2 else StencilGrid3D(*shape)
        inst = IVCInstance(weights=np.ones(geometry.num_vertices, dtype=np.int64), geometry=geometry)
        edges = inst.num_edges
        assert "csr" not in geometry.__dict__
        assert edges == geometry.csr.num_edges

    def test_replace_does_not_build_the_csr(self):
        geometry = StencilGrid3D(2, 3, 4)
        inst = IVCInstance(weights=np.arange(24), geometry=geometry, name="a")
        renamed = dataclasses.replace(inst, name="b")
        assert renamed.name == "b" and renamed.geometry is geometry
        assert np.array_equal(renamed.weights, inst.weights)
        assert "csr" not in geometry.__dict__

    def test_replace_keeps_a_given_graph(self):
        graph = cycle_graph(5)
        renamed = dataclasses.replace(IVCInstance.from_graph(graph, np.ones(5)), name="c")
        assert renamed.graph is graph and renamed.name == "c"

    def test_needs_a_graph_or_a_geometry(self):
        with pytest.raises(ValueError, match="graph or a stencil geometry"):
            IVCInstance(weights=[1, 2])
