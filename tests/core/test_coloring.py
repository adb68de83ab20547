"""Tests for the Coloring result type."""

import numpy as np
import pytest

from repro.core.algorithms.registry import color_with
from repro.core.coloring import Coloring, _stencil_has_overlap
from repro.core.interval import edge_overlaps
from repro.core.problem import IVCInstance
from repro.stencil.generic import path_graph
from repro.stencil.grid2d import StencilGrid2D


@pytest.fixture
def chain3():
    return IVCInstance.from_graph(path_graph(3), [2, 3, 2])


class TestConstruction:
    def test_wrong_length_rejected(self, chain3):
        with pytest.raises(ValueError, match="expected 3 starts"):
            Coloring(instance=chain3, starts=np.array([0, 1]))

    def test_negative_start_rejected(self, chain3):
        with pytest.raises(ValueError, match="non-negative"):
            Coloring(instance=chain3, starts=np.array([0, -1, 0]))

    def test_starts_coerced(self, chain3):
        c = Coloring(instance=chain3, starts=[0, 2, 0])
        assert c.starts.dtype == np.int64


class TestQuantities:
    def test_maxcolor(self, chain3):
        c = Coloring(instance=chain3, starts=[0, 2, 0])
        assert c.maxcolor == 5
        assert c.ends.tolist() == [2, 5, 2]

    def test_maxcolor_empty_instance(self):
        inst = IVCInstance.from_edges(0, [], [])
        c = Coloring(instance=inst, starts=np.empty(0, dtype=int))
        assert c.maxcolor == 0

    def test_interval_of(self, chain3):
        c = Coloring(instance=chain3, starts=[0, 2, 0])
        assert c.interval_of(1) == (2, 5)


class TestValidation:
    def test_valid_coloring(self, chain3):
        c = Coloring(instance=chain3, starts=[0, 2, 0])
        assert c.is_valid()
        assert len(c.violations()) == 0
        assert c.check() is c

    def test_invalid_coloring_detected(self, chain3):
        c = Coloring(instance=chain3, starts=[0, 1, 0])
        assert not c.is_valid()
        bad = c.violations()
        assert [0, 1] in bad.tolist()

    def test_check_raises_with_edges(self, chain3):
        c = Coloring(instance=chain3, starts=[0, 0, 0])
        with pytest.raises(ValueError, match="conflicting edges"):
            c.check()

    def test_zero_weight_overlap_is_fine(self):
        inst = IVCInstance.from_graph(path_graph(2), [0, 5])
        c = Coloring(instance=inst, starts=[0, 0])
        assert c.is_valid()

    def test_grid_validation(self):
        inst = IVCInstance.from_grid_2d([[1, 1], [1, 1]])
        # All four vertices are mutually adjacent; same start is invalid.
        c = Coloring(instance=inst, starts=[0, 0, 0, 0])
        assert len(c.violations()) == 6


class TestStencilValidator:
    """The shifted-slice grid check decides what the edge list decides."""

    SHAPES = [(1, 1), (1, 6), (6, 1), (2, 2), (7, 9), (1, 1, 1), (3, 1, 4), (2, 2, 2), (5, 6, 4)]

    @staticmethod
    def _instance(shape, seed):
        # Zero-weight cells included: they overlap nothing.
        weights = np.random.default_rng(seed).integers(0, 6, size=shape)
        make = IVCInstance.from_grid_2d if len(shape) == 2 else IVCInstance.from_grid_3d
        return make(weights)

    @staticmethod
    def _edge_list_violations(coloring):
        edges = coloring.instance.graph.edges()
        if len(edges) == 0:
            return np.empty((0, 2), dtype=np.int64)
        return edges[edge_overlaps(coloring.starts, coloring.instance.weights, edges)]

    @staticmethod
    def _check_message(coloring):
        try:
            coloring.check()
        except ValueError as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_agrees_with_edge_list(self, shape, seed):
        inst = self._instance(shape, seed)
        general = IVCInstance.from_graph(inst.graph, inst.weights)
        rng = np.random.default_rng(seed + 100)
        valid = color_with(inst, "GLF").starts
        perturbed = valid.copy()
        hit = rng.choice(len(valid), size=max(1, len(valid) // 4), replace=False)
        perturbed[hit] = rng.integers(0, 4, size=len(hit))
        # Ends past 2**31 must not overflow the bounds.
        for starts in (valid, perturbed, np.zeros_like(valid), perturbed + 2**31):
            coloring = Coloring(instance=inst, starts=starts)
            want = self._edge_list_violations(coloring)
            got = coloring.violations()
            assert np.array_equal(got, want) and got.shape == want.shape
            assert _stencil_has_overlap(inst.geometry, coloring.starts, inst.weights) == bool(len(want))
            # check() reports exactly what the general-graph path reports.
            assert self._check_message(coloring) == self._check_message(
                Coloring(instance=general, starts=starts)
            )

    def test_zero_weight_cell_inside_a_neighbor_interval_is_fine(self):
        inst = IVCInstance.from_grid_2d([[0, 5], [5, 0]])
        assert Coloring(instance=inst, starts=[2, 0, 5, 3]).is_valid()
        assert not Coloring(instance=inst, starts=[2, 0, 4, 3]).is_valid()

    def test_valid_check_builds_no_csr(self):
        # A geometry of its own: no other test can have built its CSR.
        inst = IVCInstance(weights=np.ones(12, dtype=np.int64), geometry=StencilGrid2D(3, 4))
        Coloring(instance=inst, starts=np.arange(12)).check()
        assert "csr" not in inst.geometry.__dict__


class TestUtility:
    def test_with_algorithm(self, chain3):
        c = Coloring(instance=chain3, starts=[0, 2, 0]).with_algorithm("X", elapsed=1.5)
        assert c.algorithm == "X"
        assert c.elapsed == 1.5
        assert c.maxcolor == 5

    def test_as_grid(self):
        inst = IVCInstance.from_grid_2d([[1, 2], [2, 1]])
        c = Coloring(instance=inst, starts=[0, 1, 3, 5])
        assert c.as_grid().shape == (2, 2)
        assert c.as_grid()[1, 0] == 3

    def test_as_grid_requires_geometry(self, chain3):
        c = Coloring(instance=chain3, starts=[0, 2, 0])
        with pytest.raises(ValueError, match="no stencil geometry"):
            c.as_grid()
