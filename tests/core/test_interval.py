"""Tests for interval arithmetic."""

import numpy as np

from repro.core.interval import (
    edge_overlaps,
    interval_str,
    intervals_overlap,
    overlap_matrix,
)


class TestIntervalsOverlap:
    def test_disjoint(self):
        assert not intervals_overlap(0, 3, 3, 2)  # touching half-open ends
        assert not intervals_overlap(5, 2, 0, 5)

    def test_overlapping(self):
        assert intervals_overlap(0, 3, 2, 2)
        assert intervals_overlap(2, 2, 0, 3)

    def test_containment(self):
        assert intervals_overlap(0, 10, 3, 2)

    def test_identical(self):
        assert intervals_overlap(4, 2, 4, 2)

    def test_empty_never_overlaps(self):
        assert not intervals_overlap(5, 0, 0, 100)
        assert not intervals_overlap(0, 100, 5, 0)
        assert not intervals_overlap(5, 0, 5, 0)

    def test_symmetry_exhaustive(self):
        for sa in range(5):
            for wa in range(3):
                for sb in range(5):
                    for wb in range(3):
                        assert intervals_overlap(sa, wa, sb, wb) == intervals_overlap(
                            sb, wb, sa, wa
                        )


class TestOverlapMatrix:
    def test_matches_scalar(self):
        starts = np.array([0, 2, 5, 5])
        weights = np.array([3, 3, 0, 2])
        mat = overlap_matrix(starts, weights)
        for a in range(4):
            for b in range(4):
                expected = intervals_overlap(
                    int(starts[a]), int(weights[a]), int(starts[b]), int(weights[b])
                )
                assert mat[a, b] == expected

    def test_symmetric(self, rng):
        starts = rng.integers(0, 10, size=12)
        weights = rng.integers(0, 4, size=12)
        mat = overlap_matrix(starts, weights)
        assert np.array_equal(mat, mat.T)


class TestEdgeOverlaps:
    def test_basic(self):
        starts = np.array([0, 2, 10])
        weights = np.array([3, 3, 1])
        edges = np.array([[0, 1], [0, 2], [1, 2]])
        mask = edge_overlaps(starts, weights, edges)
        assert mask.tolist() == [True, False, False]

    def test_empty_edges(self):
        mask = edge_overlaps(np.array([0]), np.array([1]), np.empty((0, 2), dtype=int))
        assert len(mask) == 0

    def test_zero_weight_edges_never_conflict(self):
        starts = np.array([0, 0])
        weights = np.array([0, 5])
        assert not edge_overlaps(starts, weights, np.array([[0, 1]]))[0]

    def test_matches_scalar_predicate_at_large_and_negative_starts(self, rng):
        # Starts past int32 either way (or negative, like UNCOLORED starts)
        # must give the scalar predicate's answer without overflow.
        edges = np.array([(u, v) for u in range(12) for v in range(u + 1, 12)])
        for shift in (0, -1, 2**31, -(2**31) - 5):
            starts = rng.integers(0, 10, size=12) + shift
            weights = rng.integers(0, 4, size=12)
            want = [
                intervals_overlap(int(starts[u]), int(weights[u]), int(starts[v]), int(weights[v]))
                for u, v in edges
            ]
            assert edge_overlaps(starts, weights, edges).tolist() == want, shift


def test_interval_str():
    assert interval_str(3, 4) == "[3, 7)"
    assert interval_str(0, 0) == "[0, 0)"
