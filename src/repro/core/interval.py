"""Half-open color intervals.

A vertex ``v`` with start color ``s`` and weight ``w`` occupies the half-open
interval ``[s, s + w)`` (Definition 1 of the paper).  Zero-weight vertices
occupy the empty interval, which intersects nothing — they can always be
colored at start 0 and never constrain their neighbors.

These helpers are deliberately tiny: everything operates on integers or numpy
arrays so the hot paths stay vectorizable.
"""

from __future__ import annotations

import numpy as np


def intervals_overlap(start_a: int, w_a: int, start_b: int, w_b: int) -> bool:
    """Whether ``[start_a, start_a + w_a)`` and ``[start_b, start_b + w_b)`` intersect.

    Empty intervals (zero weight) never intersect anything.
    """
    if w_a == 0 or w_b == 0:
        return False
    return start_a < start_b + w_b and start_b < start_a + w_a


def overlap_matrix(starts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Pairwise boolean overlap matrix for a set of intervals (vectorized).

    Entry ``(u, v)`` is True iff the intervals of ``u`` and ``v`` intersect;
    the diagonal is True for every non-empty interval.  Intended for
    exhaustive validation in tests, not for hot paths.
    """
    starts = np.asarray(starts, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    ends = starts + weights
    lt = starts[:, None] < ends[None, :]
    nonempty = weights > 0
    return lt & lt.T & nonempty[:, None] & nonempty[None, :]


def interval_bounds(starts: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` per vertex for :func:`pairs_overlap`.

    ``hi`` is the end ``start + w``; ``lo`` is the start, except that an
    empty (zero-weight) interval gets the largest end as its ``lo``, so it
    meets no interval at all.
    """
    hi = starts + weights
    return np.where(weights > 0, starts, hi.max(initial=0)), hi


def pairs_overlap(lo_u, hi_u, lo_v, hi_v) -> np.ndarray:
    """Element-wise :func:`intervals_overlap` over :func:`interval_bounds`:
    entry ``k`` is True iff ``[lo_u[k], hi_u[k])`` meets ``[lo_v[k], hi_v[k])``."""
    return (lo_u < hi_v) & (lo_v < hi_u)


def edge_overlaps(
    starts: np.ndarray, weights: np.ndarray, edges: np.ndarray
) -> np.ndarray:
    """Boolean mask of edges whose endpoint intervals intersect (vectorized).

    Parameters
    ----------
    edges:
        ``(m, 2)`` array of vertex-id pairs.
    """
    starts = np.asarray(starts, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    if len(edges) == 0:
        return np.zeros(0, dtype=bool)
    u = edges[:, 0]
    v = edges[:, 1]
    lo, hi = interval_bounds(starts, weights)
    return pairs_overlap(lo[u], hi[u], lo[v], hi[v])


def interval_str(start: int, weight: int) -> str:
    """Human-readable rendering ``[s, e)`` used in reports and examples."""
    return f"[{start}, {start + weight})"
