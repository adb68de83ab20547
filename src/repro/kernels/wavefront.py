"""Wavefront-batched first-fit coloring kernels.

The reference :func:`~repro.core.greedy_engine.greedy_color` visits one vertex
per Python iteration, gathering its neighbor intervals with list appends.  On
a stencil the neighborhood is fixed and regular, so the same scan can run in
strided batches: partition the visit order into *wavefronts* — batches whose
members are pairwise non-adjacent and respect the order's dependency DAG (see
:meth:`~repro.kernels.substrate.Substrate.wavefront_for`) — and, per batch,

1. gather all neighbor starts/ends with one fancy-indexed read over the
   substrate's padded neighbor table,
2. ``np.argsort`` the intervals along ``axis=1`` (the paper's sort step, for
   the whole batch at once),
3. replace the paper's sequential scan with its closed form: the frontier
   before the ``c``-th sorted interval is the prefix maximum of the earlier
   interval ends, so the first fit is the frontier at the first position
   whose gap is wide enough — one ``np.maximum.accumulate`` and one
   ``argmax`` per batch instead of one Python iteration per interval.

Because every vertex still sees exactly the neighbors that precede it in the
order — colored — and none that follow it, the result is *bit-identical* to
the sequential reference for every permutation, which the differential tests
assert.  Empty (zero-weight) intervals always land at 0, also matching the
reference.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels.substrate import Substrate, get_substrate

#: Mirrors :data:`repro.core.greedy_engine.UNCOLORED` (kept literal to avoid
#: an import cycle; asserted equal in the tests).
UNCOLORED = -1

#: Sentinel start pushing invalid neighbor slots past every real interval in
#: the per-batch sort; large enough that ``_BIG - cur >= w`` always holds, so
#: the scan terminates on the first padding column exactly like the reference
#: scan terminates at the end of its neighbor list.
_BIG = np.int64(1) << 62


def _first_fit_batch(
    batch: np.ndarray,
    nbr_table: np.ndarray,
    starts_ext: np.ndarray,
    weights_ext: np.ndarray,
) -> np.ndarray:
    """First-fit starts for a batch of pairwise non-adjacent vertices.

    Gathers each vertex's neighbor intervals through the substrate's padded
    neighbor table and hands them to :func:`first_fit_intervals`.
    """
    rows = nbr_table[batch]  # (b, max_degree) neighbor ids, padded
    if rows.shape[1] == 0:
        return np.zeros(len(batch), dtype=np.int64)
    return first_fit_intervals(starts_ext[rows], weights_ext[rows], weights_ext[batch])


def first_fit_intervals(
    s: np.ndarray, wn: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """First-fit starts from pre-gathered neighbor intervals.

    ``s``/``wn`` are ``(b, d)`` neighbor starts and weights (``UNCOLORED``
    or zero-weight slots are ignored); ``w`` is the ``(b,)`` weights being
    placed.  Rows must be pairwise non-adjacent for the batch semantics to
    replay the sequential scan.

    The reference scan keeps a running frontier ``cur`` (the maximum end seen
    so far, starting at 0) and returns ``cur`` at the first sorted interval
    whose lower end leaves a gap of at least ``w``.  Equivalently: with
    ``frontier[c]`` the prefix maximum of ends *before* sorted position
    ``c``, the answer is ``frontier[c*]`` for the first ``c*`` with
    ``lo[c*] - frontier[c*] >= w``, or the total maximum end if no interval
    leaves a gap.  The ``_BIG`` padding behaves like the end of the neighbor
    list: its gap is unbounded, so rows with spare padding always "fit" there
    at exactly the frontier the reference would return.

    Exposed (beyond :func:`_first_fit_batch`'s table gather) for callers
    that compute neighborhoods analytically — the halo kernel
    (:mod:`repro.kernels.halo`) gathers stencil neighbors by offset
    arithmetic instead of materializing an adjacency table.
    """
    if s.shape[1] == 0:
        return np.zeros(len(s), dtype=np.int64)
    valid = (s != UNCOLORED) & (wn > 0)
    lo = np.where(valid, s, _BIG)
    hi = np.where(valid, s + wn, _BIG)
    # Sort neighbor intervals by lower end.  Ties need no secondary key: the
    # scan's outcome at a tied lower end is independent of the tie order.
    # Row gathers index the raveled arrays at ``row * d + column``, which
    # costs less per level than ``np.take_along_axis``.
    b, d = s.shape
    base = np.arange(0, b * d, d, dtype=np.int64)
    flat = np.argsort(lo, axis=1, kind="stable")
    flat += base[:, None]
    lo = lo.ravel()[flat]
    hi = hi.ravel()[flat]
    frontier = np.empty_like(hi)
    frontier[:, 0] = 0
    np.maximum.accumulate(hi[:, :-1], axis=1, out=frontier[:, 1:])
    fits = (lo - frontier) >= np.asarray(w)[:, None]
    first = np.argmax(fits, axis=1) + base
    out = frontier.ravel()[first]
    # Fully valid rows may have no gap at all: the fit is past the last
    # interval, at the running maximum of every end.
    no_gap = ~fits.ravel()[first]
    if no_gap.any():
        out[no_gap] = np.maximum(frontier[no_gap, -1], hi[no_gap, -1])
    return out


def _run_wavefronts(
    substrate: Substrate,
    weights: np.ndarray,
    verts: np.ndarray,
    ptr: np.ndarray,
    starts_ext: np.ndarray,
) -> np.ndarray:
    """Color every batch of a wavefront schedule, updating ``starts_ext``."""
    weights_ext = np.empty(len(weights) + 1, dtype=np.int64)
    weights_ext[:-1] = weights
    weights_ext[-1] = 0
    nbr_table = substrate.nbr_table
    for b in range(len(ptr) - 1):
        batch = verts[ptr[b] : ptr[b + 1]]
        starts_ext[batch] = _first_fit_batch(batch, nbr_table, starts_ext, weights_ext)
    return starts_ext[:-1]


def wavefront_greedy_color(
    instance, order: np.ndarray, substrate: Optional[Substrate] = None
) -> np.ndarray:
    """Starts of the first-fit coloring of ``instance`` in ``order``.

    Bit-identical to the reference ``greedy_color`` loop for any permutation;
    requires a stencil geometry (callers fall back to the reference on
    generic graphs).
    """
    if substrate is None:
        substrate = get_substrate(instance.geometry)
    verts, ptr = substrate.wavefront_for(np.asarray(order, dtype=np.int64))
    starts_ext = np.full(instance.num_vertices + 1, UNCOLORED, dtype=np.int64)
    return _run_wavefronts(substrate, instance.weights, verts, ptr, starts_ext)


def wavefront_recolor_pass(
    instance,
    starts: np.ndarray,
    order: np.ndarray,
    substrate: Optional[Substrate] = None,
) -> np.ndarray:
    """Batched re-run of first fit on an already-colored instance.

    The wavefront argument carries over unchanged: when a batch is recolored,
    its members' earlier-order neighbors hold their *new* starts and the
    later-order neighbors their *old* ones — exactly the state the sequential
    ``greedy_recolor_pass`` sees.  Returns a new starts array.
    """
    if substrate is None:
        substrate = get_substrate(instance.geometry)
    verts, ptr = substrate.wavefront_for(np.asarray(order, dtype=np.int64))
    starts_ext = np.empty(instance.num_vertices + 1, dtype=np.int64)
    starts_ext[:-1] = starts
    starts_ext[-1] = UNCOLORED
    return _run_wavefronts(substrate, instance.weights, verts, ptr, starts_ext)
