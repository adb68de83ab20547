"""Vectorized stencil coloring kernels (the repo's perf subsystem).

Three layers, all differentially tested to be bit-identical to the reference
Python loops in :mod:`repro.core`:

* :mod:`repro.kernels.substrate` — per-shape LRU caches of geometry, CSR
  adjacency, padded neighbor tables, and wavefront schedules;
* :mod:`repro.kernels.wavefront` — wavefront-batched first-fit coloring and
  recoloring (the ``O(E log E)`` primitive, without the per-vertex loop);
* :mod:`repro.kernels.chains` — vectorized Bipartite Decomposition chain
  assembly and the clique-guided recolor order.

Whether a call takes a kernel is decided in :mod:`repro.runtime.fastpath`
and per algorithm by :func:`~repro.core.algorithms.registry.color_with`
(``REPRO_FAST_PATHS=0`` disables everything); the registry wrappers in
:mod:`repro.kernels.colorings` bind the kernels to algorithm names; and
:mod:`repro.kernels.bench` measures kernel-vs-reference speedups and the
per-algorithm crossovers (``stencil-ivc bench-kernels``).
"""

from repro.kernels.substrate import (
    Substrate,
    analytic_levels,
    cache_sizes,
    clear_caches,
    get_substrate,
    shared_geometry_2d,
    shared_geometry_3d,
)
from repro.kernels.wavefront import wavefront_greedy_color, wavefront_recolor_pass

__all__ = [
    "Substrate",
    "analytic_levels",
    "cache_sizes",
    "clear_caches",
    "get_substrate",
    "shared_geometry_2d",
    "shared_geometry_3d",
    "wavefront_greedy_color",
    "wavefront_recolor_pass",
]
