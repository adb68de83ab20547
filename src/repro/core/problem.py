"""The Interval Vertex Coloring problem container.

An :class:`IVCInstance` binds together

* an undirected conflict graph in CSR form (for stencil instances, derived
  from the geometry only when something reads it),
* non-negative integer vertex weights, and
* optionally a stencil geometry (:class:`~repro.stencil.grid2d.StencilGrid2D`
  or :class:`~repro.stencil.grid3d.StencilGrid3D`) that structure-aware
  algorithms (Bipartite Decomposition, clique-first orderings, GZO) exploit.

Instances built from weight grids are 2DS-IVC / 3DS-IVC instances in the
paper's terminology; instances built from a bare graph are general IVC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.stencil.generic import CSRGraph, from_edges
from repro.stencil.grid2d import StencilGrid2D
from repro.stencil.grid3d import StencilGrid3D

Geometry = Union[StencilGrid2D, StencilGrid3D]


def _check_finite(arr) -> None:
    """Reject NaN/inf before an int cast silently mangles them."""
    asarray = np.asarray(arr)
    if np.issubdtype(asarray.dtype, np.floating) and not np.isfinite(asarray).all():
        raise ValueError("weights must be finite")


def _as_weights(weights, n: int) -> np.ndarray:
    _check_finite(weights)
    arr = np.ascontiguousarray(weights, dtype=np.int64).ravel()
    if len(arr) != n:
        raise ValueError(f"expected {n} weights, got {len(arr)}")
    if arr.size and arr.min() < 0:
        raise ValueError("weights must be non-negative")
    return arr


@dataclass(frozen=True, init=False)
class IVCInstance:
    """An interval vertex coloring instance.

    Attributes
    ----------
    graph:
        Conflict graph in CSR form (see :attr:`graph`).
    weights:
        ``int64`` array of per-vertex interval lengths (``>= 0``).
    geometry:
        The stencil grid this instance lives on, or ``None`` for general
        graphs.
    name:
        Free-form label used in experiment reports.

    Construct with keywords: ``IVCInstance(graph=..., weights=...)`` for a
    general graph, ``IVCInstance(weights=..., geometry=...)`` for a stencil.
    """

    weights: np.ndarray
    geometry: Optional[Geometry] = None
    name: str = ""
    metadata: dict = field(default_factory=dict, compare=False, repr=False)
    # The CSR given to the constructor, ``None`` when :attr:`graph` is the
    # geometry's.  A field, so ``dataclasses.replace`` carries it over
    # without building the geometry's CSR.
    _graph: Optional[CSRGraph] = field(default=None, repr=False)

    def __init__(
        self,
        *,
        weights,
        graph: Optional[CSRGraph] = None,
        geometry: Optional[Geometry] = None,
        name: str = "",
        metadata: Optional[dict] = None,
        _graph: Optional[CSRGraph] = None,
    ) -> None:
        graph = graph if graph is not None else _graph
        if graph is None and geometry is None:
            raise ValueError("an instance needs a conflict graph or a stencil geometry")
        if graph is not None and geometry is not None and (
            geometry.num_vertices != graph.num_vertices
        ):
            raise ValueError("geometry vertex count does not match graph")
        n = geometry.num_vertices if geometry is not None else graph.num_vertices
        object.__setattr__(self, "weights", _as_weights(weights, n))
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "metadata", metadata if metadata is not None else {})
        object.__setattr__(self, "_graph", graph)

    # -------------------------------------------------------------- accessors
    @property
    def graph(self) -> CSRGraph:
        """Conflict graph in CSR form.

        The graph given to the constructor, else the geometry's CSR: a
        ``cached_property`` of the per-shape shared geometry, built on first
        access.  Only the reference, generic and exact paths read it; the
        stencil kernels and the stencil validator never do.
        """
        return self._graph if self._graph is not None else self.geometry.csr

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self.weights)

    @property
    def num_edges(self) -> int:
        """Number of undirected conflict edges."""
        if self._graph is None:
            # Ordered pairs within distance 1 per axis, minus self-pairs, halved.
            cells = math.prod(3 * s - 2 for s in self.geometry.shape)
            return (cells - self.num_vertices) // 2
        return self._graph.num_edges

    @property
    def total_weight(self) -> int:
        """Sum of all vertex weights — a trivial upper bound on ``maxcolor*``."""
        return int(self.weights.sum())

    @property
    def is_2d(self) -> bool:
        """Whether the instance is a 2DS-IVC (9-pt stencil) instance."""
        return isinstance(self.geometry, StencilGrid2D)

    @property
    def is_3d(self) -> bool:
        """Whether the instance is a 3DS-IVC (27-pt stencil) instance."""
        return isinstance(self.geometry, StencilGrid3D)

    def weight_grid(self) -> np.ndarray:
        """Weights reshaped to the stencil grid (stencil instances only)."""
        if self.geometry is None:
            raise ValueError("instance has no stencil geometry")
        return self.geometry.weights_as_grid(self.weights)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        geo = f", geometry={self.geometry!r}" if self.geometry is not None else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"IVCInstance(n={self.num_vertices}, m={self.num_edges}{geo}{label})"

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_grid_2d(cls, weight_grid, name: str = "", metadata: dict | None = None) -> "IVCInstance":
        """Build a 2DS-IVC instance from an ``(X, Y)`` weight array."""
        from repro.kernels.substrate import shared_geometry_2d

        _check_finite(weight_grid)
        grid_arr = np.ascontiguousarray(weight_grid, dtype=np.int64)
        if grid_arr.ndim != 2:
            raise ValueError(f"expected a 2D weight grid, got shape {grid_arr.shape}")
        return cls(
            weights=grid_arr.ravel(),
            geometry=shared_geometry_2d(*grid_arr.shape),
            name=name,
            metadata=metadata or {},
        )

    @classmethod
    def from_grid_3d(cls, weight_grid, name: str = "", metadata: dict | None = None) -> "IVCInstance":
        """Build a 3DS-IVC instance from an ``(X, Y, Z)`` weight array."""
        from repro.kernels.substrate import shared_geometry_3d

        _check_finite(weight_grid)
        grid_arr = np.ascontiguousarray(weight_grid, dtype=np.int64)
        if grid_arr.ndim != 3:
            raise ValueError(f"expected a 3D weight grid, got shape {grid_arr.shape}")
        return cls(
            weights=grid_arr.ravel(),
            geometry=shared_geometry_3d(*grid_arr.shape),
            name=name,
            metadata=metadata or {},
        )

    @classmethod
    def from_graph(cls, graph: CSRGraph, weights, name: str = "") -> "IVCInstance":
        """Build a general IVC instance from a CSR graph and weights."""
        return cls(graph=graph, weights=weights, name=name)

    @classmethod
    def from_edges(cls, num_vertices: int, edges, weights, name: str = "") -> "IVCInstance":
        """Build a general IVC instance from an edge list and weights."""
        return cls(graph=from_edges(num_vertices, edges), weights=weights, name=name)
