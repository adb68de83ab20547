"""Kernel-vs-reference microbenchmark (``stencil-ivc bench-kernels``).

Times each registry algorithm that declares a fast path on each grid shape
— through the reference Python loops (``fast=False``) and through the
vectorized kernels (``fast=True``) — on the same fresh random weights, checks
the two colorings are *identical* (same starts array, not just the same
maxcolor), and reports cells/second plus the speedup.  From the speedups it
derives each algorithm's per-dimension crossover: the vertex count from
which the kernels win, which :attr:`AlgorithmSpec.crossover
<repro.core.algorithms.registry.AlgorithmSpec.crossover>` commits for the
auto-mode dispatch.  The results feed ``BENCH_kernels.json`` and the CI
benchmark-smoke step, which fails the build on any kernel/reference
divergence.
"""

from __future__ import annotations

import functools
import json
import platform
import sys
from pathlib import Path
from time import perf_counter
from typing import Optional, Sequence

import numpy as np

#: Registry algorithms benchmarked by default: every one with a kernel.
DEFAULT_ALGORITHMS = ("GLL", "GZO", "GLF", "GSL", "BD", "BDP")

#: Default sweep: small grids around the crossovers, then large ones.
SIZES_2D = (8, 12, 16, 24, 32, 48, 64, 128, 256, 512)
SIZES_3D = (4, 6, 8, 10, 12, 16, 20, 24, 32, 40)

#: Each side of a cell runs at least ``reps`` times, and more until it has
#: run this long (up to :data:`MAX_SAMPLES` calls), so sub-millisecond
#: timings are medians of many calls rather than single samples.
MIN_SAMPLE_SECONDS = 0.2
MAX_SAMPLES = 50


def _random_instance(shape: tuple[int, ...], seed: int | Sequence[int]):
    from repro.core.problem import IVCInstance

    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 1000, size=shape, dtype=np.int64)
    label = "x".join(str(s) for s in shape)
    if len(shape) == 2:
        return IVCInstance.from_grid_2d(weights, name=f"bench-{label}")
    return IVCInstance.from_grid_3d(weights, name=f"bench-{label}")


def _median_time(fn, grid, reps: int, limit: int = MAX_SAMPLES) -> tuple[float, list]:
    """Median wall time of ``fn(grid(0)), fn(grid(1)), ...`` (building the
    grid untimed): at least ``reps`` calls, more for fast calls (see
    :data:`MIN_SAMPLE_SECONDS`), at most ``limit``; plus every return value."""
    samples: list[float] = []
    values = []
    while len(samples) < limit and (
        len(samples) < max(1, reps) or sum(samples) < MIN_SAMPLE_SECONDS
    ):
        instance = grid(len(samples))
        t0 = perf_counter()
        values.append(fn(instance))
        samples.append(perf_counter() - t0)
    return float(np.median(samples)), values


def bench_cell(
    shape: Sequence[int],
    algorithm: str,
    reps: int = 3,
    runtime: str = "auto",
    seed: int | Sequence[int] = 0,
) -> dict:
    """Benchmark one (grid shape, algorithm) cell: reference vs kernel.

    Every timed call colors fresh random weights — call ``i`` of either side
    colors the same ``i``-th grid, seeded from ``(*seed, i)`` — so per-input costs
    such as a weight order's wavefront schedule are paid as a new input pays
    them.  One untimed call per side first warms the per-shape caches.

    ``runtime`` restricts which side runs: ``"auto"`` (the default) times
    both and compares them; ``"kernels"`` / ``"reference"`` time only that
    path (the skipped side's fields are ``None`` and ``identical`` is
    ``None`` — there is nothing to diverge).

    Returns a flat record with timings, throughputs, the speedup, and an
    ``identical`` flag comparing the two sides' start arrays grid by grid.
    """
    from repro.core.algorithms.registry import color_with

    shape = tuple(int(n) for n in shape)
    base = (seed,) if isinstance(seed, int) else tuple(seed)
    grid = functools.cache(lambda i: _random_instance(shape, (*base, i)))
    warm = _random_instance(shape, (*base, MAX_SAMPLES))  # no timed call's index
    ref_seconds = kernel_seconds = None
    ref = fast = None
    limit = MAX_SAMPLES
    if runtime in ("auto", "reference"):
        color_with(warm, algorithm, fast=False)
        ref_seconds, ref = _median_time(
            lambda inst: color_with(inst, algorithm, fast=False), grid, reps
        )
        limit = len(ref)
    if runtime in ("auto", "kernels"):
        color_with(warm, algorithm, fast=True)
        kernel_seconds, fast = _median_time(
            lambda inst: color_with(inst, algorithm, fast=True), grid, reps, limit
        )
    cells = warm.num_vertices

    def _rate(seconds):
        if seconds is None:
            return None
        return cells / seconds if seconds > 0 else float("inf")

    identical = None
    if ref is not None and fast is not None:
        identical = all(
            np.array_equal(a.starts, b.starts) for a, b in zip(ref, fast)
        )
    return {
        "shape": list(shape),
        "dim": len(shape),
        "algorithm": algorithm,
        "cells": int(cells),
        "samples": len(fast if fast is not None else ref),
        "ref_seconds": ref_seconds,
        "kernel_seconds": kernel_seconds,
        "ref_cells_per_sec": _rate(ref_seconds),
        "kernel_cells_per_sec": _rate(kernel_seconds),
        "speedup": (
            ref_seconds / kernel_seconds
            if ref_seconds is not None and kernel_seconds
            else None
        ),
        "identical": identical,
        "maxcolor": int((fast if fast is not None else ref)[0].maxcolor),
    }


def crossovers(results: Sequence[dict]) -> dict:
    """Per algorithm and dimension, the smallest measured vertex count from
    which the kernels beat the reference at that size and every larger one.

    ``0`` when they win at every measured size, ``None`` when they lose at
    the largest (or the cells were not compared).  Keys are algorithm names,
    then ``"2"``/``"3"``.
    """
    table: dict = {}
    for algorithm in dict.fromkeys(r["algorithm"] for r in results):
        for dim in (2, 3):
            rows = sorted(
                (r for r in results if r["algorithm"] == algorithm and r["dim"] == dim),
                key=lambda r: r["cells"],
            )
            if not rows:
                continue
            cross = None
            for row in reversed(rows):
                if row["speedup"] is None or row["speedup"] <= 1:
                    break
                cross = row["cells"]
            if cross == rows[0]["cells"]:
                cross = 0
            table.setdefault(algorithm, {})[str(dim)] = cross
    return table


def run_kernel_benchmark(
    sizes_2d: Sequence[int] = SIZES_2D,
    sizes_3d: Sequence[int] = SIZES_3D,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    reps: int = 3,
    seed: int = 0,
    runtime: str = "auto",
) -> dict:
    """Sweep square 2D and cubic 3D grids, timing reference vs kernel.

    Returns the full ``BENCH_kernels.json`` document: per-cell ``results``,
    the derived :func:`crossovers`, a ``headline`` picking out the greedy
    numbers on the largest 2D and 3D grids, and an ``all_identical`` flag
    that is ``False`` if *any* cell's kernel coloring diverged from the
    reference.
    """
    from repro.kernels.substrate import substrate_stats

    shapes: list[tuple[int, ...]] = [(n, n) for n in sizes_2d]
    shapes += [(n, n, n) for n in sizes_3d]
    results = []
    for shape in shapes:
        for k, algorithm in enumerate(algorithms):
            # Distinct grids per cell: no cell reuses another's cached schedules.
            results.append(
                bench_cell(shape, algorithm, reps=reps, runtime=runtime, seed=(seed, k))
            )

    def _headline(dim: int) -> Optional[dict]:
        greedy = [
            r
            for r in results
            if r["dim"] == dim
            and r["algorithm"].startswith("G")
            and r["speedup"] is not None
        ]
        if not greedy:
            return None
        biggest = max(r["cells"] for r in greedy)
        best = max(
            (r for r in greedy if r["cells"] == biggest), key=lambda r: r["speedup"]
        )
        return {
            "shape": best["shape"],
            "algorithm": best["algorithm"],
            "speedup": best["speedup"],
            "kernel_cells_per_sec": best["kernel_cells_per_sec"],
        }

    return {
        "meta": {
            "tool": "stencil-ivc bench-kernels",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "reps": int(reps),
            "timing": f"median over fresh random grids: >= reps calls, more "
                      f"until {MIN_SAMPLE_SECONDS} s (at most {MAX_SAMPLES})",
            "seed": int(seed),
            "algorithms": list(algorithms),
            "runtime": runtime,
        },
        "results": results,
        "crossovers": crossovers(results),
        "headline": {
            "greedy_2d": _headline(2),
            "greedy_3d": _headline(3),
        },
        "substrate": substrate_stats(),
        # None means "not compared" (single-path run) — only an explicit
        # False (a real divergence) fails the build.
        "all_identical": all(r["identical"] is not False for r in results),
    }


def write_benchmark(report: dict, path: str | Path) -> Path:
    """Write a benchmark report as indented JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def summary_line(report: dict) -> str:
    """The one-line speedup summary printed by the CLI."""
    parts = []
    for key in ("greedy_2d", "greedy_3d"):
        head = report["headline"].get(key)
        if head is not None:
            shape = "x".join(str(s) for s in head["shape"])
            parts.append(f"{head['algorithm']} {shape}: {head['speedup']:.1f}x")
    if report.get("meta", {}).get("runtime", "auto") != "auto":
        status = f"{report['meta']['runtime']} only, not compared"
    else:
        status = "identical" if report["all_identical"] else "DIVERGED"
    joined = ", ".join(parts) if parts else "no greedy cells"
    sub = report.get("substrate", {}).get("substrates", {})
    cache = (
        f"; substrate cache {sub['hits']} hits / {sub['misses']} misses"
        if sub
        else ""
    )
    return f"kernels vs reference: {joined} ({status}){cache}"


def format_report(report: dict) -> str:
    """Human-readable table of every benchmarked cell."""
    lines = [
        f"{'shape':>12} {'algorithm':>9} {'ref s':>9} {'kernel s':>9} "
        f"{'speedup':>8} {'Mcells/s':>9} {'same':>5}"
    ]
    def _sec(value) -> str:
        return f"{value:>9.4f}" if value is not None else f"{'-':>9}"

    for r in report["results"]:
        shape = "x".join(str(s) for s in r["shape"])
        speedup = f"{r['speedup']:>7.1f}x" if r["speedup"] is not None else f"{'-':>8}"
        rate = r["kernel_cells_per_sec"] or r["ref_cells_per_sec"] or 0.0
        same = "-" if r["identical"] is None else ("yes" if r["identical"] else "NO")
        lines.append(
            f"{shape:>12} {r['algorithm']:>9} {_sec(r['ref_seconds'])} "
            f"{_sec(r['kernel_seconds'])} {speedup} "
            f"{rate / 1e6:>9.2f} {same:>5}"
        )
    table = report.get("crossovers") or {}
    if table:
        lines.append("crossover (kernels win from this many vertices up):")
        for algorithm, dims in table.items():
            cells = ", ".join(
                f"{dim}D {'-' if n is None else n}" for dim, n in dims.items()
            )
            lines.append(f"  {algorithm:>9}: {cells}")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:  # pragma: no cover - thin CLI
    """Standalone entry point mirroring ``stencil-ivc bench-kernels``."""
    from repro.cli import build_parser

    args = build_parser().parse_args(["bench-kernels"] + list(argv or []))
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
