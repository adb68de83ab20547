"""Reference colorings for a benchmark run, computed in their own process.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python repobench/reference.py <keys.json> <out.json>

``keys.json`` maps each operation kind and seed to the output keys a run
produced.  The inputs behind each key are regenerated from the seed and
colored by the monolithic kernels (``api.color(..., runtime="kernels")``)
or, for served requests, a direct ``color_with`` call.  ``out.json`` maps each kind,
seed and key to the benchmark's own digest of that coloring.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from common import (
    RECOLOR,
    TILED,
    DeltaStream,
    digest,
    oneshot_inputs,
    served_fresh,
    served_pool,
)


def kernels(w: np.ndarray, alg: str) -> str:
    import repro.api as api

    return digest(api.color(w, alg, runtime="kernels").starts)


def direct(w: np.ndarray, alg: str) -> str:
    from repro.core import IVCInstance, color_with

    make = IVCInstance.from_grid_2d if w.ndim == 2 else IVCInstance.from_grid_3d
    return digest(np.asarray(color_with(make(w), alg, fast=True).starts).reshape(w.shape))


def oneshot(seed: int, keys: list[str]) -> dict:
    inputs = oneshot_inputs(seed)
    out = {}
    for key in keys:
        out[key] = kernels(inputs[key], key.split(".")[0])
    return out


def tiled(seed: int, keys: list[str]) -> dict:
    from repro.data import SyntheticWeightSource

    out = {}
    for key in keys:
        dim, s = key.split(".")
        shape = TILED["shapes"][dim]
        w = SyntheticWeightSource(shape, seed=int(s)).region([(0, d) for d in shape])
        out[key] = kernels(w, "GLL")
    return out


def recolor(seed: int, keys: list[str]) -> dict:
    wanted: dict[str, set[int]] = {}
    for key in keys:
        name, step = key.rsplit(".", 1)
        wanted.setdefault(name, set()).add(int(step))
    out = {}
    for name, steps in wanted.items():
        alg = RECOLOR["sessions"][name][0]
        stream = DeltaStream(seed, name)
        for step in range(1, max(steps) + 1):
            w, _ = stream.advance(copy=False)
            if step in steps:
                out[f"{name}.{step}"] = kernels(w, alg)
    return out


def served(seed: int, keys: list[str]) -> dict:
    pool = served_pool(seed)
    out = {}
    for key in keys:
        parts = key.split(".")
        if parts[0] == "pool":
            _, alg, w = pool[int(parts[1])]
        else:
            phase, ref, cls = parts
            alg, w = served_fresh(seed, phase, int(ref), cls)
        out[key] = direct(w, alg)
    return out


def main(argv: list[str]) -> int:
    keys_path, out_path = argv
    with open(keys_path) as fh:
        keys = json.load(fh)
    compute = {"oneshot": oneshot, "tiled": tiled, "recolor": recolor, "served": served}
    result = {
        name: {seed: compute[name](int(seed), sorted(set(k))) for seed, k in by_seed.items()}
        for name, by_seed in keys.items()
    }
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
