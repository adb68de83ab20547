"""The measured process of one benchmark run.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python repobench/worker.py <workload> <seed> <seconds> <cycles> <run_dir> <mode>

``mode`` is ``measure`` (untraced: at least ``cycles`` cycles of the
workload's operation mix and at least ``seconds``) or ``trace`` (one cycle
of every operation kind, traced and then untraced, for the per-layer
metrics).  The process prints ``ready`` once set-up is done, so its parent
can time set-up from spawn, and writes its samples to
``<run_dir>/worker.json``.  Outputs are digested here but checked by the
parent against a reference computed in another process.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import (
    LIBRARY,
    ONESHOT,
    RECOLOR,
    SERVED,
    TILED,
    DeltaStream,
    Tracer,
    digest,
    oneshot_inputs,
    served_fresh,
    served_plan,
    served_pool,
    tiled_seeds,
)


def ready() -> None:
    print("ready", flush=True)


def rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_cycles(cycle, runners: dict, seconds: float, cycles: int) -> list[dict]:
    """Run ``(kind, class)`` operations in cycle order for at least
    ``cycles`` cycles, stopping on the cycle boundary nearest ``seconds``."""
    ops: list[dict] = []
    t0 = time.perf_counter()
    cycles_done = 0
    while True:
        for kind, cls in cycle:
            runner = runners[kind]
            runner.tracer.new_trace()
            try:
                op = runner.op(cls)
            except Exception as exc:  # one failed operation must not end the run
                op = {"key": None, "ok": False, "error": f"{type(exc).__name__}: {exc}"}
            ops.append({"kind": kind, "cls": cls, **op})
        cycles_done += 1
        elapsed = time.perf_counter() - t0
        if cycles_done >= cycles and elapsed * (1 + 0.5 / cycles_done) >= seconds:
            return ops


# ------------------------------------------------------------------ oneshot
class Oneshot:
    """Cold ``api.color(validate=True)`` calls, each under a fresh context.

    With tracing on, each call is split into the public steps ``api.color``
    runs (geometry, substrate, coloring, validation), one span each.
    """

    def __init__(self, seed: int, tracer: Tracer, run_dir: Path):
        import repro.api  # noqa: F401

        self.tracer = tracer
        self.inputs = oneshot_inputs(seed)
        self.dispatch_reference = 0

    def op(self, cls: str) -> dict:
        import repro.api as api
        from repro.core import IVCInstance, color_with
        from repro.kernels.substrate import get_substrate
        from repro.runtime.context import ExecutionContext, use_context

        alg, dim = cls.split(".")
        w = self.inputs[cls]
        ctx = ExecutionContext()
        tracer = self.tracer
        gc.collect()  # each call starts as clean as a one-call process
        start = time.perf_counter()
        if tracer.enabled:
            make = IVCInstance.from_grid_2d if dim == "2d" else IVCInstance.from_grid_3d
            with use_context(ctx), tracer.span("oneshot.op"):
                with tracer.span(f"stencil.geometry.{dim}"):
                    inst = make(w)
                with tracer.span(f"kernels.substrate.{dim}"):
                    get_substrate(inst.geometry, context=ctx)
                with tracer.span(f"core.color.{alg}.{dim}"):
                    coloring = color_with(inst, alg, context=ctx)
                with tracer.span(f"core.validate.{dim}"):
                    coloring.check()
            lat = time.perf_counter() - start
            starts = np.asarray(coloring.starts).reshape(w.shape)
        else:
            with use_context(ctx):
                starts = api.color(w, alg, validate=True).starts
            lat = time.perf_counter() - start
        counters = ctx.metrics.snapshot()["counters"]
        self.dispatch_reference += counters.get("registry.dispatch_reference", 0)
        return {"key": cls, "ok": True, "lat": lat, "cells": int(w.size),
                "digest": digest(starts)}

    def result(self) -> dict:
        return {"dispatch_reference": self.dispatch_reference}


# -------------------------------------------------------------------- tiled
class Tiled:
    """``color_tiled`` of synthetic sources into an ``out=`` memmap, jobs=2."""

    def __init__(self, seed: int, tracer: Tracer, run_dir: Path):
        import repro.tiling  # noqa: F401

        self.tracer = tracer
        self.seeds = tiled_seeds(seed)
        self.out = run_dir / "tiled-out.npy"
        self.fields: list[dict] = []
        self.uses = {"2d": 0, "3d": 0}

    def op(self, dim: str) -> dict:
        from repro.data import SyntheticWeightSource
        from repro.tiling import color_tiled

        shape = TILED["shapes"][dim]
        s = self.seeds[dim][self.uses[dim] % len(self.seeds[dim])]
        self.uses[dim] += 1
        gc.collect()
        start = time.perf_counter()
        with self.tracer.span(f"tiling.color_tiled.{dim}"):
            result = color_tiled(
                SyntheticWeightSource(shape, seed=s),
                tile_shape=TILED["tiles"][dim],
                out=self.out,
                jobs=TILED["jobs"],
            )
        lat = time.perf_counter() - start
        self.fields.append({
            "dim": dim, "seam_elapsed": result.seam_elapsed,
            "elapsed": result.elapsed, "seam_cells": result.seam_cells,
            "cells": int(np.prod(shape)), "tiles_retried": result.tiles_retried,
            "pool_restarts": result.pool_restarts,
        })
        return {"key": f"{dim}.{s}", "ok": True, "lat": lat, "cells": int(np.prod(shape)),
                "digest": digest(result.starts)}

    def result(self) -> dict:
        from repro.data import SyntheticWeightSource

        if self.tracer.enabled:
            # The data layer alone: every outer-axis band the seam pass reads.
            for dim, shape in TILED["shapes"].items():
                source = SyntheticWeightSource(shape, seed=self.seeds[dim][0])
                band = TILED["tiles"][dim][0]
                with self.tracer.span(f"data.region.{dim}"):
                    for lo in range(0, shape[0], band):
                        box = [(lo, min(lo + band, shape[0]))] + [(0, d) for d in shape[1:]]
                        source.region(box)
        self.out.unlink(missing_ok=True)
        return {"tiled_fields": self.fields, "child_rss_mb": rss_mb(resource.RUSAGE_CHILDREN)}


# ------------------------------------------------------------------ recolor
class Recolor:
    """Sparse-delta ``api.recolor`` sessions; set-up colors each session's
    base grid."""

    def __init__(self, seed: int, tracer: Tracer, run_dir: Path):
        import repro.api as api

        self.tracer = tracer
        self.streams = {name: DeltaStream(seed, name) for name in RECOLOR["sessions"]}
        self.bases = {
            name: api.color(self.streams[name].weights, RECOLOR["sessions"][name][0])
            for name in self.streams
        }
        self.steps = {name: 0 for name in self.streams}
        self.full_done: set[str] = set()

    def op(self, name: str) -> dict:
        import repro.api as api

        alg = RECOLOR["sessions"][name][0]
        new, dirty = self.streams[name].advance()
        self.steps[name] += 1
        key = f"{name}.{self.steps[name]}"
        start = time.perf_counter()
        with self.tracer.span(f"incremental.recolor.{name}"):
            result = api.recolor(new, self.bases[name], dirty=dirty, algorithm=alg)
        lat = time.perf_counter() - start
        self.bases[name] = result
        if self.tracer.enabled and name not in self.full_done:
            # The floor for fallbacks: a warm full recolor of the same weights.
            self.full_done.add(name)
            with self.tracer.span(f"incremental.full.{name}"):
                api.color(new, alg)
        return {"key": key, "ok": True, "lat": lat, "cells": int(new.size),
                "digest": digest(result.starts), "mode": result.mode,
                "stats": {k: result.provenance["recolor"][k] for k in (
                    "cells_dirty", "cells_recomputed", "levels_touched")}}

    def result(self) -> dict:
        return {}


#: Every runner takes ``(seed, tracer, run_dir)`` and has ``op(cls)`` and
#: ``result()``; ``op`` returns one operation's sample.
RUNNERS = {"oneshot": Oneshot, "tiled": Tiled, "recolor": Recolor}


# ------------------------------------------------------------------- served
class Server:
    """``stencil-ivc serve --port 0`` with default flags, in its own process."""

    def __init__(self):
        self.proc = None
        self.port = 0
        self.rusage = None

    def start(self) -> float:
        """Spawn the server; return the seconds until the first ping answers."""
        from repro.service.client import ServiceClient

        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        line = self.proc.stdout.readline()
        if "coloring service on" not in line:
            self.stop()
            raise RuntimeError(f"server did not announce itself: {line!r}")
        self.port = int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
        try:
            with ServiceClient("127.0.0.1", self.port, timeout=30.0, wire="binary") as client:
                client.ping()
        except BaseException:
            self.stop()
            raise
        return time.perf_counter() - t0

    def stop(self) -> None:
        """Ask the server to shut down, reap it and keep its resource usage."""
        from repro.service.client import ServiceClient, ServiceError

        if self.proc is None:
            return
        if self.proc.poll() is None and self.port:
            try:
                with ServiceClient("127.0.0.1", self.port, timeout=10.0) as client:
                    client.shutdown()
            except ServiceError:
                pass
        deadline = time.monotonic() + 20.0
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.rusage = usage
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                deadline = time.monotonic() + 5.0
            time.sleep(0.02)
        self.proc.stdout.close()
        self.proc = None

    @property
    def rss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024.0 if self.rusage else 0.0


def served_requests(seed: int, phase: str, count: int, pool, tracer: Tracer) -> list[dict]:
    """Pre-built requests of one phase: encoding is done before timing."""
    from repro.service.client import prepare_color_request

    items = []
    for cls, ref in served_plan(count, len(pool)):
        if cls == "repeat":
            items.append({"cls": "repeat", "key": f"pool.{ref}", "prepared": pool[ref]})
            continue
        alg, w = served_fresh(seed, phase, ref, cls)
        with tracer.span("client.encode"):
            prepared = prepare_color_request(w, alg)
            prepared.wire_bytes("binary")
        items.append({"cls": cls, "key": f"{phase}.{ref}.{cls}", "prepared": prepared})
    return items


async def open_connection(port: int):
    """A raw binary-wire connection (hello negotiated) for the open loop."""
    import asyncio

    from repro.service.frames import encode_hello, read_frame_async
    from repro.service.protocol import MAX_MESSAGE_BYTES

    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=MAX_MESSAGE_BYTES)
    writer.write(encode_hello())
    await writer.drain()
    frame = await read_frame_async(reader)
    if frame is None or frame.header.get("status") != "ok":
        raise RuntimeError("binary wire negotiation failed")
    return reader, writer


def response_op(item: dict, message: dict) -> dict:
    op = {"kind": "served", "cls": item["cls"], "key": item["key"],
          "ok": message.get("status") == "ok"}
    if op["ok"]:
        starts = np.asarray(message["starts"], dtype=np.int64).reshape(item["prepared"].shape)
        op["digest"] = digest(starts)
        op["cells"] = int(starts.size)
        op["server_ms"] = float(message.get("total_ms", 0.0))
    else:
        op["error"] = str(message.get("error"))
    return op


async def phase_a(port: int, items: list[dict]) -> dict:
    """Open loop: request i is due at ``t0 + i / rate`` whatever is pending.

    Latency runs from when a request was due, so a stall also charges the
    requests queued behind it.  Requests alternate over the connections;
    the server answers each connection in order.
    """
    import asyncio
    from collections import deque

    from repro.service.frames import read_frame_async, response_to_message

    conns = [await open_connection(port) for _ in range(SERVED["connections"])]
    pending = [deque() for _ in conns]
    ops: list = [None] * len(items)
    inflight: list[int] = []
    received = 0

    async def read(c: int, count: int) -> None:
        nonlocal received
        reader = conns[c][0]
        for _ in range(count):
            frame = await read_frame_async(reader)
            now = time.perf_counter()
            if frame is None:
                raise RuntimeError("server closed the connection")
            i, due, sent = pending[c].popleft()
            op = response_op(items[i], response_to_message(frame))
            op.update(lat=now - due, late=sent - due, rtt=now - sent)
            ops[i] = op
            received += 1

    readers = [
        asyncio.ensure_future(read(c, len(range(c, len(items), len(conns)))))
        for c in range(len(conns))
    ]
    interval = 1.0 / SERVED["rate"]
    t0 = time.perf_counter() + 0.05
    for i, item in enumerate(items):
        due = t0 + i * interval
        # Sleep to within a millisecond of the due time, then spin: the
        # event loop's timer wakes late by up to a millisecond, and that
        # lateness would be charged to the server.
        delay = due - time.perf_counter() - 0.001
        if delay > 0:
            await asyncio.sleep(delay)
        while time.perf_counter() < due:
            pass
        c = i % len(conns)
        sent = time.perf_counter()
        pending[c].append((i, due, sent))
        conns[c][1].write(item["prepared"].wire_bytes("binary"))
        inflight.append(i - received)
    await asyncio.wait_for(asyncio.gather(*readers), timeout=60.0)
    for _, writer in conns:
        writer.close()
    return {"ops": ops, "inflight": inflight}


async def phase_b(port: int, items: list[dict], seconds: float) -> dict:
    """Closed loop: each connection sends a pipelined burst, waits for all
    of it, then sends the next, until ``seconds`` have passed."""
    import asyncio

    from repro.service.client import AsyncServiceClient

    depth = SERVED["pipeline"]
    ops: list[dict] = []
    cursor = 0
    end = time.perf_counter() + seconds

    async def loop() -> None:
        nonlocal cursor
        async with AsyncServiceClient("127.0.0.1", port, timeout=60.0, wire="binary") as client:
            while time.perf_counter() < end and cursor < len(items):
                burst = items[cursor: cursor + depth]
                cursor += len(burst)
                responses = await client.color_pipelined([it["prepared"] for it in burst])
                for item, resp in zip(burst, responses):
                    op = response_op(item, {"status": resp.status, "starts": resp.starts,
                                            "error": resp.error, "total_ms": resp.total_ms})
                    op["rtt"] = resp.latency
                    ops.append(op)

    start = time.perf_counter()
    await asyncio.gather(*(loop() for _ in range(SERVED["connections"])))
    wall = time.perf_counter() - start
    if cursor >= len(items):
        raise RuntimeError("phase B ran out of pre-built requests")
    return {"ops": ops, "wall": wall}


def served(seed: int, seconds: float, cycles: int, tracer: Tracer) -> dict:
    """One server: prewarm the repeat pool, then open-loop phase A (at least
    ``cycles`` cycles, and whole cycles filling its share of ``seconds``) and
    closed-loop phase B for the rest of ``seconds``."""
    import asyncio

    from repro.service.client import AsyncServiceClient, prepare_color_request

    rate, per_cycle = SERVED["rate"], len(SERVED["cycle"])
    cycles = max(cycles, round(SERVED["phase_a_share"] * seconds * rate / per_cycle))
    n_a = cycles * per_cycle
    b_seconds = max(SERVED["phase_b_min_seconds"], seconds - n_a / rate)
    server = Server()
    setup = server.start()
    try:
        pool = [prepare_color_request(w, alg) for _, alg, w in served_pool(seed)]
        items_a = served_requests(seed, "A", n_a, pool, tracer)
        items_b = served_requests(seed, "B", int(b_seconds * SERVED["phase_b_cap"]), pool, tracer)

        async def session() -> dict:
            async with AsyncServiceClient("127.0.0.1", server.port, wire="binary") as client:
                warm = await client.color_pipelined(pool)
                prewarm = [
                    response_op({"cls": "pool", "key": f"pool.{i}", "prepared": p},
                                {"status": r.status, "starts": r.starts, "error": r.error})
                    for i, (p, r) in enumerate(zip(pool, warm))
                ]
                a = await phase_a(server.port, items_a)
                b = await phase_b(server.port, items_b, b_seconds)
                metrics = await client.metrics()
            return {"prewarm": prewarm, "a": a, "b": b, "metrics": metrics}

        out = asyncio.run(session())
    finally:
        server.stop()
    out["setup"] = setup
    out["server_rss_mb"] = server.rss_mb
    return out


# --------------------------------------------------------------------- main
def section(kind: str, seed: int, run_dir: Path, tracer: Tracer) -> dict:
    """One cycle of one operation kind, for the traced run."""
    if kind == "served":
        return served(seed, 0, 1, tracer)
    runner = RUNNERS[kind](seed, tracer, run_dir)
    spec = {"oneshot": ONESHOT, "tiled": TILED, "recolor": RECOLOR}[kind]
    ops = run_cycles([(kind, cls) for cls in spec["cycle"]], {kind: runner}, 0, 1)
    return {"ops": ops, **runner.result()}


def main(argv: list[str]) -> int:
    workload, seed, seconds, cycles, run_dir, mode = argv
    seed, seconds, cycles, run_dir = int(seed), float(seconds), int(cycles), Path(run_dir)
    if mode == "trace":
        # Every per-layer metric comes from one traced run: a traced pass
        # of each operation kind, then an untraced pass over the same
        # inputs.  Warm-up falls on the traced pass, so the overhead is not
        # understated.
        import repro.api  # noqa: F401

        ready()
        sections = {}
        for kind in ("oneshot", "tiled", "recolor", "served"):
            tracer = Tracer(True)
            traced = section(kind, seed, run_dir, tracer)
            tracer.write_jsonl(run_dir / f"trace-{kind}.jsonl")
            plain = section(kind, seed, run_dir, Tracer(False))
            sections[kind] = {"traced": traced, "plain": plain, "spans": tracer.spans}
        result = {"sections": sections}
    elif workload == "library":
        runners = {kind: make(seed, Tracer(False), run_dir) for kind, make in RUNNERS.items()}
        ready()
        start = time.perf_counter()
        result = {"ops": run_cycles(LIBRARY["cycle"], runners, seconds, cycles)}
        result["measured_s"] = time.perf_counter() - start
        for runner in runners.values():
            result.update(runner.result())
    else:
        import repro.service.client  # noqa: F401

        ready()
        result = served(seed, seconds, cycles, Tracer(False))
    result["rss_mb"] = rss_mb()
    result["children_rss_mb"] = rss_mb(resource.RUSAGE_CHILDREN)
    (run_dir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
