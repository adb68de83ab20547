"""The repository benchmark: one run of one workload.

Usage, from the repository root::

    python3 repobench/run.py --workload {library,served} \\
        --seed N --seconds S --trace {0,1}

A run spawns the measured process (``worker.py``) three times, each for a
third of the run's seconds on the same inputs, times each set-up from spawn,
pools the samples, has ``reference.py`` recompute every checked output in
a separate process afterwards, and prints one JSON object as the last line
of stdout: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The line before it holds the details: provenance, sample
counts, percentile margins and validity checks.  ``BENCHMARK.json`` at the
repository root says why each workload and metric exists.

Exit codes: 0 for a valid run (even one with failed operations), 1 for an
invalid run (too few samples beyond a percentile, a growing open-loop
backlog, or a crashed worker), 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (
    ALGORITHMS,
    BENCH_DIR,
    OUT,
    PARTS,
    ROOT,
    SPECS,
    SRC,
    class_margins,
    class_medians,
    percentile,
    recolor_checked_steps,
    samples_beyond,
)

WORKER_TIMEOUT = 160.0

#: The end-to-end metrics every untraced run reports.
END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


class InvalidRun(Exception):
    """The run measured something other than what its metrics claim."""


# ------------------------------------------------------------- processes
def child_env(run_dir: Path) -> dict:
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)  # the program's own temp files stay in the checkout
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(workload, seed, seconds, cycles, run_dir, env, mode) -> tuple[float, dict]:
    """Run one worker to completion; return its set-up time, measured from
    spawn until it prints ``ready``, and its samples."""
    args = [workload, str(seed), str(seconds), str(cycles), str(run_dir), mode]
    with open(run_dir / f"{mode}.stderr", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), *args],
            stdout=subprocess.PIPE, stderr=err, text=True, env=env, cwd=ROOT,
            start_new_session=True,  # its own process group, with the server and tile pool
        )
    ready, _, _ = select.select([proc.stdout], [], [], WORKER_TIMEOUT)
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    try:
        proc.wait(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    proc.stdout.close()
    if proc.returncode != 0 or line.strip() != "ready":
        tail = (run_dir / f"{mode}.stderr").read_text()[-2000:]
        raise InvalidRun(f"worker {mode} exited with {proc.returncode}:\n{tail}")
    return setup, json.loads((run_dir / "worker.json").read_text())


def reference(keys: dict, run_dir: Path, env: dict) -> dict:
    """Reference digests, ``{kind: {seed: {key: digest}}}``."""
    (run_dir / "keys.json").write_text(json.dumps(keys))
    log = run_dir / "reference.stderr"
    with open(log, "w") as err:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "reference.py"),
             str(run_dir / "keys.json"), str(run_dir / "reference.json")],
            stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT,
        )
    if proc.returncode != 0:
        raise InvalidRun(f"reference exited with {proc.returncode}:\n{log.read_text()[-2000:]}")
    return json.loads((run_dir / "reference.json").read_text())


# ------------------------------------------------------------ correctness
def checked_keys(kind: str, seed: int, ops: list[dict]) -> list[str]:
    """The keys of one operation kind whose outputs the reference
    recomputes (all but the recolor deltas outside the seeded sample)."""
    keys = sorted({op["key"] for op in ops if op["ok"]})
    if kind != "recolor":
        return keys
    last: dict[str, int] = {}
    for key in keys:
        name, step = key.rsplit(".", 1)
        last[name] = max(last.get(name, 0), int(step))
    return [f"{name}.{s}" for name, n in last.items() for s in recolor_checked_steps(seed, name, n)]


def count_failures(ops: list[dict], expected: dict) -> int:
    """Errors, refusals and outputs that differ from the reference."""
    failed = 0
    for op in ops:
        if not op["ok"]:
            failed += 1
        elif op["key"] in expected and expected[op["key"]] != op["digest"]:
            op["ok"] = False
            op["error"] = "output differs from the reference"
            failed += 1
    return failed


def all_ops(workload: str, res: dict) -> list[dict]:
    if workload == "served":
        return res["prewarm"] + res["a"]["ops"] + res["b"]["ops"]
    return res["ops"]


def verify(parts: list[tuple[int, list[dict]]], run_dir: Path, env: dict) -> tuple[int, int, int]:
    """Check the outputs of every ``(seed, operations)`` part against the
    reference; return the counts of operations attempted, failed, and
    outputs recomputed."""
    keys: dict[str, dict[str, set]] = {}
    for seed, ops in parts:
        by_kind: dict[str, list[dict]] = {}
        for op in ops:
            by_kind.setdefault(op["kind"], []).append(op)
        for kind, mine in by_kind.items():
            keys.setdefault(kind, {}).setdefault(str(seed), set()).update(
                checked_keys(kind, seed, mine))
    expected = reference(
        {kind: {s: sorted(k) for s, k in by_seed.items()} for kind, by_seed in keys.items()},
        run_dir, env)
    attempted = failed = 0
    for seed, ops in parts:
        for op in ops:
            attempted += 1
            failed += count_failures([op], expected.get(op["kind"], {}).get(str(seed), {}))
    checked = sum(len(v) for by_seed in expected.values() for v in by_seed.values())
    return attempted, failed, checked


# -------------------------------------------------------------- metrics
def label(op: dict) -> str:
    """An operation's class across every kind, as ``kind:class``."""
    return f"{op['kind']}:{op['cls']}"


def latency_stats(ops: list[dict], tail: int) -> dict:
    ok = [op for op in ops if op["ok"]]
    lats = [op["lat"] * 1000.0 for op in ok]
    n = len(lats)
    for q in (50, tail):
        if samples_beyond(n, q) < 10:
            raise InvalidRun(f"{n} samples leave fewer than ten beyond p{q}")
    return {
        "p50": percentile(lats, 50),
        "tail": percentile(lats, tail),
        "samples": n,
        "margins": class_margins(lats, [label(op) for op in ok], (50, tail)),
        "class_medians_ms": class_medians(lats, [label(op) for op in ok]),
    }


def backlog_growing(inflight: list[int]) -> bool:
    """Whether requests in flight were still piling up when phase A ended:
    the last fifth of sends saw more than twice the in-flight count of the
    middle fifth, plus two."""
    n = len(inflight)
    mid = statistics.fmean(inflight[2 * n // 5: 3 * n // 5])
    end = statistics.fmean(inflight[4 * n // 5:])
    return end > 2 * mid + 2


def end_to_end(workload: str, results: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics over the samples of every part of a run."""
    spec = SPECS[workload]
    details: dict = {"setup_samples": setups}
    if workload == "served":
        if any(backlog_growing(res["a"]["inflight"]) for res in results):
            raise InvalidRun("phase A backlog was still growing at its end")
        a_ops = [op for res in results for op in res["a"]["ops"]]
        lat = latency_stats(a_ops, spec["tail"])
        late = [op["late"] * 1000.0 for op in a_ops if op["ok"]]
        details["phase_a"] = {
            "rate_per_s": spec["rate"], "requests": len(a_ops),
            "late_p99_ms": percentile(late, 99),
            "inflight_max": max(max(res["a"]["inflight"]) for res in results),
        }
        done = [op for res in results for op in res["b"]["ops"] if op["ok"]]
        busy = sum(res["b"]["wall"] for res in results)
        details["phase_b"] = {"requests": len(done), "wall_s": busy}
        rss = max(max(res["rss_mb"], res["server_rss_mb"]) for res in results)
    else:
        ops = [op for res in results for op in res["ops"]]
        lat = latency_stats(ops, spec["tail"])
        done = [op for op in ops if op["ok"]]
        busy = sum(op["lat"] for op in done)
        rss = max(max(res["rss_mb"], res["children_rss_mb"]) for res in results)
    details["latency"] = {
        "p50_samples_beyond": samples_beyond(lat["samples"], 50),
        "tail_percentile": spec["tail"],
        "tail_samples_beyond": samples_beyond(lat["samples"], spec["tail"]),
        "samples": lat["samples"],
        "class_margin_points": lat["margins"],
        "class_medians_ms": lat["class_medians_ms"],
    }
    details["throughput_samples"] = len(done)
    values = {
        "setup_s": statistics.median(setups),
        "cells_per_s": sum(op["cells"] for op in done) / busy,
        "ops_per_s": len(done) / busy,
        "latency_p50_ms": lat["p50"],
        "latency_p90_ms": lat["tail"],
        "peak_rss_mb": rss,
    }
    return values, details


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def per_layer(sections: dict) -> dict:
    """Per-layer metrics from the traced pass of every operation kind."""
    m: dict[str, float] = {}

    def spans(section: str, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in sections[section]["spans"] if s["name"] == name]

    def overhead(section: str, busy) -> None:
        """Traced busy time against the untraced pass's."""
        sec = sections[section]
        m[f"trace.overhead_pct.{section}"] = 100.0 * (busy(sec["traced"]) / busy(sec["plain"]) - 1.0)

    def ok_seconds(res: dict) -> float:
        return sum(op["lat"] for op in res["ops"] if op["ok"])

    # oneshot: the steps api.color runs, each timed cold.
    one = sections["oneshot"]
    for dim in ("2d", "3d"):
        m[f"stencil.geometry_s.{dim}"] = median(spans("oneshot", f"stencil.geometry.{dim}"))
        m[f"kernels.substrate_s.{dim}"] = median(spans("oneshot", f"kernels.substrate.{dim}"))
        m[f"core.validate_s.{dim}"] = median(spans("oneshot", f"core.validate.{dim}"))
        for alg in ALGORITHMS:
            m[f"core.color_s.{alg}.{dim}"] = median(spans("oneshot", f"core.color.{alg}.{dim}"))
    plain = {op["cls"]: op["lat"] for op in one["plain"]["ops"] if op["ok"]}
    traced = {op["cls"]: op["lat"] for op in one["traced"]["ops"] if op["ok"]}
    # What api.color adds around its steps: each class's untraced call
    # minus the same class's traced steps.
    m["api.facade_s"] = median(plain[c] - traced[c] for c in plain if c in traced)
    m["runtime.dispatch_reference.oneshot"] = one["traced"]["dispatch_reference"]
    overhead("oneshot", ok_seconds)

    # tiled: seam pass against interior pass, the data layer alone.
    til = sections["tiled"]
    fields = til["traced"]["tiled_fields"]
    for dim in ("2d", "3d"):
        mine = [f for f in fields if f["dim"] == dim]
        m[f"tiling.seam_s.{dim}"] = median(f["seam_elapsed"] for f in mine)
        m[f"tiling.interior_s.{dim}"] = median(f["elapsed"] - f["seam_elapsed"] for f in mine)
        m[f"data.region_s.{dim}"] = median(spans("tiled", f"data.region.{dim}"))
    m["tiling.colored_per_cell"] = sum(f["seam_cells"] + f["cells"] for f in fields) / sum(
        f["cells"] for f in fields)
    m["tiling.tiles_retried"] = sum(f["tiles_retried"] for f in fields)
    m["tiling.pool_restarts"] = sum(f["pool_restarts"] for f in fields)
    m["tiling.child_rss_mb"] = til["traced"]["child_rss_mb"]
    overhead("tiled", ok_seconds)

    # recolor: delta against full recolor, and how much of the cone was paid.
    rec = sections["recolor"]
    ops = [op for op in rec["traced"]["ops"] if op["ok"]]
    for name in ("GLF2d", "GLF3d", "GLL", "GZO"):
        mine = [op for op in ops if op["cls"] == name]
        m[f"incremental.recolor_ms.{name}"] = 1000.0 * median(op["lat"] for op in mine)
        m[f"incremental.full_ms.{name}"] = 1000.0 * median(spans("recolor", f"incremental.full.{name}"))
        m[f"incremental.recomputed_per_dirty.{name}"] = sum(
            op["stats"]["cells_recomputed"] for op in mine) / max(1, sum(
                op["stats"]["cells_dirty"] for op in mine))
        m[f"incremental.levels_touched.{name}"] = median(op["stats"]["levels_touched"] for op in mine)
    for alg in ("GLF", "GLL", "GZO"):
        mine = [op for op in ops if op["cls"].startswith(alg)]
        m[f"incremental.fallback_ratio.{alg}"] = sum(
            op["mode"] == "incremental-fallback" for op in mine) / max(1, len(mine))
    overhead("recolor", ok_seconds)

    # served: client time against server time, queue and cache counters.
    srv = sections["served"]
    a_ops = [op for op in srv["traced"]["a"]["ops"] if op["ok"]]
    m["client.encode_ms"] = 1000.0 * median(spans("served", "client.encode"))
    repeat = [op for op in a_ops if op["cls"] == "repeat"]
    fresh = [op for op in a_ops if op["cls"] != "repeat"]
    m["client.rtt_ms.repeat"] = 1000.0 * median(op["rtt"] for op in repeat)
    m["client.rtt_ms.fresh"] = 1000.0 * median(op["rtt"] for op in fresh)
    m["service.server_ms.fresh"] = median(op["server_ms"] for op in fresh)
    snap = srv["traced"]["metrics"]
    hist, counters = snap["histograms"], snap["counters"]
    m["service.queue_wait_ms"] = 1000.0 * hist.get("queue_wait", {}).get("mean", 0.0)
    m["service.compute_ms"] = 1000.0 * hist.get("compute_seconds", {}).get("mean", 0.0)
    m["service.batch_size_mean"] = hist.get("batch_size", {}).get("mean", 0.0)
    repeats = sum(op["cls"] == "repeat" for op in srv["traced"]["a"]["ops"] + srv["traced"]["b"]["ops"])
    m["service.cache_hit_ratio"] = counters.get("cache_hits", 0) / max(1, repeats)
    m["service.fastpath_ratio"] = counters.get("fastpath_hits", 0) / max(1, repeats)
    m["runtime.dispatch_reference.served"] = counters.get("registry.dispatch_reference", 0)
    m["loadgen.late_p99_ms"] = percentile([op["late"] * 1000.0 for op in a_ops], 99)
    overhead("served", lambda res: res["b"]["wall"] / len(res["b"]["ops"]))
    return m


# ------------------------------------------------------------ provenance
def provenance(seed: int) -> dict:
    import numpy

    h = hashlib.blake2b(digest_size=16)
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "commit": commit,
        "src_digest": h.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


# ------------------------------------------------------------------ main
def measure(workload: str, seed: int, seconds: float, run_dir: Path, env: dict) -> tuple[dict, dict]:
    """The untraced run: ``PARTS`` worker processes on the run's inputs,
    each for a share of the fewest cycles and measuring until the run's
    measured time reaches its share of ``seconds``; samples are pooled."""
    spec = SPECS[workload]
    total = math.ceil(spec["min_ops"] / len(spec["cycle"]))
    results, setups = [], []
    measured = 0.0
    started = time.perf_counter()
    for p in range(PARTS):
        cycles = total // PARTS + (p < total % PARTS)
        share = seconds * (p + 1) / PARTS - measured if workload == "library" else seconds / PARTS
        setup, res = run_worker(workload, seed, share, cycles, run_dir, env, "measure")
        measured += res.get("measured_s", 0.0)
        setups.append(res.get("setup", setup))  # served: server spawn to first ping
        results.append(res)
    checking = time.perf_counter()
    attempted, failed, checked = verify(
        [(seed, all_ops(workload, res)) for res in results], run_dir, env)
    values, details = end_to_end(workload, results, setups)
    details["checked_outputs"] = checked
    details["wall_s"] = {"parts": checking - started, "check": time.perf_counter() - checking}
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    return summary, {
        "metrics": {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()},
        "details": details,
    }


def trace(seed: int, run_dir: Path, env: dict) -> tuple[dict, dict]:
    """The traced run: one cycle of every operation kind in one worker
    process, traced and then untraced."""
    _, res = run_worker("all", seed, 0, 1, run_dir, env, "trace")
    sections = res["sections"]
    attempted, failed, checked = verify(
        [(seed, all_ops(name, sec[p])) for name, sec in sections.items() for p in ("traced", "plain")],
        run_dir, env)
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    values = per_layer(sections)
    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    for name in sections:
        shutil.copy(run_dir / f"trace-{name}.jsonl", traces / f"seed{seed}-{name}.jsonl")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    return summary, {
        "metrics": {u["name"]: {"value": values[u["name"]], "unit": u["unit"]} for u in units},
        "details": {"checked_outputs": checked, "traces": str(traces.relative_to(ROOT))},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "api.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    env = child_env(run_dir)
    try:
        if args.trace:
            summary, body = trace(args.seed, run_dir, env)
        else:
            summary, body = measure(args.workload, args.seed, args.seconds, run_dir, env)
    except InvalidRun as exc:
        print(f"error: invalid run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    details = {"workload": args.workload, "trace": args.trace, **provenance(args.seed), **body["details"]}
    print(json.dumps({"details": details}))
    print(json.dumps({**summary, "metrics": body["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
