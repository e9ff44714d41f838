"""Serving benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload babi-closed --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``babi-closed`` — 20-task bAbI suite behind ``ModelRouter`` (ITH
  backend, rho=1.0, max_batch=64), 64 closed-loop callers.
* ``synth-zipf`` — production-shaped synthetic model, one
  ``BatchScheduler`` over a ``SoftwarePredictor`` (exact backend,
  96-entry story cache, max_batch=128), zipf story reuse, 128 callers.
* ``synth-unique`` — the same server; every story is new to the cache.

The traced run of ``babi-closed`` adds a frontend segment: the same
router behind ``AsyncFrontend`` (queue_cap=256, shed-expired), open
loop at 300 req/s with a 25 ms deadline. It yields the ``frontend.*``
and ``loadgen.*`` per-layer metrics; an open loop's latency follows the
host's speed too closely to serve as a bounded end-to-end figure.

The host's cores are shared and its speed drifts by up to ~1.8x within
seconds, so every end-to-end time (throughput, latency, goodput and
set-up) is scaled to a reference host speed, read with a fixed kernel
between windows of the run (``hostspeed.py``, ``loadgen.closed_loop``).
The traced run reports the median slowdown (``host.slowdown``) and the
unscaled throughput (``loadgen.raw_throughput_rps``); its per-layer
times are wall times, unscaled.

Everything runs in this one process; the only threads are this one and
the scheduler's deadline thread. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run and the
software-vs-accelerator phase table. The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 1 if any answer differs from the reference engine.
Set-up writes artifacts, and the traced run its spans, under
``.perfbench-work/`` at the repository root.
"""

from __future__ import annotations

import os

# One BLAS thread: the serving stack is measured on its own threads, and
# multi-threaded BLAS would also make logits depend on the partitioning.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import re
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from repro.artifacts import load_suite, save_suite
from repro.serving import AsyncFrontend, BatchScheduler, ModelRouter, ServingStats, open_predictor

import hostspeed
import loadgen
import tracing
import workloads as wl

WORK_DIR = ROOT / ".perfbench-work"
SETUP_REPS = 5
WARMUP_S = 1.0
OPEN_RATE = 300.0


@dataclass(frozen=True)
class Workload:
    model: str  # "babi" or "synth"
    max_batch: int
    # Latency budget behind goodput_frac. The closed loops use it as an
    # SLO check only: their latency is set by the caller count.
    deadline_s: float
    callers: int = 0  # closed loop
    rate: float = 0.0  # open loop
    # Weight of the memory-stream kernel in the host-speed reading
    # (hostspeed.slowdown): bAbI serving is interpreter-bound, the
    # synthetic model's large gathers are half memory traffic.
    stream_weight: float = 0.0


WORKLOADS = {
    "babi-closed": Workload("babi", max_batch=64, deadline_s=0.025, callers=64),
    "synth-zipf": Workload(
        "synth", max_batch=128, deadline_s=0.1, callers=128, stream_weight=0.5
    ),
    "synth-unique": Workload(
        "synth", max_batch=128, deadline_s=0.1, callers=128, stream_weight=0.5
    ),
}
# The frontend segment of the babi-closed traced run.
FRONTEND = Workload("babi", max_batch=64, deadline_s=0.025, rate=OPEN_RATE)

# Metric names and units, end to end and per layer. Units ending in
# "-computed" are derived from array shapes or operation counts.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass
class Server:
    """One serving stack as the load generator and the tracer see it."""

    submitter: object  # has submit (and submit_nowait)
    scheduler: BatchScheduler
    routes: list  # SoftwarePredictor per route
    frontend: AsyncFrontend | None = None

    def close(self) -> None:
        self.scheduler.close()


def open_server(spec: Workload, suite) -> Server:
    if spec.model == "synth":
        predictor = open_predictor(
            suite, wl.SYNTH_TASK, mips_backend="exact", cache_entries=wl.CACHE_ENTRIES
        )
        scheduler = BatchScheduler(predictor, max_batch=spec.max_batch)
        return Server(scheduler, scheduler, [predictor])
    kwargs = dict(max_batch=spec.max_batch, **wl.BABI_BACKEND)
    if spec.rate:
        kwargs.update(inline_flush=False, queue_cap=256, overload_policy="shed-expired")
    router = ModelRouter.open(suite, **kwargs)
    server = Server(router, router.scheduler, [router.predictor(t) for t in router.tasks])
    if spec.rate:
        server.frontend = AsyncFrontend(router)
    return server


def set_up(spec: Workload, suite, pool) -> tuple[Server, dict]:
    """Trained weights to first answer: save, load, open, one warm-up
    flush of ``max_batch`` requests spread over the pool. The times are
    scaled to the reference host speed read just before and after."""
    directory = tempfile.mkdtemp(dir=WORK_DIR)
    speed = hostspeed.slowdown(spec.stream_weight)
    try:
        t0 = perf_counter()
        save_suite(suite, directory)
        t1 = perf_counter()
        loaded = load_suite(directory)
        t2 = perf_counter()
        server = open_server(spec, loaded)
        t3 = perf_counter()
        step = len(pool.requests) // spec.max_batch
        items = [k * step for k in range(spec.max_batch)]
        futures = [server.submitter.submit(pool.requests[i]) for i in items]
        server.scheduler.flush()
        responses = [f.result(timeout=30) for f in futures]
        t4 = perf_counter()
        speed = (speed + hostspeed.slowdown(spec.stream_weight)) / 2
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    for item, response in zip(items, responses):
        if not pool.check(item, response.label, response.logit):
            raise SystemExit(f"warm-up answer for pool item {item} differs from the reference")
    phases = {"save": t1 - t0, "load": t2 - t1, "open": t3 - t2, "warmup": t4 - t3}
    return server, {phase: t / speed for phase, t in phases.items()}


def settle(server: Server, pool) -> None:
    """Bring a deadline-serving stack to its steady state.

    Every deadline-carrying submit wakes the scheduler's deadline
    thread, which prices the next flush from the p95 of its service-time
    sample; that sample grows with each flush up to
    ``ServingStats.RESERVOIR_CAPACITY`` and the pricing cost grows with
    it. A long-running server sits at capacity, so fill it with one-row
    flushes first; otherwise the open loop would slow down as it runs.
    """
    futures = []
    while server.scheduler.stats.flushes < ServingStats.RESERVOIR_CAPACITY:
        item = len(futures) % len(pool.requests)
        futures.append((item, server.submitter.submit(pool.requests[item])))
        server.scheduler.flush()
    for item, future in futures:
        response = future.result(timeout=30)
        if not pool.check(item, response.label, response.logit):
            raise SystemExit(f"settle answer for pool item {item} differs from the reference")


def run_loop(spec: Workload, server: Server, pool, stream, *, warmup_s, seconds):
    if spec.rate:
        return loadgen.open_loop(
            server.frontend.query,
            pool,
            stream,
            rate=spec.rate,
            warmup_s=warmup_s,
            seconds=seconds,
            deadline_s=spec.deadline_s,
        )
    return loadgen.closed_loop(
        server.submitter.submit,
        pool,
        stream,
        callers=spec.callers,
        warmup_s=warmup_s,
        seconds=seconds,
        deadline_s=spec.deadline_s,
        stream_weight=spec.stream_weight,
    )


def build_inputs(name: str, seed: int):
    """(suite, pool, stream) of a workload; only pool and stream see the seed."""
    spec = WORKLOADS[name]
    if spec.model == "babi":
        suite = wl.babi_suite()
        return suite, wl.babi_pool(suite), wl.uniform_task_stream(suite, seed)
    suite = wl.synth_suite()
    if name == "synth-zipf":
        return suite, wl.zipf_pool(suite, seed), wl.zipf_stream(seed)
    return suite, wl.fresh_pool(suite, seed), wl.fresh_stream(seed)


def _counters(server: Server) -> dict:
    stats = server.scheduler.stats
    counts = {
        "shed": stats.shed,
        "expired": stats.expired,
        "safety_net_wakeups": stats.safety_net_wakeups,
        "retries": stats.retries,
        "hits": 0,
        "misses": 0,
        "evictions": 0,
        "dedupes": 0,
    }
    for route in server.routes:
        if route.cache is not None:
            cache_stats = route.cache.stats
            counts["hits"] += cache_stats.hits
            counts["misses"] += cache_stats.misses
            counts["evictions"] += cache_stats.evictions
            counts["dedupes"] += cache_stats.dedupes
    return counts


def reset_peak_rss() -> None:
    """Restart the process's resident-memory high-water mark (Linux), so
    the peak read after the loop is the serving run's, not the fixtures'."""
    Path("/proc/self/clear_refs").write_text("5")


def peak_rss_mb() -> float:
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0


def end_to_end(result, setup_s: float, peak_mb: float) -> dict:
    return {
        "throughput_rps": result.throughput_rps,
        "latency_p50_ms": result.latency_p50_ms,
        "latency_p90_ms": result.latency_p90_ms,
        "goodput_frac": result.goodput_frac,
        "success_frac": 1.0 - result.failed / max(1, result.attempted),
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
    }


def traced_segment(spec, server, pool, stream, seconds, warmup_s, trace_path):
    """Run the loop with every layer of ``server`` traced."""
    tracer = tracing.Tracer()
    if spec.rate:
        tracer.instrument(server.submitter, ("submit", "submit_nowait"), server.scheduler, server.routes)
        tracer.wrap_async_query(server.frontend)
    else:
        tracer.instrument(server.submitter, ("submit",), server.scheduler, server.routes)
    before = _counters(server)
    traced = run_loop(spec, server, pool, stream, warmup_s=warmup_s, seconds=seconds)
    after = _counters(server)
    delta = {k: after[k] - before[k] for k in before}
    tracer.save(trace_path)

    answered = traced.attempted - traced.failed
    metrics = tracing.layer_metrics(tracer, traced.wall_s, answered)
    lookups = delta["hits"] + delta["misses"]
    metrics.update(
        {
            "frontend.shed": delta["shed"],
            "frontend.expired": delta["expired"],
            "frontend.safety_net_wakeups": delta["safety_net_wakeups"],
            "scheduler.retries": delta["retries"],
            "cache.hit_rate": delta["hits"] / lookups if lookups else 0.0,
            "cache.lookups_per_query": lookups / max(1, answered),
            "cache.evictions": delta["evictions"],
            "cache.dedupe": delta["dedupes"],
        }
    )
    return metrics, traced


def traced_run(spec, server, pool, stream, seconds, name, seed):
    """Untraced half, then traced half, on the same server; the closed
    loop's throughput ratio gives ``trace.overhead_frac``."""
    half = seconds / 2
    plain = run_loop(spec, server, pool, stream, warmup_s=WARMUP_S, seconds=half)
    path = WORK_DIR / f"trace-{name}-seed{seed}.npz"
    metrics, traced = traced_segment(spec, server, pool, stream, half, 0.0, path)
    metrics["trace.overhead_frac"] = 1.0 - traced.throughput_rps / plain.throughput_rps
    metrics["host.slowdown"] = plain.slowdown
    metrics["loadgen.raw_throughput_rps"] = plain.raw_throughput_rps
    metrics["loadgen.late_p99_ms"] = 0.0
    for key in ("latency_p50_ms", "latency_p90_ms", "goodput_frac"):
        metrics[f"frontend.{key}"] = 0.0
    return metrics, (plain, traced)


def frontend_segment(suite, pool, stream, seconds, seed):
    """The babi router behind ``AsyncFrontend`` in a traced open loop.
    Only its ``frontend.*`` and ``loadgen.*`` figures are kept."""
    server, _ = set_up(FRONTEND, suite, pool)
    try:
        settle(server, pool)
        path = WORK_DIR / f"trace-frontend-seed{seed}.npz"
        metrics, result = traced_segment(FRONTEND, server, pool, stream, seconds, WARMUP_S, path)
    finally:
        server.close()
    kept = {k: v for k, v in metrics.items() if k.startswith("frontend.")}
    kept.update(
        {
            "loadgen.late_p99_ms": float(np.percentile(result.late_ms, 99)),
            "frontend.latency_p50_ms": result.latency_p50_ms,
            "frontend.latency_p90_ms": result.latency_p90_ms,
            "frontend.goodput_frac": result.goodput_frac,
        }
    )
    return kept, (result,)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    name = args.workload
    spec = WORKLOADS[name]

    WORK_DIR.mkdir(exist_ok=True)
    suite, pool, stream = build_inputs(name, args.seed)

    # Set up several times and keep the median; the last server serves.
    setups = []
    for rep in range(SETUP_REPS):
        server, timings = set_up(spec, suite, pool)
        setups.append((sum(timings.values()), timings))
        if rep < SETUP_REPS - 1:
            server.close()
    setup_s, setup = sorted(setups, key=lambda s: s[0])[len(setups) // 2]

    try:
        if args.trace:
            metrics, results = traced_run(spec, server, pool, stream, args.seconds, name, args.seed)
            for phase in ("save", "load", "open", "warmup"):
                metrics[f"setup.{phase}_s"] = setup[phase]
        else:
            reset_peak_rss()
            result = run_loop(spec, server, pool, stream, warmup_s=WARMUP_S, seconds=args.seconds)
            metrics = end_to_end(result, setup_s, peak_rss_mb())
            results = (result,)
    finally:
        server.close()
    if args.trace:
        if spec.model == "babi":
            frontend, more = frontend_segment(suite, pool, stream, args.seconds / 2, args.seed)
            metrics.update(frontend)
            results += more
        hw_suite = suite if spec.model == "babi" else wl.babi_suite()
        metrics.update(tracing.hw_metrics(hw_suite))
        print(tracing.phase_table(metrics, name))

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    mismatches = sum(r.mismatches for r in results)
    print(json.dumps({"env": environment(), "workload": name, "seed": args.seed}))
    for metric in units:
        print(f"  {metric:<40} {metrics[metric]:>14.6g} {units[metric]}")
    for r in results:
        if r.late_ms is None:  # closed loop
            print(f"  host slowdown {r.slowdown:.3f}, unscaled throughput {r.raw_throughput_rps:.1f} 1/s")
    print(
        json.dumps(
            {
                "correct": mismatches == 0,
                "attempted": sum(r.attempted for r in results),
                "failed": sum(r.failed for r in results),
                "metrics": {m: {"value": float(metrics[m]), "unit": u} for m, u in units.items()},
            }
        )
    )
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
