"""Shard/worker scaling of the multi-task serving runtime.

The sharded serving question this PR exists for: once flushes are
dispatched as concurrent shard sub-batches by a worker pool, how does
throughput move with ``n_workers`` x ``n_shards``? This benchmark
routes one mixed-task request stream through :class:`ModelRouter`
configurations from the PR 3 baseline (single worker, unsharded) up to
a 4x4 pool, asserting bit-identical answers everywhere, and persists

* ``benchmarks/output/sharding.txt`` — the human-readable scaling
  curve, and
* ``benchmarks/output/BENCH_serving.json`` — a machine-readable
  throughput summary CI archives so the serving perf trajectory is
  comparable across PRs.

Thread-level speedup needs physical cores: the gain assertion only
arms when the machine has them (single-core boxes record the honest
curve — coordination overhead included — without failing the build).

The grid runs twice: once with ``worker_mode="thread"`` (shared-memory,
GIL-bound) and once with ``worker_mode="process"`` (workers rebuild
their routes from memory-mapped artifacts and receive encoded arrays
over the pipe). The process rows are the reason this benchmark exists:
the thread pool cannot beat the GIL on CPU-bound flushes, so the JSON
summary records ``process_pool_vs_single_worker`` and
``process_vs_thread`` so CI can watch the process pool pay for its
pickling overhead.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import persist, persist_bench_summary

from repro.serving import ModelRouter, QueryRequest
from repro.utils.tables import TextTable

N_REQUESTS = 512
MAX_BATCH = 64
TASKS = (1, 2, 6, 15)  # four routes: enough mix to exercise the router
GRID = ((1, 1), (2, 2), (4, 4))  # (workers, shards) scaling ladder
#: Process-mode ladder: every entry uses >= 2 workers because the row
#: the summary promises (``process_pool_vs_single_worker``) is the
#: multi-worker gain; a 1-process "pool" would only measure pipe tax.
PROCESS_GRID = ((2, 2), (4, 4))
#: The serving runtime's best configuration must beat one-at-a-time
#: submission by this much (the end-to-end serving contract).
MIN_SERVING_SPEEDUP = 2.0
#: Worker-pool gain floor vs the single-worker scheduler. Thread-level
#: parallelism needs physical cores: single-core machines record the
#: honest curve (coordination overhead included) without arming the
#: floor — there is nothing for four workers to run on.
MIN_POOL_SPEEDUP_MULTICORE = 1.05
#: Best-of-N timing per configuration keeps the curve stable against
#: scheduler jitter (flushes race the deadline thread).
REPEATS = 3


def _requests(suite, n: int) -> list[QueryRequest]:
    tasks = [t for t in TASKS if t in suite.tasks]
    stream = []
    for i in range(n):
        task = tasks[i % len(tasks)]
        batch = suite.tasks[task].test_batch
        j = (i // len(tasks)) % len(batch)
        stream.append(
            QueryRequest(
                batch.stories[j],
                batch.questions[j],
                n_sentences=int(batch.story_lengths[j]),
                request_id=i,
                task=task,
            )
        )
    return stream


def _timed_run(source, suite, requests, n_workers: int, shards: int,
               worker_mode: str = "thread"):
    """Best-of-REPEATS timing of one (workers, shards, mode) config.

    ``source`` is the in-memory suite for thread mode and the saved
    artifact directory for process mode (worker processes rebuild
    their routes from the directory, zero-copy via mmap).
    """
    best_seconds, labels, router = None, None, None
    for _ in range(REPEATS):
        candidate = ModelRouter.open(
            source,
            tasks=[t for t in TASKS if t in suite.tasks],
            mips_backend="exact",
            shards=shards if shards > 1 else None,
            n_workers=n_workers,
            worker_mode=worker_mode,
            max_batch=MAX_BATCH,
            max_wait_s=0.005,
        )
        # Warm the pool before the clock starts: process workers fork
        # and map their weights lazily on the first flush, and that
        # one-time startup is exactly what "load once, serve many"
        # amortises away in steady state.
        warm_up = [candidate.submit(r) for r in requests[:MAX_BATCH]]
        candidate.flush()
        for future in warm_up:
            future.result()
        start = time.perf_counter()
        with candidate:
            futures = [candidate.submit(request) for request in requests]
            run_labels = [future.result().label for future in futures]
        seconds = time.perf_counter() - start
        if labels is not None:
            assert run_labels == labels, "nondeterministic serving answers"
        if best_seconds is None or seconds < best_seconds:
            best_seconds, labels, router = seconds, run_labels, candidate
    return best_seconds, labels, router


def test_bench_shard_worker_scaling(full_suite, full_suite_artifacts, bench_floor):
    requests = _requests(full_suite, N_REQUESTS)

    # One-at-a-time baseline (no scheduler at all).
    warm = ModelRouter.open(
        full_suite,
        tasks=[t for t in TASKS if t in full_suite.tasks],
        mips_backend="exact",
        start_worker=False,
    )
    warm.predict_batch(requests[: 2 * MAX_BATCH])  # BLAS/alloc warm-up
    one_at_a_time, reference = None, None
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference = [warm.predict(request).label for request in requests]
        seconds = time.perf_counter() - start
        one_at_a_time = seconds if one_at_a_time is None else min(one_at_a_time, seconds)
    warm.close()

    table = TextTable(
        ["configuration", "requests/s", "mean batch", "sub-batches/flush", "speedup"],
        title=(
            f"Sharded serving runtime — {len(TASKS)} task routes, "
            f"{N_REQUESTS} requests, exact backend, max_batch={MAX_BATCH}"
        ),
    )
    table.add_row(
        ["one-at-a-time predict()", f"{N_REQUESTS / one_at_a_time:,.0f}", "1.0", "-", "-"]
    )

    rows = []
    single_seconds = None
    ladder = [("thread", cfg) for cfg in GRID]
    ladder += [("process", cfg) for cfg in PROCESS_GRID]
    for worker_mode, (n_workers, shards) in ladder:
        source = full_suite if worker_mode == "thread" else full_suite_artifacts
        seconds, labels, router = _timed_run(
            source, full_suite, requests, n_workers, shards, worker_mode
        )
        assert labels == reference, (
            f"workers={n_workers} shards={shards} mode={worker_mode}: "
            "sharded serving changed an answer"
        )
        if (worker_mode, n_workers, shards) == ("thread", 1, 1):
            single_seconds = seconds
        speedup = single_seconds / seconds
        rows.append(
            {
                "mode": worker_mode,
                "workers": n_workers,
                "shards": shards,
                "requests_per_s": round(N_REQUESTS / seconds, 1),
                "mean_batch": round(router.stats.mean_batch_size, 2),
                "mean_sub_batches_per_flush": round(
                    router.stats.mean_shards_per_flush, 2
                ),
                "mean_latency_ms": round(router.stats.mean_latency_s * 1e3, 3),
                "p50_latency_ms": round(router.stats.p50_latency_s * 1e3, 3),
                "p95_latency_ms": round(router.stats.p95_latency_s * 1e3, 3),
                "p99_latency_ms": round(router.stats.p99_latency_s * 1e3, 3),
                "speedup_vs_single_worker": round(speedup, 3),
            }
        )
        table.add_row(
            [
                f"router({n_workers} {worker_mode} workers, {shards} shards)",
                f"{N_REQUESTS / seconds:,.0f}",
                f"{router.stats.mean_batch_size:.1f}",
                f"{router.stats.mean_shards_per_flush:.1f}",
                f"{speedup:.2f}x",
            ]
        )

    cores = os.cpu_count() or 1
    microbatch_speedup = one_at_a_time / single_seconds
    best = max(rows, key=lambda row: row["requests_per_s"])
    serving_speedup = best["requests_per_s"] / (N_REQUESTS / one_at_a_time)
    thread_rows = [row for row in rows if row["mode"] == "thread"]
    process_rows = [row for row in rows if row["mode"] == "process"]
    pool_speedup = max(
        row["speedup_vs_single_worker"] for row in thread_rows[1:]
    )
    # Every PROCESS_GRID entry uses >= 2 workers, so this is the
    # multi-worker process-pool gain the acceptance bar asks for.
    process_pool_speedup = max(
        row["speedup_vs_single_worker"] for row in process_rows
    )
    best_thread_rps = max(row["requests_per_s"] for row in thread_rows)
    best_process_rps = max(row["requests_per_s"] for row in process_rows)
    process_vs_thread = best_process_rps / best_thread_rps
    summary = {
        "benchmark": "serving_sharding",
        "cpu_count": cores,
        "n_requests": N_REQUESTS,
        "task_routes": list(TASKS),
        "mips_backend": "exact",
        "max_batch": MAX_BATCH,
        "one_at_a_time_rps": round(N_REQUESTS / one_at_a_time, 1),
        "single_worker_speedup": round(microbatch_speedup, 2),
        "best_vs_one_at_a_time": round(serving_speedup, 2),
        "pool_vs_single_worker": round(pool_speedup, 2),
        "process_pool_vs_single_worker": round(process_pool_speedup, 2),
        "process_vs_thread": round(process_vs_thread, 2),
        "rows": rows,
        "best": best,
    }
    persist_bench_summary("serving_sharding", summary)

    persist(
        "sharding",
        table.render()
        + f"\nsingle-worker scheduler vs one-at-a-time: {microbatch_speedup:.2f}x"
        + f"\nthread pool vs single-worker scheduler: {pool_speedup:.2f}x"
        + f"\nprocess pool vs single-worker scheduler: {process_pool_speedup:.2f}x"
        + f"\nbest process vs best thread configuration: {process_vs_thread:.2f}x"
        + f"\nbest configuration: {best['workers']} {best['mode']} workers x "
        f"{best['shards']} shards at {best['requests_per_s']:,.0f} req/s "
        f"({serving_speedup:.2f}x vs one-at-a-time, floor "
        f"{MIN_SERVING_SPEEDUP}x)"
        + f"\ncpu cores: {cores}"
        + (
            ""
            if cores >= 2
            else f"\n(pool gain floors not armed: {cores} core(s) give "
            "workers nothing to run on; curve recorded as measured)"
        ),
    )

    bench_floor(
        serving_speedup >= MIN_SERVING_SPEEDUP,
        f"best serving configuration only {serving_speedup:.2f}x over "
        f"one-at-a-time (floor {MIN_SERVING_SPEEDUP}x)",
    )
    if cores >= 4:
        bench_floor(
            pool_speedup >= MIN_POOL_SPEEDUP_MULTICORE,
            f"worker pool best {pool_speedup:.2f}x vs the single-worker "
            f"scheduler on a {cores}-core machine "
            f"(floor {MIN_POOL_SPEEDUP_MULTICORE}x)",
        )
    if cores >= 2:
        # Unlike the GIL-bound thread pool, the process pool must win
        # as soon as there is a second core to run on.
        bench_floor(
            process_pool_speedup >= MIN_POOL_SPEEDUP_MULTICORE,
            f"process pool best {process_pool_speedup:.2f}x vs the "
            f"single-worker scheduler on a {cores}-core machine "
            f"(floor {MIN_POOL_SPEEDUP_MULTICORE}x)",
        )
