"""Multi-task serving throughput: the inline router vs one-at-a-time.

Routes one mixed-task request stream through :class:`ModelRouter` —
four task routes behind one shared scheduler, whose flushes run inline
and answer same-shaped routes with one engine call — and through
one-at-a-time ``predict`` calls, asserting bit-identical answers, and
persists

* ``benchmarks/output/router.txt`` — the human-readable comparison, and
* the ``serving_router`` summary in
  ``benchmarks/output/BENCH_serving.json`` — a machine-readable
  throughput summary CI archives so the serving perf trajectory is
  comparable across changes.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import mixed_task_requests, persist, persist_bench_summary

from repro.serving import ModelRouter
from repro.utils.tables import TextTable

N_REQUESTS = 512
MAX_BATCH = 64
TASKS = (1, 2, 6, 15)  # four routes: enough mix to exercise the router
#: The router must beat one-at-a-time submission by this much (the
#: end-to-end serving contract).
MIN_SERVING_SPEEDUP = 2.0
#: Best-of-N timing keeps the numbers stable against scheduler jitter
#: (flushes race the deadline thread).
REPEATS = 3


def _timed_run(suite, requests):
    """Best-of-REPEATS timing of the router; returns (seconds, answers,
    router)."""
    best_seconds, answers, router = None, None, None
    for _ in range(REPEATS):
        candidate = ModelRouter.open(
            suite,
            tasks=[t for t in TASKS if t in suite.tasks],
            mips_backend="exact",
            max_batch=MAX_BATCH,
            max_wait_s=0.005,
        )
        start = time.perf_counter()
        with candidate:
            futures = [candidate.submit(request) for request in requests]
            run_answers = [
                (r.label, r.logit) for r in (f.result() for f in futures)
            ]
        seconds = time.perf_counter() - start
        if answers is not None:
            assert run_answers == answers, "nondeterministic serving answers"
        if best_seconds is None or seconds < best_seconds:
            best_seconds, answers, router = seconds, run_answers, candidate
    return best_seconds, answers, router


def test_bench_router_throughput(full_suite, bench_floor):
    requests = mixed_task_requests(full_suite, N_REQUESTS, TASKS)

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
        reference = [
            (r.label, r.logit) for r in map(warm.predict, requests)
        ]
        seconds = time.perf_counter() - start
        one_at_a_time = seconds if one_at_a_time is None else min(one_at_a_time, seconds)
    warm.close()

    seconds, answers, router = _timed_run(full_suite, requests)
    assert answers == reference, "batched serving changed an answer"
    speedup = one_at_a_time / seconds
    stats = router.stats
    row = {
        "requests_per_s": round(N_REQUESTS / seconds, 1),
        "mean_batch": round(stats.mean_batch_size, 2),
        "mean_latency_ms": round(stats.mean_latency_s * 1e3, 3),
        "p50_latency_ms": round(stats.p50_latency_s * 1e3, 3),
        "p95_latency_ms": round(stats.p95_latency_s * 1e3, 3),
        "p99_latency_ms": round(stats.p99_latency_s * 1e3, 3),
    }

    table = TextTable(
        ["configuration", "requests/s", "mean batch", "p50 (ms)", "speedup"],
        title=(
            f"Multi-task serving — {len(TASKS)} task routes, "
            f"{N_REQUESTS} requests, exact backend, max_batch={MAX_BATCH}"
        ),
    )
    table.add_row(
        ["one-at-a-time predict()", f"{N_REQUESTS / one_at_a_time:,.0f}", "1.0", "-", "-"]
    )
    table.add_row(
        [
            "router (inline flushes)",
            f"{N_REQUESTS / seconds:,.0f}",
            f"{stats.mean_batch_size:.1f}",
            f"{stats.p50_latency_s * 1e3:.2f}",
            f"{speedup:.2f}x",
        ]
    )

    persist_bench_summary(
        "serving_router",
        {
            "benchmark": "serving_router",
            "cpu_count": os.cpu_count() or 1,
            "n_requests": N_REQUESTS,
            "task_routes": list(TASKS),
            "mips_backend": "exact",
            "max_batch": MAX_BATCH,
            "one_at_a_time_rps": round(N_REQUESTS / one_at_a_time, 1),
            "router_vs_one_at_a_time": round(speedup, 2),
            "router": row,
        },
    )
    persist(
        "router",
        table.render()
        + f"\nrouter vs one-at-a-time: {speedup:.2f}x "
        f"(floor {MIN_SERVING_SPEEDUP}x)",
    )

    bench_floor(
        speedup >= MIN_SERVING_SPEEDUP,
        f"router only {speedup:.2f}x over one-at-a-time "
        f"(floor {MIN_SERVING_SPEEDUP}x)",
    )
