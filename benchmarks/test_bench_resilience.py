"""Chaos soak: the inline router under injected predict failures.

The acceptance gate for the resilience layer: route a mixed-task
request stream through the router while the chaos harness fails a
seeded fraction of route calls with a transient ``raise-in-predict``
fault (a raising route fails its whole flush), at a ladder of rates:

* **with retry** (a :class:`RetryPolicy`): the scheduler replays each
  failed flush — the soak must finish with **zero** failed requests
  and answers bit-identical to the fault-free run.
* **without retry**: a failed flush loses its requests, which is the
  row that shows what the retry policy buys.

The scheduler runs without its deadline thread, so every flush is a
full ``MAX_BATCH`` taken by the submitting caller: flush composition,
and with it every fault decision, is the same on every run.

Persists ``benchmarks/output/resilience.txt`` (the human-readable
ladder) and a machine-readable summary under the
``serving_resilience`` key of ``benchmarks/output/BENCH_serving.json``
so CI can watch the zero-failure contract hold across changes.
"""

from __future__ import annotations

import time

from benchmarks.conftest import mixed_task_requests, persist, persist_bench_summary

from repro.serving import FaultPlan, ModelRouter, RetryPolicy, ServingError
from repro.utils.tables import TextTable

N_REQUESTS = 128
MAX_BATCH = 16
TASKS = (1, 2, 6, 15)
#: (raise rate, retry) soak ladder. Every nonzero-rate plan also
#: schedules a guaranteed fault at each route's third call, so the row
#: without retry demonstrably loses requests even if the rate draw
#: happens to spare the early calls. The rate-0 row is the fault-free
#: reference.
LADDER = ((0.0, True), (0.04, True), (0.08, True), (0.04, False))
#: Retry budget per flush. A flush stops at its first raising route and
#: every route reaches its scheduled third-call fault in the same
#: flush, so that flush alone fails once per route in a row; the budget
#: covers those plus the rate's own draws.
MAX_ATTEMPTS = len(TASKS) + 4


def _soak(suite, requests, raise_rate: float, retry: bool):
    """One soak run; returns (answers, seconds, failed, stats)."""
    plan = None
    if raise_rate > 0:
        plan = FaultPlan(
            raise_rate=raise_rate,
            seed=13,
            schedule=((2, "raise-in-predict"),),
        )
    router = ModelRouter.open(
        suite,
        tasks=[t for t in TASKS if t in suite.tasks],
        mips_backend="exact",
        max_batch=MAX_BATCH,
        start_worker=False,
        chaos_plan=plan,
        retry_policy=(
            RetryPolicy(max_attempts=MAX_ATTEMPTS, backoff_base_s=0.0)
            if retry
            else None
        ),
    )
    answers: dict[int, tuple[int, float]] = {}
    failed = 0
    start = time.perf_counter()
    with router:
        futures = []
        for request in requests:
            try:
                futures.append((request.request_id, router.submit(request)))
            except ServingError:
                failed += 1
        for request_id, future in futures:
            try:
                response = future.result(timeout=120.0)
            except ServingError:
                failed += 1
            else:
                answers[request_id] = (response.label, response.logit)
    seconds = time.perf_counter() - start
    return answers, seconds, failed, router.stats


def test_bench_chaos_soak(full_suite):
    requests = mixed_task_requests(full_suite, N_REQUESTS, TASKS)

    table = TextTable(
        [
            "raise rate",
            "retry",
            "served",
            "failed",
            "retried",
            "recovered",
            "requests/s",
        ],
        title=(
            f"Chaos soak — {N_REQUESTS} requests, {len(TASKS)} routes, "
            f"inline flushes, max_batch={MAX_BATCH}"
        ),
    )
    rows = []
    reference = None
    for raise_rate, retry in LADDER:
        answers, seconds, failed, stats = _soak(
            full_suite, requests, raise_rate, retry
        )
        if reference is None:
            reference = answers  # the fault-free run
        if retry:
            # The zero-failure contract: every request served, every
            # answer bit-identical to the fault-free run.
            assert failed == 0, (
                f"soak with retry at raise rate {raise_rate} lost "
                f"{failed} requests"
            )
            assert answers == reference, "recovery changed an answer"
            if raise_rate > 0:
                assert stats.retries >= 1, "no fault was ever injected"
                assert stats.recovered >= 1
        else:
            assert failed > 0, (
                "soak without retry survived every fault — the faults "
                "are not being injected"
            )
            assert all(answers[k] == reference[k] for k in answers)
        rows.append(
            {
                "raise_rate": raise_rate,
                "retry": retry,
                "served": len(answers),
                "failed": failed,
                "retries": stats.retries,
                "recovered": stats.recovered,
                "requests_per_s": round(len(answers) / seconds, 1)
                if seconds > 0
                else 0.0,
            }
        )
        table.add_row(
            [
                f"{raise_rate:.2f}",
                "yes" if retry else "no",
                str(len(answers)),
                str(failed),
                str(stats.retries),
                str(stats.recovered),
                f"{len(answers) / seconds:,.0f}",
            ]
        )

    persist("resilience", table.render())
    persist_bench_summary(
        "serving_resilience",
        {
            "benchmark": "chaos_soak",
            "n_requests": N_REQUESTS,
            "max_batch": MAX_BATCH,
            "tasks": list(TASKS),
            "rows": rows,
        },
    )
