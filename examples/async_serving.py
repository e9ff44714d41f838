#!/usr/bin/env python3
"""Async SLO-aware serving: deadlines, admission control, load shedding.

The serving front door, end to end:
1. train a small 2-task suite and open the full async stack over it —
   ``AsyncFrontend`` over ``ModelRouter`` over ``BatchScheduler`` —
   with a bounded pending queue,
2. ``await`` queries with per-request SLO deadlines: the scheduler's
   deadline thread flushes *early* when the predicted flush time
   (the p95 of recorded flush times) would eat a request's remaining
   slack,
3. overload a bounded queue with two waves of requests under both
   admission policies: ``shed`` (typed ``OverloadError`` at the door)
   and ``shed-expired`` (past-deadline queue entries resolve with
   ``DeadlineExceededError`` first, making room for new arrivals);
   the example exits non-zero unless only ``shed-expired`` expires
   requests,
4. read the goodput story from ``ServingStats``: served / shed /
   expired / deadline-met counts — every request accounted for,
   no future ever stranded.

Run with: PYTHONPATH=src python examples/async_serving.py
"""

import asyncio
import sys
import time

from repro.eval.suite import BabiSuite, SuiteConfig
from repro.serving import (
    AsyncFrontend,
    DeadlineExceededError,
    ModelRouter,
    OverloadError,
    QueryRequest,
)

TASKS = (1, 6)
N_REQUESTS = 192
QUEUE_CAP = 8
WAVE = 12  # requests per overload wave, more than the queue holds
SHORT_BUDGET_S = 0.02  # the first wave's deadline
PAUSE_S = 0.05  # between the waves: the queued first wave expires
LONG_BUDGET_S = 60.0  # the second wave's deadline


def build_requests(suite, n=N_REQUESTS):
    requests = []
    for i in range(n):
        task = TASKS[i % len(TASKS)]
        batch = suite.tasks[task].test_batch
        j = i % len(batch)
        requests.append(
            QueryRequest(
                batch.stories[j],
                batch.questions[j],
                n_sentences=int(batch.story_lengths[j]),
                request_id=i,
                task=task,
            )
        )
    return requests


async def healthy_traffic(suite) -> None:
    print("\n=== 2. Awaitable queries with SLO deadlines ===")
    router = ModelRouter.open(
        suite,
        max_batch=32,
        max_wait_s=0.05,  # lazy timer: the deadline flush must beat it
        cache_entries=64,
        inline_flush=False,
    )
    async with AsyncFrontend(router, default_deadline_s=0.05) as frontend:
        requests = build_requests(suite)
        start = time.perf_counter()
        responses = await frontend.query_many(requests)
        seconds = time.perf_counter() - start
        stats = frontend.stats
        correct_ids = sum(
            r.request_id == requests[i].request_id
            for i, r in enumerate(responses)
        )
        print(
            f"{len(responses)} responses in {seconds * 1e3:.0f} ms "
            f"({correct_ids} in submission order), "
            f"mean batch {stats.mean_batch_size:.1f}, "
            f"p95 latency {stats.p95_latency_s * 1e3:.1f} ms"
        )
    print(
        f"deadline attainment: {stats.deadline_met} met / "
        f"{stats.deadline_missed} missed "
        f"(goodput {stats.goodput_rate:.1%})"
    )


def start_wave(frontend, requests, deadline_s):
    """One query task per request; each submits on the loop's next pass."""
    return [
        asyncio.ensure_future(frontend.query(request, deadline_s=deadline_s))
        for request in requests
    ]


async def overloaded_traffic(suite, policy: str) -> int:
    """Two waves against a full queue; returns the expired count."""
    # Manual mode with queue_cap < max_batch: no submit flushes and no
    # deadline thread runs, so only aclose() serves what is queued.
    router = ModelRouter.open(
        suite,
        max_batch=16,
        start_worker=False,
        queue_cap=QUEUE_CAP,
        overload_policy=policy,
    )
    frontend = AsyncFrontend(router)
    requests = build_requests(suite, 2 * WAVE)
    tasks = start_wave(frontend, requests[:WAVE], SHORT_BUDGET_S)
    await asyncio.sleep(PAUSE_S)  # a slow host only lengthens the pause
    tasks += start_wave(frontend, requests[WAVE:], LONG_BUDGET_S)
    await asyncio.sleep(0)  # the second wave submits before aclose()
    await frontend.aclose()  # flushes the queue
    served = shed = expired = 0
    for result in await asyncio.gather(*tasks, return_exceptions=True):
        if isinstance(result, OverloadError):
            shed += 1
        elif isinstance(result, DeadlineExceededError):
            expired += 1
        elif isinstance(result, BaseException):
            raise result  # typed errors only — anything else is a bug
        else:
            served += 1
    stats = frontend.stats
    print(
        f"policy={policy:>12}: {served} served ({stats.deadline_met} on "
        f"time, {stats.deadline_missed} late), {shed} shed, {expired} "
        f"expired (goodput {stats.goodput_rate:.1%}) — "
        f"all {len(tasks)} requests resolved"
    )
    return expired


async def main_async(suite) -> dict[str, int]:
    await healthy_traffic(suite)

    print("\n=== 3. Overload: two waves against a bounded queue ===")
    print(
        f"queue_cap={QUEUE_CAP}, flushed only at close: {WAVE} requests "
        f"with a {SHORT_BUDGET_S * 1e3:.0f} ms budget, a "
        f"{PAUSE_S * 1e3:.0f} ms pause, then {WAVE} with a "
        f"{LONG_BUDGET_S:.0f} s budget:"
    )
    expired = {}
    for policy in ("shed", "shed-expired"):
        expired[policy] = await overloaded_traffic(suite, policy)
    print(
        "shed turns the second wave away at the full queue and serves the\n"
        "first wave's queued requests after their budget is spent;\n"
        "shed-expired evicts those expired entries for fresh arrivals,\n"
        "so every answer it serves is on time."
    )
    return expired


def main() -> None:
    print("=== 1. Train a 2-task suite ===")
    suite = BabiSuite.build(
        SuiteConfig(task_ids=TASKS, n_train=150, n_test=50, epochs=30, seed=7)
    )
    for task in TASKS:
        accuracy = suite.tasks[task].test_accuracy
        print(f"task {task}: test accuracy {accuracy:.3f}")
    expired = asyncio.run(main_async(suite))
    if expired["shed"] or not expired["shed-expired"]:
        sys.exit(
            f"expected expiries under shed-expired only, got {expired}"
        )


if __name__ == "__main__":
    main()
