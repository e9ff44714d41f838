#!/usr/bin/env python3
"""Async SLO-aware serving: deadlines, admission control, load shedding.

The serving front door this repo grew in PR 8, end to end:
1. train a small 2-task suite and open the full async stack over it —
   ``AsyncFrontend`` over ``ModelRouter`` over ``BatchScheduler`` —
   with a bounded pending queue,
2. ``await`` queries with per-request SLO deadlines: the scheduler's
   deadline thread flushes *early* when the predicted flush time
   (the p95 of recorded flush times) would eat a request's remaining
   slack,
3. overload the bounded queue open-loop and watch the three admission
   policies differ: ``block`` (async backpressure), ``shed`` (typed
   ``OverloadError`` at the door), ``shed-expired`` (past-deadline
   queue entries resolve with ``DeadlineExceededError``),
4. read the goodput story from ``ServingStats``: served / shed /
   expired / deadline-met counts — every request accounted for,
   no future ever stranded.

Run with: PYTHONPATH=src python examples/async_serving.py
"""

import asyncio
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


def build_requests(suite, deadline_s=None):
    requests = []
    for i in range(N_REQUESTS):
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
                deadline_s=deadline_s,
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


async def overloaded_traffic(suite, policy: str) -> None:
    router = ModelRouter.open(
        suite,
        max_batch=16,
        max_wait_s=0.001,
        queue_cap=8,
        overload_policy=policy,
        inline_flush=False,
    )
    served = shed = expired = 0
    async with AsyncFrontend(router) as frontend:
        results = await frontend.query_many(
            build_requests(suite, deadline_s=0.05),
            return_exceptions=True,
        )
        for result in results:
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
        f"policy={policy:>12}: {served} served, {shed} shed, "
        f"{expired} expired (goodput {stats.goodput_rate:.1%}) — "
        f"all {len(results)} requests resolved"
    )


async def main_async(suite) -> None:
    await healthy_traffic(suite)

    print("\n=== 3. Overload: a bounded queue under a request storm ===")
    print(f"queue_cap=8, {N_REQUESTS} requests submitted at once:")
    for policy in ("block", "shed", "shed-expired"):
        await overloaded_traffic(suite, policy)
    print(
        "block trades latency for completeness; shed keeps admitted\n"
        "latency bounded by rejecting at the door; shed-expired also\n"
        "refuses to burn batch capacity on answers already past due."
    )


def main() -> None:
    print("=== 1. Train a 2-task suite ===")
    suite = BabiSuite.build(
        SuiteConfig(task_ids=TASKS, n_train=150, n_test=50, epochs=30, seed=7)
    )
    for task in TASKS:
        accuracy = suite.tasks[task].test_accuracy
        print(f"task {task}: test accuracy {accuracy:.3f}")
    asyncio.run(main_async(suite))


if __name__ == "__main__":
    main()
