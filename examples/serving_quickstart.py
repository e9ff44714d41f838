#!/usr/bin/env python3
"""Serving quickstart: train once, persist, serve micro-batched queries.

The deployment loop the serving API is built around, in four steps:
1. train a small 2-task suite and save it with ``save_suite`` (this is
   the programmatic twin of ``python -m repro train --save DIR``),
2. reload the artifacts — bit-exact, no retraining — with
   ``load_suite``,
3. open a unified ``Predictor`` over the artifacts for both the
   vectorised software engine and the accelerator co-simulation,
4. serve individually submitted requests through the micro-batching
   ``BatchScheduler`` and print its throughput statistics.

Run with: PYTHONPATH=src python examples/serving_quickstart.py
"""

import tempfile
import time

from repro.artifacts import load_suite, save_suite, verify_artifacts
from repro.eval.suite import BabiSuite, SuiteConfig
from repro.serving import BatchScheduler, QueryRequest, open_predictor

TASK_ID = 1


def main() -> None:
    print("=== 1. Train a 2-task suite and persist it ===")
    suite = BabiSuite.build(
        SuiteConfig(task_ids=(1, 6), n_train=150, n_test=50, epochs=30, seed=7)
    )
    artifacts = tempfile.mkdtemp(prefix="mann-artifacts-")
    save_suite(suite, artifacts)
    print(f"saved tasks {suite.task_ids} to {artifacts}")

    print("\n=== 2. Reload (bit-exact, no retraining) ===")
    verify_artifacts(artifacts)  # recomputes predictions, asserts equality
    served = load_suite(artifacts)
    print(f"restored mean test accuracy: {served.mean_test_accuracy():.3f}")

    print("\n=== 3. One Predictor facade, two devices ===")
    batch = served.tasks[TASK_ID].test_batch
    request = QueryRequest(
        batch.stories[0], batch.questions[0], int(batch.story_lengths[0])
    )
    sw = open_predictor(artifacts, TASK_ID, mips_backend="threshold", rho=1.0)
    hw = open_predictor(
        artifacts, TASK_ID, device="hw", mips_backend="threshold", rho=1.0
    )
    for predictor in (sw, hw):
        response = predictor.predict(request)
        print(
            f"device={predictor.device}: answer={response.answer!r} "
            f"comparisons={response.comparisons} early_exit={response.early_exit}"
        )

    print("\n=== 4. Micro-batched serving (with the story cache) ===")
    # 256 requests over 50 test stories: every story replays ~5x, so
    # the cross-request story-encoding cache skips most memory writes.
    cached = open_predictor(
        artifacts, TASK_ID, mips_backend="threshold", rho=1.0,
        cache_entries=128,
    )
    requests = [
        QueryRequest(
            batch.stories[i % len(batch)],
            batch.questions[i % len(batch)],
            int(batch.story_lengths[i % len(batch)]),
            request_id=i,
        )
        for i in range(256)
    ]
    start = time.perf_counter()
    with BatchScheduler(cached, max_batch=32, max_wait_s=0.005) as scheduler:
        futures = [scheduler.submit(r) for r in requests]
        responses = [f.result() for f in futures]
    elapsed = time.perf_counter() - start
    correct = sum(
        r.label == int(batch.answers[r.request_id % len(batch)]) for r in responses
    )
    stats = scheduler.stats
    print(
        f"{len(requests)} requests in {elapsed * 1e3:.1f} ms "
        f"({len(requests) / elapsed:,.0f} req/s), accuracy {correct / len(requests):.3f}"
    )
    print(
        f"flushes={stats.flushes} mean_batch={stats.mean_batch_size:.1f} "
        f"p50={stats.p50_latency_s * 1e3:.2f} ms "
        f"p95={stats.p95_latency_s * 1e3:.2f} ms "
        f"p99={stats.p99_latency_s * 1e3:.2f} ms"
    )
    cache = cached.cache.stats
    print(
        f"story cache: hit rate {cache.hit_rate:.1%} "
        f"({cache.hits} hits / {cache.misses} misses)"
    )


if __name__ == "__main__":
    main()
