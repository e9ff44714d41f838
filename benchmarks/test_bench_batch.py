"""Batch-vs-loop wall time of host-side inference on 500 bAbI examples.

Compares one :class:`BatchInferenceEngine` call over the whole batch
against a per-example ``forward_trace`` loop, which runs the same
kernels one row per call, on an identical 500-example task-1 batch, and
persists the measured speedup: the per-call cost that batching
amortises. The acceptance floor is 5x.
"""

import time

import numpy as np

from benchmarks.conftest import persist
from repro.babi import generate_task_dataset
from repro.mann import BatchInferenceEngine, InferenceEngine, MemoryNetwork
from repro.mann.config import MannConfig
from repro.utils.tables import TextTable

N_EXAMPLES = 500
MIN_SPEEDUP = 5.0


def _loop_predict(engine: InferenceEngine, batch) -> np.ndarray:
    """One forward_trace, a one-row batch, per example."""
    preds = np.zeros(len(batch), dtype=np.int64)
    for i in range(len(batch)):
        preds[i] = engine.forward_trace(
            batch.stories[i], batch.questions[i], int(batch.story_lengths[i])
        ).prediction
    return preds


def test_bench_batch_speedup(benchmark, bench_floor):
    train, _ = generate_task_dataset(
        task_id=1, n_train=N_EXAMPLES, n_test=10, seed=21
    )
    batch = train.encode()
    # Timing is weight-independent; an untrained snapshot keeps the
    # bench self-contained (no session-scoped suite training needed).
    config = MannConfig(
        vocab_size=train.vocab_size,
        embed_dim=20,
        memory_size=train.memory_size,
        seed=5,
    )
    weights = MemoryNetwork(config).export_weights()
    engine = InferenceEngine(weights)
    batch_engine = BatchInferenceEngine(weights)

    loop_preds = _loop_predict(engine, batch)  # warm-up + reference
    # Best-of-N on both sides keeps the ratio stable on noisy runners.
    loop_seconds = min(
        _timed(lambda: _loop_predict(engine, batch)) for _ in range(3)
    )

    def batched():
        return batch_engine.predict(
            batch.stories, batch.questions, batch.story_lengths
        )

    batch_preds = benchmark(batched)
    batch_seconds = min(_timed(batched) for _ in range(5))

    assert np.array_equal(batch_preds, loop_preds)
    speedup = loop_seconds / batch_seconds

    table = TextTable(
        ["path", "wall time (ms)", "per example (us)", "speedup"],
        title=f"Batch vs per-example inference — {len(batch)} bAbI examples",
    )
    table.add_row(
        [
            "per-example forward_trace loop (one row per call)",
            f"{loop_seconds * 1e3:.2f}",
            f"{loop_seconds / len(batch) * 1e6:.1f}",
            "1.0x",
        ]
    )
    table.add_row(
        [
            "BatchInferenceEngine.predict",
            f"{batch_seconds * 1e3:.2f}",
            f"{batch_seconds / len(batch) * 1e6:.1f}",
            f"{speedup:.1f}x",
        ]
    )
    persist("batch_speedup", table.render())
    bench_floor(
        speedup >= MIN_SPEEDUP,
        f"batch path only {speedup:.1f}x faster than the per-example loop",
    )


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
