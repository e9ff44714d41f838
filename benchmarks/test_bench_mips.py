"""Per-query vs batched throughput of every registered MIPS backend.

Runs each backend over an identical 500-query batch (vocabulary-sized
output rows, trained-threshold-style model fitted on synthetic logits)
three ways: the seed per-row Python loop (exact only), a per-query
``search`` loop, and one vectorized ``search_batch`` call. Persists the
table to ``benchmarks/output/mips_backends.txt``. The acceptance floor
is a 5x speedup for the vectorized exact scan over its per-query loop.
"""

import time

import numpy as np

from benchmarks.conftest import persist
from repro.mips import ExactMips, available_backends, build_backend, fit_threshold_model
from repro.utils.tables import TextTable

N_QUERIES = 500
VOCAB = 170  # the suite's shared-vocabulary scale
EMBED = 20
MIN_EXACT_SPEEDUP = 5.0


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_bench_mips_backend_throughput(benchmark, bench_floor):
    rng = np.random.default_rng(17)
    weight = rng.normal(size=(VOCAB, EMBED))
    queries = rng.normal(size=(N_QUERIES, EMBED))
    # Threshold model fitted on the weight's own argmax structure, as
    # Algorithm 1 fits on trained-model logits.
    train = rng.normal(size=(2000, EMBED))
    logits = train @ weight.T
    model = fit_threshold_model(logits, logits.argmax(axis=1))

    table = TextTable(
        [
            "backend",
            "per-query (ms)",
            "batched (ms)",
            "speedup",
            "mean comparisons",
            "early-exit rate",
        ],
        title=(
            f"MIPS backends — {N_QUERIES} queries, |I|={VOCAB}, |E|={EMBED} "
            "(per-query search loop vs vectorized search_batch)"
        ),
    )

    exact_speedup = None
    for name in available_backends():
        engine = build_backend(name, weight, threshold_model=model, seed=0)

        def per_query(engine=engine):
            return [engine.search(q) for q in queries]

        def batched(engine=engine):
            return engine.search_batch(queries)

        reference = per_query()  # warm-up + reference results
        batch_results = batched()
        assert np.array_equal(
            batch_results.labels, [r.label for r in reference]
        ), f"{name}: batch kernel disagrees with per-query loop"

        # Best-of-N on both sides keeps the ratio stable on noisy runners.
        loop_seconds = min(_timed(per_query) for _ in range(3))
        batch_seconds = min(_timed(batched) for _ in range(5))
        speedup = loop_seconds / batch_seconds
        if name == "exact":
            exact_speedup = speedup

        table.add_row(
            [
                name,
                f"{loop_seconds * 1e3:.2f}",
                f"{batch_seconds * 1e3:.2f}",
                f"{speedup:.1f}x",
                f"{batch_results.mean_comparisons:.1f}",
                f"{batch_results.early_exit_rate:.3f}",
            ]
        )

    # The seed implementation for context: the O(V) per-row Python loop
    # the vectorized exact scan replaced.
    exact = ExactMips(weight)
    seed_seconds = min(
        _timed(lambda: [exact._search_loop(q) for q in queries]) for _ in range(3)
    )
    batch_seconds = min(_timed(lambda: exact.search_batch(queries)) for _ in range(5))
    table.add_row(
        [
            "exact python loop (seed)",
            f"{seed_seconds * 1e3:.2f}",
            f"{batch_seconds * 1e3:.2f}",
            f"{seed_seconds / batch_seconds:.1f}x",
            f"{VOCAB}.0",
            "0.000",
        ]
    )

    benchmark(lambda: exact.search_batch(queries))
    persist("mips_backends", table.render())
    assert exact_speedup is not None
    bench_floor(
        exact_speedup >= MIN_EXACT_SPEEDUP,
        f"vectorized exact search_batch only {exact_speedup:.1f}x faster "
        f"than the per-query loop (floor {MIN_EXACT_SPEEDUP}x)",
    )
