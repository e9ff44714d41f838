"""Hit-rate vs throughput of the cross-request story-encoding cache.

The cache's bet: production QA traffic replays the same story with many
different questions (zipf-skewed popularity, the "millions of users"
shape), and the memory-write phase (Eqs. 1-2) — the dominant
per-request cost at production model shapes — depends only on the
story. This benchmark drives a zipf ladder (s in {0, 0.9, 1.2}) of
story popularity through the scheduler twice per rung, cache off and
cache on, asserting bit-identical answers, and persists

* ``benchmarks/output/caching.txt`` — the human-readable ladder, and
* the ``serving_caching`` summary in
  ``benchmarks/output/BENCH_serving.json`` (hit rate, p50/p95/p99,
  speedup per rung) that CI archives.

The model is a *production-shaped* synthetic MANN (vocab 400, embed 64,
32 memory slots — think full-vocabulary deployment, not the 4-rung
bAbI toy shapes) built directly from random weights: the cache skips
compute, so what matters is the arithmetic shape, not trained
accuracy. The story pool (384) deliberately exceeds the cache capacity
(96): at s=0 the uniform mix thrashes the LRU and the honest low hit
rate is recorded; at s=1.2 the hot head stays resident and the write
phase all but disappears. Both sides write with the same bounded-chunk
kernel (the uncached one over every padded slot, cache misses over
real sentences only), so the margin is the skipped compute alone:
1.42-1.51x at s=1.2 on a 2-vCPU host, floor 1.2x under
``--bench-floors``. Single-core safe: the win is eliminated compute,
not parallelism.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import persist, persist_bench_summary

from repro.mann.batch import BatchInferenceEngine
from repro.mann.config import MannConfig
from repro.mann.weights import MannWeights
from repro.serving import BatchScheduler, MemoryCache, QueryRequest
from repro.serving.predictor import SoftwarePredictor
from repro.utils.tables import TextTable

VOCAB = 400
EMBED = 64
MEMORY = 32
WORDS = 10
N_REQUESTS = 768
MAX_BATCH = 128
STORY_POOL = 384
CACHE_ENTRIES = 96
ZIPF_LADDER = (0.0, 0.9, 1.2)
REPEATS = 3
#: At high skew the cached scheduler must beat the identical uncached
#: run by this much (measured 1.42-1.51x; enforced under --bench-floors).
MIN_CACHED_SPEEDUP_HIGH_SKEW = 1.2
HIGH_SKEW = 1.2


def _production_weights() -> MannWeights:
    rng = np.random.default_rng(11)
    config = MannConfig(
        vocab_size=VOCAB, embed_dim=EMBED, memory_size=MEMORY, hops=3
    )

    def w(*shape):
        return rng.normal(0.0, 0.1, shape)

    return MannWeights(
        config,
        w(VOCAB, EMBED),
        w(VOCAB, EMBED),
        w(VOCAB, EMBED),
        w(EMBED, EMBED),
        w(VOCAB, EMBED),
        w(MEMORY, EMBED),
        w(MEMORY, EMBED),
    )


def _story_pool(rng) -> list[tuple[np.ndarray, int]]:
    pool = []
    for _ in range(STORY_POOL):
        length = int(rng.integers(MEMORY // 2, MEMORY + 1))
        story = np.zeros((MEMORY, WORDS), dtype=np.int64)
        story[:length] = rng.integers(1, VOCAB, (length, WORDS))
        pool.append((story, length))
    return pool


def _zipf_requests(pool, s: float, seed: int) -> list[QueryRequest]:
    """Story popularity ~ rank^-s over the pool; questions independent
    (same story, different question — the case the cache exists for)."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
    weights = ranks**-s
    weights /= weights.sum()
    choices = rng.choice(len(pool), size=N_REQUESTS, p=weights)
    return [
        QueryRequest(
            pool[c][0],
            rng.integers(1, VOCAB, WORDS).astype(np.int64),
            n_sentences=pool[c][1],
            request_id=i,
        )
        for i, c in enumerate(choices)
    ]


def _timed_pass(predictor, requests):
    """One scheduler pass over the stream; returns (seconds, labels,
    logits, scheduler stats)."""
    scheduler = BatchScheduler(
        predictor, max_batch=MAX_BATCH, start_worker=False
    )
    start = time.perf_counter()
    futures = [scheduler.submit(r) for r in requests]
    scheduler.flush()
    responses = [f.result() for f in futures]
    seconds = time.perf_counter() - start
    scheduler.close()
    labels = [r.label for r in responses]
    logits = [r.logit for r in responses]
    return seconds, labels, logits, scheduler.stats


def _bench_config(engine, requests):
    """Warm-up pass (BLAS buffers; cold-cache fill for cached engines)
    then best-of-REPEATS steady-state timing through one predictor."""
    predictor = SoftwarePredictor(engine)
    _timed_pass(predictor, requests)  # warm-up, untimed
    cache = engine.memory_cache
    warm = cache.counters() if cache is not None else None
    best = None
    for _ in range(REPEATS):
        seconds, labels, logits, stats = _timed_pass(predictor, requests)
        if best is not None:
            assert labels == best[1], "nondeterministic serving answers"
            assert logits == best[2], "nondeterministic serving logits"
        if best is None or seconds < best[0]:
            best = (seconds, labels, logits, stats)
    hit_rate = None
    if cache is not None:
        # Steady-state hit rate: the timed passes only (cold fill
        # happened in the warm-up pass).
        hits, misses, _ = (
            after - before for before, after in zip(warm, cache.counters())
        )
        hit_rate = hits / (hits + misses) if hits + misses else 0.0
    return best, hit_rate


def test_bench_zipf_cache_ladder(bench_floor):
    weights = _production_weights()
    pool = _story_pool(np.random.default_rng(5))

    table = TextTable(
        [
            "zipf s",
            "cache",
            "requests/s",
            "hit rate",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "speedup",
        ],
        title=(
            f"Story-encoding cache — vocab {VOCAB}, embed {EMBED}, "
            f"{MEMORY} slots, {N_REQUESTS} requests, pool {STORY_POOL} "
            f"stories, cache {CACHE_ENTRIES} entries, "
            f"max_batch={MAX_BATCH}, exact backend"
        ),
    )
    rows = []
    speedup_at = {}
    for s in ZIPF_LADDER:
        requests = _zipf_requests(pool, s, seed=int(s * 10) + 1)
        (off_seconds, off_labels, off_logits, off_stats), _ = _bench_config(
            BatchInferenceEngine(weights, "exact"), requests
        )
        (on_seconds, on_labels, on_logits, on_stats), hit_rate = _bench_config(
            BatchInferenceEngine(
                weights,
                "exact",
                memory_cache=MemoryCache(capacity_entries=CACHE_ENTRIES),
            ),
            requests,
        )
        # The correctness bar: the cache may only remove compute.
        assert on_labels == off_labels, f"s={s}: cache changed a label"
        assert on_logits == off_logits, f"s={s}: cache changed a logit"
        speedup = off_seconds / on_seconds
        speedup_at[s] = speedup
        for name, seconds, stats, rate, rel in (
            ("off", off_seconds, off_stats, None, 1.0),
            ("on", on_seconds, on_stats, hit_rate, speedup),
        ):
            rows.append(
                {
                    "zipf_s": s,
                    "cache": name,
                    "cache_entries": CACHE_ENTRIES if name == "on" else 0,
                    "requests_per_s": round(N_REQUESTS / seconds, 1),
                    "hit_rate": round(rate, 4) if rate is not None else None,
                    "mean_batch": round(stats.mean_batch_size, 2),
                    "p50_latency_ms": round(stats.p50_latency_s * 1e3, 3),
                    "p95_latency_ms": round(stats.p95_latency_s * 1e3, 3),
                    "p99_latency_ms": round(stats.p99_latency_s * 1e3, 3),
                    "speedup_vs_uncached": round(rel, 3),
                }
            )
            table.add_row(
                [
                    f"{s:.1f}",
                    name,
                    f"{N_REQUESTS / seconds:,.0f}",
                    f"{rate:.1%}" if rate is not None else "-",
                    f"{stats.p50_latency_s * 1e3:.2f}",
                    f"{stats.p95_latency_s * 1e3:.2f}",
                    f"{stats.p99_latency_s * 1e3:.2f}",
                    f"{rel:.2f}x",
                ]
            )

    summary = {
        "benchmark": "serving_caching",
        "model_shape": {
            "vocab": VOCAB,
            "embed": EMBED,
            "memory": MEMORY,
            "words": WORDS,
        },
        "n_requests": N_REQUESTS,
        "story_pool": STORY_POOL,
        "cache_entries": CACHE_ENTRIES,
        "max_batch": MAX_BATCH,
        "zipf_ladder": list(ZIPF_LADDER),
        "speedup_at_high_skew": round(speedup_at[HIGH_SKEW], 3),
        "min_speedup_floor": MIN_CACHED_SPEEDUP_HIGH_SKEW,
        "rows": rows,
    }
    persist_bench_summary("serving_caching", summary)

    persist(
        "caching",
        table.render()
        + "\n"
        + "\n".join(
            f"zipf s={s:.1f}: cached vs uncached {speedup_at[s]:.2f}x"
            for s in ZIPF_LADDER
        )
        + f"\nfloor at s={HIGH_SKEW}: {MIN_CACHED_SPEEDUP_HIGH_SKEW}x "
        "(single-core safe: the win is skipped compute, not parallelism)",
    )

    bench_floor(
        speedup_at[HIGH_SKEW] >= MIN_CACHED_SPEEDUP_HIGH_SKEW,
        f"cached scheduler only {speedup_at[HIGH_SKEW]:.2f}x over uncached "
        f"at zipf s={HIGH_SKEW} (floor {MIN_CACHED_SPEEDUP_HIGH_SKEW}x)",
    )
