"""Hit-rate vs throughput of the cross-request story-encoding cache.

The cache's bet: production QA traffic replays the same story with many
different questions (zipf-skewed popularity, the "millions of users"
shape), and the memory-write phase (Eqs. 1-2) — the dominant
per-request cost at production model shapes — depends only on the
story. This benchmark drives a zipf ladder (s in {0, 0.9, 1.2}) of
story popularity through the scheduler, cache off and cache on,
asserting bit-identical answers. Each rung times ``PAIRS`` uncached/
cached pairs of passes, the side that runs first flipping each pair,
and reports the median pair ratio with its range: one ~50 ms pass on a
shared host swings by more than the margin. It persists

* ``benchmarks/output/caching.txt`` — the human-readable ladder, and
* the ``serving_caching`` summary in
  ``benchmarks/output/BENCH_serving.json`` (hit rate, p50/p95/p99,
  median speedup and range per rung) that CI archives.

The model is a *production-shaped* synthetic MANN (vocab 400, embed 64,
32 memory slots — think full-vocabulary deployment, not the 4-rung
bAbI toy shapes) built directly from random weights: the cache skips
compute, so what matters is the arithmetic shape, not trained
accuracy. The story pool (384) deliberately exceeds the cache capacity
(96): at s=0 the uniform mix thrashes the LRU and the honest low hit
rate is recorded; at s=1.2 the hot head stays resident and the write
phase all but disappears. Both sides embed only real sentences with the
same bounded-chunk kernel, so the margin is the skipped compute less
the cache's own bookkeeping: at s=1.2 the median pair read 1.55-1.77x
over six ladder runs on a 2-vCPU host, floor 1.2x on the median under
``--bench-floors``. Single-core safe: the win is eliminated compute,
not parallelism.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import persist, persist_bench_summary, production_weights

from repro.mann.batch import BatchInferenceEngine
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
#: Timed uncached/cached pairs per rung. Odd, so the median ratio is
#: one pair's: a single pass is a ~50 ms window on a shared host.
PAIRS = 9
#: At high skew the median pair must show the cached scheduler beating
#: the uncached one by this much (enforced under --bench-floors).
MIN_CACHED_SPEEDUP_HIGH_SKEW = 1.2
HIGH_SKEW = 1.2


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


def _rung(weights, requests):
    """Time one rung as ``PAIRS`` uncached/cached pairs of passes, the
    side that runs first flipping each pair, after one untimed warm-up
    pass per side (BLAS buffers; the cold-cache fill). Returns each
    side's ``(seconds per pass, stats of its median pass)``, each pair's
    uncached/cached ratio and the steady-state hit rate."""
    sides = {
        "off": SoftwarePredictor(BatchInferenceEngine(weights, "exact")),
        "on": SoftwarePredictor(
            BatchInferenceEngine(
                weights,
                "exact",
                memory_cache=MemoryCache(capacity_entries=CACHE_ENTRIES),
            )
        ),
    }
    answers = {
        name: _timed_pass(predictor, requests)[1:3]
        for name, predictor in sides.items()
    }
    # The correctness bar: the cache may only remove compute.
    assert answers["on"] == answers["off"], "the cache changed an answer"
    cache = sides["on"].engine.memory_cache.stats
    warm_hits, warm_misses = cache.hits, cache.misses
    passes = {"off": [], "on": []}
    for pair in range(PAIRS):
        for name in ("off", "on") if pair % 2 == 0 else ("on", "off"):
            seconds, labels, logits, stats = _timed_pass(sides[name], requests)
            assert (labels, logits) == answers[name], "nondeterministic answers"
            passes[name].append((seconds, stats))
    hits, misses = cache.hits - warm_hits, cache.misses - warm_misses
    ratios = [
        off[0] / on[0] for off, on in zip(passes["off"], passes["on"])
    ]
    timings = {
        name: (
            [seconds for seconds, _ in runs],
            sorted(runs, key=lambda run: run[0])[PAIRS // 2][1],
        )
        for name, runs in passes.items()
    }
    return timings, ratios, hits / (hits + misses)


def test_bench_zipf_cache_ladder(bench_floor):
    weights = production_weights(VOCAB, EMBED, MEMORY)
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
            "range",
        ],
        title=(
            f"Story-encoding cache — vocab {VOCAB}, embed {EMBED}, "
            f"{MEMORY} slots, {N_REQUESTS} requests, pool {STORY_POOL} "
            f"stories, cache {CACHE_ENTRIES} entries, "
            f"max_batch={MAX_BATCH}, exact backend; medians of {PAIRS} "
            "alternating pairs, speedup = uncached/cached time per pair"
        ),
    )
    rows = []
    speedup_at = {}
    for s in ZIPF_LADDER:
        requests = _zipf_requests(pool, s, seed=int(s * 10) + 1)
        timings, ratios, hit_rate = _rung(weights, requests)
        speedup = float(np.median(ratios))
        speedup_at[s] = (speedup, min(ratios), max(ratios))
        for name, rate, (rel, low, high) in (
            ("off", None, (1.0, None, None)),
            ("on", hit_rate, speedup_at[s]),
        ):
            seconds, stats = timings[name]
            rps = N_REQUESTS / float(np.median(seconds))
            rows.append(
                {
                    "zipf_s": s,
                    "cache": name,
                    "cache_entries": CACHE_ENTRIES if name == "on" else 0,
                    "requests_per_s": round(rps, 1),
                    "requests_per_s_range": [
                        round(N_REQUESTS / max(seconds), 1),
                        round(N_REQUESTS / min(seconds), 1),
                    ],
                    "hit_rate": round(rate, 4) if rate is not None else None,
                    "mean_batch": round(stats.mean_batch_size, 2),
                    "p50_latency_ms": round(stats.p50_latency_s * 1e3, 3),
                    "p95_latency_ms": round(stats.p95_latency_s * 1e3, 3),
                    "p99_latency_ms": round(stats.p99_latency_s * 1e3, 3),
                    "speedup_vs_uncached": round(rel, 3),
                    "speedup_range": (
                        [round(low, 3), round(high, 3)] if low is not None else None
                    ),
                }
            )
            table.add_row(
                [
                    f"{s:.1f}",
                    name,
                    f"{rps:,.0f}",
                    f"{rate:.1%}" if rate is not None else "-",
                    f"{stats.p50_latency_s * 1e3:.2f}",
                    f"{stats.p95_latency_s * 1e3:.2f}",
                    f"{stats.p99_latency_s * 1e3:.2f}",
                    f"{rel:.2f}x",
                    f"{low:.2f}-{high:.2f}x" if low is not None else "-",
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
        "pairs": PAIRS,
        "speedup_at_high_skew": round(speedup_at[HIGH_SKEW][0], 3),
        "speedup_range_at_high_skew": [
            round(speedup_at[HIGH_SKEW][1], 3),
            round(speedup_at[HIGH_SKEW][2], 3),
        ],
        "min_speedup_floor": MIN_CACHED_SPEEDUP_HIGH_SKEW,
        "rows": rows,
    }
    persist_bench_summary("serving_caching", summary)

    persist(
        "caching",
        table.render()
        + "\n"
        + "\n".join(
            f"zipf s={s:.1f}: cached vs uncached median {med:.2f}x "
            f"(range {low:.2f}-{high:.2f}x over {PAIRS} pairs)"
            for s, (med, low, high) in speedup_at.items()
        )
        + f"\nfloor on the median at s={HIGH_SKEW}: "
        f"{MIN_CACHED_SPEEDUP_HIGH_SKEW}x "
        "(single-core safe: the win is skipped compute, not parallelism)",
    )

    median = speedup_at[HIGH_SKEW][0]
    bench_floor(
        median >= MIN_CACHED_SPEEDUP_HIGH_SKEW,
        f"cached scheduler only {median:.2f}x over uncached (median of "
        f"{PAIRS} pairs) at zipf s={HIGH_SKEW} "
        f"(floor {MIN_CACHED_SPEEDUP_HIGH_SKEW}x)",
    )
