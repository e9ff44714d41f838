"""Cross-request story-encoding cache: bit-exactness and bookkeeping.

The cache's whole value proposition is "skip Eqs. 1-2 and nobody can
tell": every label, logit, comparison count and early-exit flag must be
bit-identical whether a story's memory was computed this flush, served
from the cache, or deduped within the flush — across every MIPS
backend. The rest of
the module pins the cache mechanics themselves: LRU order, byte bounds,
within-flush dedupe and the hash-collision guard.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import (
    MemoryCache,
    ModelRouter,
    QueryRequest,
    ServingStats,
    open_predictor,
)


def _suite_requests(suite, tasks=(1, 6)):
    requests = []
    for task in tasks:
        batch = suite.tasks[task].test_batch
        for i in range(len(batch)):
            requests.append(
                QueryRequest(
                    batch.stories[i],
                    batch.questions[i],
                    n_sentences=int(batch.story_lengths[i]),
                    request_id=f"{task}-{i}",
                    task=task,
                )
            )
    return requests


def _serve_twice(artifacts_dir, requests, **kwargs):
    """Serve the same stream twice through one router: pass 1 is the
    cold cache (all misses), pass 2 replays every story (all hits)."""
    with ModelRouter.open(
        artifacts_dir, max_batch=8, start_worker=False, **kwargs
    ) as router:
        passes = []
        for _ in range(2):
            futures = [router.submit(r) for r in requests]
            router.flush()
            passes.append([f.result(timeout=60.0) for f in futures])
        stats = router.stats
    return passes[0], passes[1], stats


def _assert_identical(expected, actual):
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        assert a.label == b.label
        assert a.logit == b.logit  # bitwise float equality, not approx
        assert a.comparisons == b.comparisons
        assert a.early_exit == b.early_exit
        assert a.answer == b.answer
        assert a.request_id == b.request_id


class TestGoldenParityMatrix:
    """cached == uncached, cold and hot, for every MIPS backend."""

    @pytest.mark.parametrize(
        "backend", ["exact", "threshold", "alsh", "clustering"]
    )
    def test_bit_identical_cold_and_hot(self, tiny_suite, artifacts_dir, backend):
        requests = _suite_requests(tiny_suite)
        kwargs = dict(mips_backend=backend, seed=0)
        baseline, replay, _ = _serve_twice(artifacts_dir, requests, **kwargs)
        _assert_identical(baseline, replay)  # sanity: model is deterministic
        cold, hot, stats = _serve_twice(
            artifacts_dir, requests, cache_entries=256, **kwargs
        )
        _assert_identical(baseline, cold)  # miss path == no cache
        _assert_identical(baseline, hot)  # hit path == no cache
        assert stats.cache_misses > 0
        assert stats.cache_hits > 0  # one cache per route: the replay hits

    def test_direct_predictor_replay_hits(self, artifacts_dir):
        """open_predictor(cache_entries=...) alone caches across calls."""
        predictor = open_predictor(artifacts_dir, 1, cache_entries=64)
        plain = open_predictor(artifacts_dir, 1)
        batch = predictor.engine  # noqa: F841  (predictor built)
        from repro.artifacts import load_suite

        test = load_suite(artifacts_dir).tasks[1].test_batch
        requests = [
            QueryRequest(
                test.stories[i],
                test.questions[i],
                n_sentences=int(test.story_lengths[i]),
                request_id=i,
            )
            for i in range(len(test))
        ]
        expected = plain.predict_batch(requests)
        _assert_identical(expected, predictor.predict_batch(requests))
        _assert_identical(expected, predictor.predict_batch(requests))
        stats = predictor.cache.stats
        assert stats.hits > 0 and stats.misses > 0
        assert stats.hit_rate > 0


class TestMemoryCacheMechanics:
    def _story(self, rng, length=4, words=6):
        return rng.integers(1, 50, (length, words)).astype(np.int64)

    def _mem(self, rng, length=4, embed=8):
        return rng.normal(size=(length, embed))

    def test_lru_eviction_order(self):
        rng = np.random.default_rng(0)
        cache = MemoryCache(capacity_entries=2)
        stories = [self._story(rng) for _ in range(3)]
        keys = [MemoryCache.key(s) for s in stories]
        cache.put(keys[0], stories[0], self._mem(rng), self._mem(rng))
        cache.put(keys[1], stories[1], self._mem(rng), self._mem(rng))
        # Touch story 0 so story 1 becomes the LRU entry.
        assert cache.get(keys[0], stories[0]) is not None
        cache.put(keys[2], stories[2], self._mem(rng), self._mem(rng))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get(keys[1], stories[1]) is None  # evicted (LRU)
        assert cache.get(keys[0], stories[0]) is not None  # kept (touched)
        assert cache.get(keys[2], stories[2]) is not None

    def test_capacity_bytes_bound(self):
        rng = np.random.default_rng(1)
        story = self._story(rng)
        mem_a, mem_c = self._mem(rng), self._mem(rng)
        entry_bytes = story.nbytes + mem_a.nbytes + mem_c.nbytes
        cache = MemoryCache(capacity_entries=100, capacity_bytes=2 * entry_bytes)
        for _ in range(5):
            s = self._story(rng)
            cache.put(MemoryCache.key(s), s, self._mem(rng), self._mem(rng))
        assert len(cache) == 2
        assert cache.nbytes <= 2 * entry_bytes
        assert cache.stats.evictions == 3
        # An entry larger than the whole budget is simply not cached.
        wide = self._story(rng, length=40, words=64)
        cache.put(
            MemoryCache.key(wide),
            wide,
            self._mem(rng, length=40, embed=64),
            self._mem(rng, length=40, embed=64),
        )
        assert cache.get(MemoryCache.key(wide), wide) is None

    def test_key_separates_shapes_with_identical_bytes(self):
        flat = np.arange(12, dtype=np.int64)
        assert MemoryCache.key(flat.reshape(2, 6)) != MemoryCache.key(
            flat.reshape(3, 4)
        )

    def test_collision_guard_full_array_equality(self, monkeypatch):
        """Two different stories forced onto one hash key must not serve
        each other's memories — the stored-story equality check catches
        the collision and serves a miss."""
        rng = np.random.default_rng(2)
        cache = MemoryCache(capacity_entries=8)
        story_a, story_b = self._story(rng), self._story(rng)
        mem = self._mem(rng)
        monkeypatch.setattr(
            MemoryCache, "key", staticmethod(lambda story: b"same-key")
        )
        cache.put(MemoryCache.key(story_a), story_a, mem, mem)
        assert cache.get(MemoryCache.key(story_b), story_b) is None
        assert cache.stats.collisions == 1
        hit = cache.get(MemoryCache.key(story_a), story_a)
        assert hit is not None and np.array_equal(hit[0], mem)

    def test_within_flush_dedupe(self, artifacts_dir):
        """Duplicate stories inside one batch encode once: the cache
        records one miss per distinct story plus dedupes for the rest,
        and the duplicate rows answer identically."""
        from repro.artifacts import load_suite

        predictor = open_predictor(artifacts_dir, 1, cache_entries=64)
        test = load_suite(artifacts_dir).tasks[1].test_batch
        base = QueryRequest(
            test.stories[0],
            test.questions[0],
            n_sentences=int(test.story_lengths[0]),
        )
        other = QueryRequest(
            test.stories[1],
            test.questions[1],
            n_sentences=int(test.story_lengths[1]),
        )
        responses = predictor.predict_batch([base, other, base, base])
        stats = predictor.cache.stats
        assert stats.misses == 2  # two distinct stories
        assert stats.dedupes == 2  # the two replayed rows
        assert responses[0].logit == responses[2].logit == responses[3].logit

    def test_entries_own_their_arrays(self, artifacts_dir):
        """Entries must not be views into a flush's batch arrays: a view
        would keep the whole stacked batch alive and count against
        capacity_bytes at only its own size."""
        from repro.artifacts import load_suite

        predictor = open_predictor(artifacts_dir, 1, cache_entries=64)
        test = load_suite(artifacts_dir).tasks[1].test_batch
        requests = [
            QueryRequest(
                test.stories[i],
                test.questions[i],
                n_sentences=int(test.story_lengths[i]),
            )
            for i in range(4)
        ]
        predictor.predict_batch(requests[:1])
        # One flush with a hit (0), misses (1, 2, 3) and a dedupe (2).
        predictor.predict_batch(requests + requests[2:3])
        cache = predictor.cache
        assert (cache.stats.hits, cache.stats.misses, cache.stats.dedupes) == (1, 4, 1)
        entries = list(cache._entries.values())
        assert len(entries) == 4
        for entry in entries:
            for array in (entry.story, entry.mem_a, entry.mem_c):
                assert array.base is None and array.flags.owndata
        assert cache.nbytes == sum(entry.nbytes for entry in entries)

    def test_collision_guard_end_to_end(self, artifacts_dir, monkeypatch):
        """Even with a degenerate (constant) hash the engine still
        answers every request correctly — collisions degrade to
        misses, never to wrong memories."""
        from repro.artifacts import load_suite

        plain = open_predictor(artifacts_dir, 1)
        cached = open_predictor(artifacts_dir, 1, cache_entries=64)
        monkeypatch.setattr(
            MemoryCache, "key", staticmethod(lambda story: b"constant")
        )
        test = load_suite(artifacts_dir).tasks[1].test_batch
        requests = [
            QueryRequest(
                test.stories[i],
                test.questions[i],
                n_sentences=int(test.story_lengths[i]),
                request_id=i,
            )
            for i in range(6)
        ]
        expected = plain.predict_batch(requests)
        _assert_identical(expected, cached.predict_batch(requests))
        _assert_identical(expected, cached.predict_batch(requests))
        assert cached.cache.stats.collisions > 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity_entries"):
            MemoryCache(capacity_entries=0)
        with pytest.raises(ValueError, match="capacity_bytes"):
            MemoryCache(capacity_bytes=0)

    def test_hw_device_rejects_cache(self, artifacts_dir):
        with pytest.raises(ValueError, match="cache_entries"):
            open_predictor(artifacts_dir, 1, device="hw", cache_entries=8)


class TestServingStatsReservoir:
    def test_bounded_growth_exact_aggregates(self):
        stats = ServingStats()
        n = 3 * ServingStats.RESERVOIR_CAPACITY
        stats.record_latencies(float(i) for i in range(n))
        assert len(stats.latencies_s) == ServingStats.RESERVOIR_CAPACITY
        assert stats.latency_count == n  # exact count survives sampling
        assert stats.mean_latency_s == pytest.approx((n - 1) / 2)  # exact sum
        assert stats.max_latency_s == float(n - 1)  # exact max
        for _ in range(n):
            stats.record_flush(8)
        assert len(stats.batch_sizes) == ServingStats.RESERVOIR_CAPACITY
        assert stats.requests == 8 * n
        assert stats.mean_batch_size == 8.0

    def test_percentiles_exact_below_capacity(self):
        stats = ServingStats()
        stats.record_latencies([0.001 * i for i in range(1, 101)])
        assert stats.p50_latency_s == pytest.approx(0.0505)
        assert stats.p95_latency_s == pytest.approx(0.09505)
        assert stats.p99_latency_s == pytest.approx(0.09901)
        empty = ServingStats()
        assert empty.p50_latency_s == empty.p99_latency_s == 0.0

    def test_small_series_remain_exact_lists(self):
        """Below the reservoir capacity the series are the full data —
        the compatibility contract existing tests rely on."""
        stats = ServingStats()
        stats.record_flush(4)
        stats.record_latencies([0.25, 0.5])
        assert stats.batch_sizes == [4]
        assert stats.latencies_s == [0.25, 0.5]

    def test_cache_counter_mirror(self):
        stats = ServingStats()
        assert stats.cache_hit_rate == 0.0
        stats.set_cache_counters(30, 10, 2)
        assert stats.cache_lookups == 40
        assert stats.cache_hit_rate == pytest.approx(0.75)
        assert stats.cache_evictions == 2
