"""Cross-request story-encoding cache: bit-exactness and bookkeeping.

The cache's whole value proposition is "skip Eqs. 1-2 and nobody can
tell": every label, logit, comparison count and early-exit flag must be
bit-identical whether a story's memory was computed this flush, served
from the cache, or deduped within the flush — across every MIPS
backend. The rest of
the module pins the cache mechanics themselves: LRU order, within-flush
dedupe and exact story keys.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mann import BatchInferenceEngine, MannConfig, MannWeights
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
    cold cache (all misses), pass 2 replays every story (all hits).
    Also returns each route's story cache (None when caching is off)."""
    with ModelRouter.open(
        artifacts_dir, max_batch=8, start_worker=False, **kwargs
    ) as router:
        passes = []
        for _ in range(2):
            futures = [router.submit(r) for r in requests]
            router.flush()
            passes.append([f.result(timeout=60.0) for f in futures])
        caches = [router.predictor(task).cache for task in router.tasks]
    return passes[0], passes[1], caches


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
        cold, hot, caches = _serve_twice(
            artifacts_dir, requests, cache_entries=256, **kwargs
        )
        _assert_identical(baseline, cold)  # miss path == no cache
        _assert_identical(baseline, hot)  # hit path == no cache
        for cache in caches:
            assert cache.stats.misses > 0
            assert cache.stats.hits > 0  # one cache per route: the replay hits

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
        keys = [MemoryCache.key(self._story(rng)) for _ in range(3)]
        cache.put(keys[0], self._mem(rng), self._mem(rng))
        cache.put(keys[1], self._mem(rng), self._mem(rng))
        # Touch story 0 so story 1 becomes the LRU entry.
        assert cache.get(keys[0]) is not None
        cache.put(keys[2], self._mem(rng), self._mem(rng))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get(keys[1]) is None  # evicted (LRU)
        assert cache.get(keys[0]) is not None  # kept (touched)
        assert cache.get(keys[2]) is not None

    def test_key_separates_shapes_with_identical_bytes(self):
        flat = np.arange(12, dtype=np.int64)
        assert MemoryCache.key(flat.reshape(2, 6)) != MemoryCache.key(
            flat.reshape(3, 4)
        )
        # Tokens are keyed as int64 whatever dtype they arrive in.
        assert MemoryCache.key(flat.reshape(3, 4).astype(np.int32)) == (
            MemoryCache.key(flat.reshape(3, 4))
        )

    def test_collision_guard_full_array_equality(self):
        """The key is the whole story, so a hit needs full-array
        equality: a one-token variant, the story's own prefix and its
        flat tokens at another width each miss, while an equal story in
        a fresh array hits and gets the stored rows."""
        rng = np.random.default_rng(2)
        cache = MemoryCache(capacity_entries=8)
        story = self._story(rng)
        mem_a, mem_c = self._mem(rng), self._mem(rng)
        cache.put(MemoryCache.key(story), mem_a, mem_c)
        one_token = story.copy()
        one_token[-1, -1] += 1
        for other in (one_token, story[:-1], story.reshape(6, 4)):
            assert cache.get(MemoryCache.key(other)) is None
        assert cache.stats.misses == 3
        hit = cache.get(MemoryCache.key(story.copy()))
        assert hit is not None
        assert np.array_equal(hit[0], mem_a) and np.array_equal(hit[1], mem_c)
        assert cache.stats.hits == 1

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
        would keep the whole stacked batch alive with the entry."""
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
        for mem_a, mem_c in entries:
            for array in (mem_a, mem_c):
                assert array.base is None and array.flags.owndata

    def test_collision_guard_end_to_end(self, artifacts_dir):
        """Near-identical stories never share an entry: a story, two of
        its prefixes and a one-word variant each miss once and hit on
        replay, and every answer equals the uncached predictor's."""
        from repro.artifacts import load_suite

        plain = open_predictor(artifacts_dir, 1)
        cached = open_predictor(artifacts_dir, 1, cache_entries=64)
        test = load_suite(artifacts_dir).tasks[1].test_batch
        story, n = test.stories[0], int(test.story_lengths[0])
        variant = story.copy()
        # Swap the last sentence's last word for another of the story's.
        variant[n - 1, -1] = next(
            word for word in story[:n, -1] if word != story[n - 1, -1]
        )
        requests = [
            QueryRequest(tokens, test.questions[0], n_sentences=k, request_id=i)
            for i, (tokens, k) in enumerate(
                [(story, n), (story, n - 1), (story, n - 2), (variant, n)]
            )
        ]
        expected = plain.predict_batch(requests)
        _assert_identical(expected, cached.predict_batch(requests))
        stats = cached.cache.stats
        assert (stats.hits, stats.misses, stats.dedupes) == (0, 4, 0)
        _assert_identical(expected, cached.predict_batch(requests))
        assert (stats.hits, stats.misses, stats.dedupes) == (4, 4, 0)

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity_entries"):
            MemoryCache(capacity_entries=0)

    def test_hw_device_rejects_cache(self, artifacts_dir):
        with pytest.raises(ValueError, match="cache_entries"):
            open_predictor(artifacts_dir, 1, device="hw", cache_entries=8)


BANK_VOCAB, BANK_SLOTS, BANK_WIDTHS, BANK_RANDOM = 11, 6, (4, 6), 5


def _bank_weights() -> MannWeights:
    rng = np.random.default_rng(3)
    v, e, l = BANK_VOCAB, 5, BANK_SLOTS
    config = MannConfig(vocab_size=v, embed_dim=e, memory_size=l)

    def m(*shape):
        return rng.normal(size=shape)

    return MannWeights(
        config, m(v, e), m(v, e), m(v, e), m(e, e), m(v, e), m(l, e), m(l, e)
    )


def _story_bank() -> dict[int, list[tuple[np.ndarray, int]]]:
    """``(padded tokens, length)`` stories per sentence width. At both
    widths: a story with the same flat tokens as its twin at the other
    width (3 x 4 and 2 x 6), a story and its own prefix, then random
    stories with pad words, more of them than any tested capacity."""
    rng = np.random.default_rng(4)
    flat = rng.integers(1, BANK_VOCAB, 12)
    bank = {}
    for width in BANK_WIDTHS:
        twin = np.zeros((BANK_SLOTS, width), dtype=np.int64)
        twin.flat[:12] = flat
        full = np.zeros((BANK_SLOTS, width), dtype=np.int64)
        full[:4] = rng.integers(1, BANK_VOCAB, (4, width))
        stories = [(twin, 12 // width), (full, 4), (full, 3)]
        for _ in range(BANK_RANDOM):
            n = int(rng.integers(1, BANK_SLOTS + 1))
            story = np.zeros((BANK_SLOTS, width), dtype=np.int64)
            story[:n] = rng.integers(0, BANK_VOCAB, (n, width))
            stories.append((story, n))
        bank[width] = stories
    return bank


BANK = _story_bank()
FLUSH = st.tuples(
    st.sampled_from(BANK_WIDTHS),
    st.integers(0, BANK_SLOTS),  # extra slot padding past the longest story
    st.lists(st.integers(0, 2 + BANK_RANDOM), min_size=1, max_size=10),
)


@settings(max_examples=60, deadline=None)
@given(capacity=st.integers(1, 4), flushes=st.lists(FLUSH, min_size=1, max_size=8))
@example(
    capacity=2,
    flushes=[
        (4, 0, [1, 2, 1, 1, 0]),  # a story beside its prefix, in-flush dupes
        (6, 2, [0, 3]),  # the width-6 twin of width-4 story 0
        (4, 6, [0, 1, 4, 5, 6, 7]),  # replays; more stories than capacity
        (4, 1, [1, 0, 2]),
    ],
)
def test_exact_keys_write_bit_identical_rows_with_lru_counters(capacity, flushes):
    """Flush sequences through one cache: every row is bit-identical to
    ``write_memory``, and (hits, misses, dedupes, evictions) equal a
    plain-Python LRU that names each story by its token rows."""
    cache = MemoryCache(capacity_entries=capacity)
    engine = BatchInferenceEngine(_bank_weights(), memory_cache=cache)
    lru: OrderedDict = OrderedDict()
    hits = misses = dedupes = evictions = 0
    for width, extra, picks in flushes:
        lengths = np.array([BANK[width][p][1] for p in picks])
        slots = min(BANK_SLOTS, int(lengths.max()) + extra)
        stories = np.stack([BANK[width][p][0][:slots] for p in picks])
        mem_a, mem_c, mask = engine.write_memory_cached(stories, lengths)
        ref_a, ref_c, ref_mask = engine.write_memory(stories, lengths)
        assert mem_a.tobytes() == ref_a.tobytes()
        assert mem_c.tobytes() == ref_c.tobytes()
        assert np.array_equal(mask, ref_mask)

        missed = {}
        for p in picks:
            tokens, n = BANK[width][p]
            story = tuple(tuple(row) for row in tokens[:n].tolist())
            if story in missed:
                dedupes += 1
            elif story in lru:
                hits += 1
                lru.move_to_end(story)
            else:
                misses += 1
                missed[story] = None
        for story in missed:
            lru[story] = None
            if len(lru) > capacity:
                lru.popitem(last=False)
                evictions += 1
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.dedupes, stats.evictions) == (
            hits,
            misses,
            dedupes,
            evictions,
        )
    assert len(cache) == len(lru)


class TestServingStatsReservoir:
    def test_bounded_growth_exact_aggregates(self):
        stats = ServingStats()
        n = 3 * ServingStats.RESERVOIR_CAPACITY
        stats.record_latencies(float(i) for i in range(n))
        assert len(stats.latencies_s) == ServingStats.RESERVOIR_CAPACITY
        # Exact count and sum survive sampling.
        assert stats.mean_latency_s == pytest.approx((n - 1) / 2)
        for _ in range(n):
            stats.record_flush(8)
        assert (stats.flushes, stats.requests) == (n, 8 * n)
        assert stats.mean_batch_size == 8.0

    def test_percentiles_exact_below_capacity(self):
        stats = ServingStats()
        stats.record_latencies([0.001 * i for i in range(1, 101)])
        assert stats.p50_latency_s == pytest.approx(0.0505)
        assert stats.p95_latency_s == pytest.approx(0.09505)
        assert stats.p99_latency_s == pytest.approx(0.09901)
        empty = ServingStats()
        assert empty.p50_latency_s == empty.p99_latency_s == 0.0

    def test_same_stream_same_sample(self):
        """The sampler's RNG has a fixed seed: two stats fed the same
        stream hold identical samples, batch by batch or one by one."""
        n = 3 * ServingStats.RESERVOIR_CAPACITY
        values = [float(i) * 1e-3 for i in range(n)]
        batched, single = ServingStats(), ServingStats()
        for start in range(0, n, 64):
            batched.record_latencies(values[start : start + 64])
        for value in values:
            single.record_latencies([value])
        assert batched.latencies_s == single.latencies_s
        assert len(batched.latencies_s) == ServingStats.RESERVOIR_CAPACITY
        assert batched.latencies_s != values[: ServingStats.RESERVOIR_CAPACITY]

    def test_sample_is_uniform_over_the_stream(self):
        """The sample of 0..n-1 (n = 3 x capacity) averages (n - 1) / 2
        within 5 standard errors of a uniform k-of-n sample, and each
        third of the stream holds about a third of it. A sampler that
        keeps only early values averages about k / 2."""
        k = ServingStats.RESERVOIR_CAPACITY
        n = 3 * k
        stats = ServingStats()
        for start in range(0, n, 64):
            stats.record_latencies(float(i) for i in range(start, start + 64))
        sample = np.array(stats.latencies_s)
        # Without replacement: sigma / sqrt(k) * sqrt((n - k) / (n - 1)).
        std_error = n / np.sqrt(12) / np.sqrt(k) * np.sqrt((n - k) / (n - 1))
        assert abs(sample.mean() - (n - 1) / 2) < 5 * std_error  # ~225
        thirds = np.bincount((sample // k).astype(int), minlength=3)
        assert np.all(np.abs(thirds - k / 3) < 0.1 * k / 3), thirds

    def test_percentile_computed_once_per_sample_state(self, monkeypatch):
        """A percentile is kept until a value enters the sample; the
        value read is the one ``np.percentile`` gives for the sample."""
        computed = []
        percentile = np.percentile

        def counting(values, q):
            computed.append(q)
            return percentile(values, q)

        monkeypatch.setattr(np, "percentile", counting)
        stats = ServingStats()
        stats.record_latencies([0.003, 0.001, 0.002])
        assert stats.p95_latency_s == stats.p95_latency_s == percentile(
            [0.003, 0.001, 0.002], 95
        )
        assert computed == [95.0]
        stats.record_latencies([0.004])
        assert stats.p95_latency_s == percentile([0.003, 0.001, 0.002, 0.004], 95)
        assert computed == [95.0, 95.0]

    def test_small_series_remain_exact_lists(self):
        """Below the reservoir capacity the series are the full data —
        the compatibility contract existing tests rely on."""
        stats = ServingStats()
        stats.record_flush(4)
        stats.record_latencies([0.25, 0.5])
        assert (stats.flushes, stats.requests) == (1, 4)
        assert stats.latencies_s == [0.25, 0.5]
