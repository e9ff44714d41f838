"""Row-shard parity for every MIPS backend.

A batch cut into row shards, each shard searched on its own and the
rows put back in submission order, is **bit-identical** to one
whole-batch search: labels, logits, comparisons and early-exit flags,
for every registered backend, any shard count, any row partition, and
a trained model's real queries. This is the batch independence that a
router flush rests on when it stacks rows of unrelated requests into
one engine call (the ``inner_products`` kernel gives a row the same
bits whatever else is in its batch).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.mips import (
    BatchSearchResult,
    available_backends,
    build_backend,
    fit_threshold_model,
    get_backend,
)

BACKENDS = ["alsh", "clustering", "exact", "threshold"]


@pytest.fixture(scope="module")
def problem():
    """A vocabulary-scale weight matrix + fitted threshold model."""
    rng = np.random.default_rng(23)
    weight = rng.normal(size=(170, 20))
    queries = rng.normal(size=(97, 20))
    train = rng.normal(size=(1500, 20))
    logits = train @ weight.T
    model = fit_threshold_model(logits, logits.argmax(axis=1))
    return weight, queries, model


def _build(name, weight, model):
    return build_backend(name, weight, threshold_model=model, seed=0)


def contiguous(n_items, n_shards):
    """Balanced contiguous runs; trailing shards empty when rows are scarce."""
    return np.array_split(np.arange(n_items, dtype=np.int64), n_shards)


def strided(n_items, n_shards):
    """Non-contiguous partition: shard s takes rows s, s+n, s+2n, ..."""
    idx = np.arange(n_items, dtype=np.int64)
    return [idx[s::n_shards] for s in range(n_shards)]


def search_in_shards(search, queries, parts, map_fn=map):
    """Run ``search`` on each non-empty row shard (through ``map_fn``)
    and scatter the rows back to their submission positions."""
    parts = [p for p in parts if len(p)]
    results = list(map_fn(lambda part: search(queries[part]), parts))
    n = len(queries)
    labels = np.empty(n, dtype=np.int64)
    logits = np.empty(n, dtype=np.float64)
    comparisons = np.empty(n, dtype=np.int64)
    early_exits = np.empty(n, dtype=bool)
    for part, result in zip(parts, results):
        labels[part] = result.labels
        logits[part] = result.logits
        comparisons[part] = result.comparisons
        early_exits[part] = result.early_exits
    return BatchSearchResult(labels, logits, comparisons, early_exits)


def _assert_bit_identical(whole: BatchSearchResult, split: BatchSearchResult):
    assert np.array_equal(whole.labels, split.labels)
    assert whole.logits.tobytes() == split.logits.tobytes()  # bitwise
    assert np.array_equal(whole.comparisons, split.comparisons)
    assert np.array_equal(whole.early_exits, split.early_exits)


class TestRegistry:
    def test_factory_mirrors_introspection(self):
        assert get_backend("threshold").requires_threshold_model
        assert get_backend("exact").min_recall == 1.0
        assert get_backend("alsh").min_recall < 1.0

    def test_inner_aliases_resolve(self):
        assert get_backend("ith") is get_backend("threshold")

    def test_available_backends_unchanged(self):
        assert available_backends() == (
            "alsh",
            "clustering",
            "exact",
            "threshold",
        )


class TestBatchAxisParity:
    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5, 96, 200])
    def test_bit_identical_to_inner(self, problem, name, n_shards):
        weight, queries, model = problem
        backend = _build(name, weight, model)
        _assert_bit_identical(
            backend.search_batch(queries),
            search_in_shards(
                backend.search_batch, queries, contiguous(len(queries), n_shards)
            ),
        )

    @pytest.mark.parametrize("name", BACKENDS)
    def test_single_query_matrix(self, problem, name):
        weight, queries, model = problem
        backend = _build(name, weight, model)
        one = queries[:1]
        _assert_bit_identical(
            backend.search_batch(one),
            search_in_shards(backend.search_batch, one, contiguous(1, 4)),
        )

    def test_scalar_search_parity(self, problem):
        weight, queries, model = problem
        for name in available_backends():
            backend = _build(name, weight, model)
            whole = backend.search_batch(queries)
            for i in (0, 48, len(queries) - 1):
                assert backend.search(queries[i]) == whole.result(i), name

    @pytest.mark.parametrize("name", BACKENDS)
    def test_non_contiguous_plan_parity(self, problem, name):
        """Interleaved row subsets must scatter back to submission
        positions bit-exactly, not just contiguous runs."""
        weight, queries, model = problem
        backend = _build(name, weight, model)
        _assert_bit_identical(
            backend.search_batch(queries),
            search_in_shards(
                backend.search_batch, queries, strided(len(queries), 3)
            ),
        )


class TestExecutor:
    def test_concurrent_shards_match_sequential(self, problem):
        """One backend searched from several threads at once keeps every
        row's bits: ``search_batch`` holds no per-call mutable state."""
        weight, queries, model = problem
        backend = _build("threshold", weight, model)
        parts = contiguous(len(queries), 4)
        sequential = search_in_shards(backend.search_batch, queries, parts)
        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = search_in_shards(
                backend.search_batch, queries, parts, map_fn=pool.map
            )
        _assert_bit_identical(sequential, concurrent)


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def system(self, small_suite):
        return small_suite.tasks[1]

    @pytest.mark.parametrize("name", BACKENDS)
    def test_trained_model_parity(self, system, name):
        """A real trained system: the whole test set through one
        BatchInferenceEngine call == the same rows in four calls."""
        batch = system.test_batch
        engine = system.batch_engine_with(name)

        def search(rows):
            return engine.search(
                batch.stories[rows], batch.questions[rows], batch.story_lengths[rows]
            )

        rows = np.arange(len(batch))
        _assert_bit_identical(
            search(rows), search_in_shards(search, rows, contiguous(len(rows), 4))
        )
