"""Tests for the MIPS backend registry and the stacked batch result."""

import numpy as np
import pytest

from repro.mips import (
    AlshMips,
    BatchSearchResult,
    ClusteringMips,
    ExactMips,
    InferenceThresholding,
    MipsBackend,
    SearchResult,
    available_backends,
    build_backend,
    fit_threshold_model,
    get_backend,
    inner_products,
    register_backend,
)
from repro.mips.backend import as_query_matrix


@pytest.fixture()
def threshold_model(rng):
    weight = rng.normal(size=(12, 6))
    train = rng.normal(size=(200, 6))
    logits = train @ weight.T
    return weight, fit_threshold_model(logits, logits.argmax(axis=1))


class TestRegistry:
    def test_all_four_engines_registered(self):
        assert available_backends() == ("alsh", "clustering", "exact", "threshold")
        assert get_backend("exact") is ExactMips
        assert get_backend("threshold") is InferenceThresholding
        assert get_backend("alsh") is AlshMips
        assert get_backend("clustering") is ClusteringMips

    def test_aliases_and_case_insensitivity(self):
        assert get_backend("ith") is InferenceThresholding
        assert get_backend("inference_thresholding") is InferenceThresholding
        assert get_backend("lsh") is AlshMips
        assert get_backend("kmeans") is ClusteringMips
        assert get_backend(" EXACT ") is ExactMips

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="exact"):
            get_backend("no-such-backend")

    def test_non_string_name_rejected(self):
        with pytest.raises(TypeError):
            get_backend(3)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_backend("exact")(type("Fake", (), {}))

    def test_backend_name_attribute(self):
        assert ExactMips.backend_name == "exact"
        assert InferenceThresholding.backend_name == "threshold"

    def test_instances_satisfy_protocol(self, rng, threshold_model):
        weight, tm = threshold_model
        engines = [
            build_backend("exact", weight),
            build_backend("threshold", weight, threshold_model=tm),
            build_backend("alsh", weight, seed=0),
            build_backend("clustering", weight, seed=0),
        ]
        for engine in engines:
            assert isinstance(engine, MipsBackend)


class TestBuild:
    def test_exact_build_respects_order(self, rng):
        weight = rng.normal(size=(9, 4))
        order = rng.permutation(9)
        engine = get_backend("exact").build(weight, order)
        assert np.array_equal(engine.order, order)

    def test_threshold_build_requires_model(self, rng):
        with pytest.raises(ValueError, match="ThresholdModel"):
            get_backend("threshold").build(rng.normal(size=(5, 3)))

    def test_threshold_build_passes_rho_and_ordering(self, threshold_model):
        weight, tm = threshold_model
        engine = get_backend("threshold").build(
            weight, threshold_model=tm, rho=0.9, index_ordering=False
        )
        assert engine.rho == 0.9
        assert np.array_equal(engine.order, np.arange(tm.n_indices))

    def test_alsh_build_forwards_params(self, rng):
        engine = get_backend("alsh").build(
            rng.normal(size=(20, 5)), n_tables=3, n_bits=4, seed=9
        )
        assert engine.n_tables == 3
        assert engine.n_bits == 4

    def test_clustering_build_forwards_params(self, rng):
        engine = get_backend("clustering").build(
            rng.normal(size=(20, 5)), n_clusters=4, n_probe=3, seed=1
        )
        assert engine.n_clusters == 4
        assert engine.n_probe == 3

    def test_builders_accept_unused_threshold_context(self, rng, threshold_model):
        weight, tm = threshold_model
        # Every backend accepts the full keyword surface so one call
        # site can construct any of them.
        for name in available_backends():
            engine = build_backend(
                name, weight, threshold_model=tm, rho=1.0, index_ordering=True, seed=0
            )
            assert engine.num_indices == weight.shape[0]


class TestBatchSearchResult:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            BatchSearchResult(
                labels=np.zeros(3, dtype=np.int64),
                logits=np.zeros(2),
                comparisons=np.zeros(3, dtype=np.int64),
                early_exits=np.zeros(3, dtype=bool),
            )

    def test_scalar_access_and_aggregates(self):
        res = BatchSearchResult(
            labels=[3, 1],
            logits=[0.5, -1.0],
            comparisons=[10, 4],
            early_exits=[False, True],
        )
        assert len(res) == 2
        assert res.result(1) == SearchResult(1, -1.0, 4, True)
        assert res.mean_comparisons == 7.0
        assert res.early_exit_rate == 0.5
        assert res.accuracy(np.array([3, 2])) == 0.5

    def test_list_shim_removed(self, rng):
        """The deprecated list-of-SearchResult shims are gone: stacked
        arrays (or the explicit result(i)) are the only shapes."""
        results = ExactMips(rng.normal(size=(6, 3))).search_batch(
            rng.normal(size=(4, 3))
        )
        with pytest.raises(TypeError):
            iter(results)
        with pytest.raises(TypeError):
            results[0]

    def test_result_matches_stacked_arrays(self, rng):
        """Explicit scalar access reproduces the arrays exactly."""
        results = ExactMips(rng.normal(size=(6, 3))).search_batch(
            rng.normal(size=(5, 3))
        )
        assert len(results) == 5
        for i in range(len(results)):
            scalar = results.result(i)
            assert scalar.label == int(results.labels[i])
            assert scalar.logit == float(results.logits[i])
            assert scalar.comparisons == int(results.comparisons[i])
            assert scalar.early_exit == bool(results.early_exits[i])

    def test_scan_candidates_empty_row_keeps_sentinel(self, rng):
        from repro.mips.backend import scan_candidates

        weight = rng.normal(size=(6, 3))
        queries = rng.normal(size=(2, 3))
        results = scan_candidates(
            weight,
            queries,
            [np.array([2, 4], dtype=np.int64), np.array([], dtype=np.int64)],
        )
        assert results.labels[0] in (2, 4)
        assert results.labels[1] == -1  # no candidates: -1, not index 0
        assert results.logits[1] == -np.inf
        assert results.comparisons.tolist() == [2, 0]


# -- per-row BLAS: a query's bits never depend on its layout or batch ----
def _layouts(queries: np.ndarray) -> dict[str, np.ndarray]:
    """The same (B, E) query values in every layout a caller may pass."""
    layouts = {"c-contiguous": queries}
    for offset in (1, 2, 3):  # floats into a larger buffer
        buffer = np.zeros(queries.size + offset, dtype=queries.dtype)
        copy = buffer[offset:].reshape(queries.shape)
        copy[...] = queries
        layouts[f"offset-{offset}"] = copy
    layouts["transposed"] = np.ascontiguousarray(queries.T).T  # F-ordered
    layouts["reversed"] = np.ascontiguousarray(queries[:, ::-1])[:, ::-1]
    return layouts


def _all_bits(result: BatchSearchResult, rows=slice(None)):
    return (
        result.labels[rows].tolist(),
        result.logits[rows].tobytes(),
        result.comparisons[rows].tolist(),
        result.early_exits[rows].tolist(),
    )


@pytest.mark.parametrize(
    "shape", [(12, 6), (158, 20), (400, 64)], ids=["12x6", "158x20", "400x64"]
)
class TestPerRowBlas:
    """Eq. 6 is one BLAS gemv call per query (``inner_products``): the
    same routine, shape and strides whatever the batch, so a query's
    logits keep their bits in every layout, alone or batched, and on
    shared or per-query gathered rows."""

    def test_inner_products_in_every_layout_and_alone(self, rng, shape):
        rows = rng.normal(size=shape)
        queries = rng.normal(size=(9, shape[1]))
        expected = inner_products(queries, rows)
        for name, layout in _layouts(queries).items():
            actual = inner_products(as_query_matrix(layout), rows)
            assert actual.tobytes() == expected.tobytes(), name
        for b in range(len(queries)):
            alone = inner_products(queries[b : b + 1], rows)
            assert alone.tobytes() == expected[b : b + 1].tobytes(), b

    def test_shared_and_gathered_rows_agree(self, rng, shape):
        models = rng.normal(size=(3, *shape))
        queries = rng.normal(size=(9, shape[1]))
        route = rng.integers(0, 3, size=len(queries))
        stacked = inner_products(queries, models[route])
        for b in range(len(queries)):
            own = inner_products(queries[b : b + 1], models[route[b]])
            assert stacked[b].tobytes() == own[0].tobytes(), b
        shared = inner_products(queries, models[0])
        gathered = inner_products(queries, models[np.zeros(len(queries), int)])
        assert shared.tobytes() == gathered.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_search_batch_in_every_layout_and_alone(self, rng, shape, dtype):
        n, dim = shape
        weight = rng.normal(size=shape).astype(dtype)
        train = rng.normal(size=(200, dim)) @ weight.T.astype(np.float64)
        model = fit_threshold_model(train, train.argmax(axis=1))
        queries = rng.normal(size=(9, dim)).astype(dtype)
        for engine in (
            ExactMips(weight, rng.permutation(n)),
            InferenceThresholding(weight, model),
        ):
            expected = engine.search_batch(queries)
            for name, layout in _layouts(queries).items():
                assert _all_bits(engine.search_batch(layout)) == _all_bits(
                    expected
                ), name
                for b in range(len(queries)):
                    assert engine.search(layout[b]) == expected.result(b), name
            for b in range(len(queries)):
                alone = engine.search_batch(queries[b : b + 1])
                assert _all_bits(alone) == _all_bits(expected, slice(b, b + 1)), b
