"""Tests for the exact sequential MIPS engine."""

import numpy as np
import pytest

from repro.mips import ExactMips


class TestExactMips:
    def test_finds_argmax(self, rng):
        weight = rng.normal(size=(12, 6))
        query = rng.normal(size=6)
        result = ExactMips(weight).search(query)
        assert result.label == int(np.argmax(weight @ query))
        assert np.isclose(result.logit, (weight @ query).max())

    def test_counts_all_comparisons(self, rng):
        weight = rng.normal(size=(9, 4))
        result = ExactMips(weight).search(rng.normal(size=4))
        assert result.comparisons == 9
        assert not result.early_exit

    def test_custom_order_same_result(self, rng):
        weight = rng.normal(size=(8, 4))
        query = rng.normal(size=4)
        order = rng.permutation(8)
        plain = ExactMips(weight).search(query)
        permuted = ExactMips(weight, order=order).search(query)
        assert plain.label == permuted.label

    def test_invalid_order_rejected(self, rng):
        weight = rng.normal(size=(5, 3))
        with pytest.raises(ValueError):
            ExactMips(weight, order=np.array([0, 1, 2, 3, 3]))

    def test_one_dim_weight_rejected(self):
        with pytest.raises(ValueError):
            ExactMips(np.zeros(5))

    def test_search_batch(self, rng):
        weight = rng.normal(size=(7, 3))
        queries = rng.normal(size=(4, 3))
        results = ExactMips(weight).search_batch(queries)
        assert len(results) == 4
        expected = np.argmax(queries @ weight.T, axis=1)
        assert results.labels.tolist() == expected.tolist()
        assert (results.comparisons == 7).all()
        assert not results.early_exits.any()

    def test_num_indices(self, rng):
        assert ExactMips(rng.normal(size=(11, 2))).num_indices == 11


class TestVectorizedScanRegression:
    """Pin the vectorized scan against the seed per-row Python loop."""

    def test_search_matches_reference_loop(self, rng):
        weight = rng.normal(size=(23, 7))
        engine = ExactMips(weight, order=rng.permutation(23))
        for query in rng.normal(size=(40, 7)):
            fast = engine.search(query)
            slow = engine._search_loop(query)
            assert fast.label == slow.label
            assert fast.comparisons == slow.comparisons
            assert fast.early_exit == slow.early_exit
            assert np.isclose(fast.logit, slow.logit)

    def test_tie_breaking_first_in_order_wins(self, rng):
        """Duplicated rows create exact logit ties; the winner must be
        the first index visited in ``order``, as with the strict-> loop."""
        weight = rng.normal(size=(10, 4))
        weight[7] = weight[3]  # bitwise-identical rows: exact logit tie
        # A query aligned with the tied pair makes it the global maximum.
        query = weight[3] * 10.0
        for order in (
            np.arange(10),  # 3 first
            np.concatenate([[7], np.delete(np.arange(10), 7)]),  # 7 first
            rng.permutation(10),
        ):
            engine = ExactMips(weight, order=order)
            fast = engine.search(query)
            slow = engine._search_loop(query)
            assert fast.label == slow.label
            # And the winner is whichever tied index appears first.
            tied_first = order[np.isin(order, (3, 7))][0]
            assert fast.label == tied_first

    def test_search_batch_matches_reference_loop(self, rng):
        weight = rng.normal(size=(15, 5))
        order = rng.permutation(15)
        engine = ExactMips(weight, order=order)
        queries = rng.normal(size=(30, 5))
        batch = engine.search_batch(queries)
        for i, query in enumerate(queries):
            slow = engine._search_loop(query)
            assert batch.labels[i] == slow.label
            assert batch.comparisons[i] == slow.comparisons
            assert np.isclose(batch.logits[i], slow.logit)

    def test_all_minus_inf_rows_resolve_to_first_in_scan_order(self):
        """Every logit -inf: the scan must still return the first
        candidate in scan order (like the strict-> loop's first
        comparison), not a -1/-inf sentinel."""
        weight = np.ones((8, 4))
        queries = np.full((5, 4), -np.inf)  # every inner product is -inf
        batch = ExactMips(weight).search_batch(queries)
        assert np.array_equal(batch.labels, np.zeros(5, dtype=np.int64))
        assert np.all(batch.logits == -np.inf)

    def test_all_minus_inf_rows_with_custom_order(self):
        weight = np.ones((9, 3))
        queries = np.full((4, 3), -np.inf)
        order = np.random.default_rng(11).permutation(9)
        batch = ExactMips(weight, order=order).search_batch(queries)
        assert np.array_equal(batch.labels, np.full(4, order[0]))
        assert np.all(batch.logits == -np.inf)
