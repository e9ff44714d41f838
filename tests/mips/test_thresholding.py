"""Tests for inference thresholding (Algorithm 1)."""

import numpy as np
import pytest

from repro.mips import (
    ExactMips,
    InferenceThresholding,
    fit_threshold_model,
)


def _queries(system):
    batch = system["test_batch"]
    engine = system["engine"]
    return np.stack(
        [
            engine.forward_trace(
                batch.stories[i], batch.questions[i], int(batch.story_lengths[i])
            ).h_final
            for i in range(len(batch))
        ]
    )


class TestFitThresholdModel:
    def test_shapes_validated(self, rng):
        with pytest.raises(ValueError):
            fit_threshold_model(rng.normal(size=(4,)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            fit_threshold_model(rng.normal(size=(4, 3)), np.zeros(5, dtype=int))

    def test_labels_outside_logit_columns_rejected(self, rng):
        logits = rng.normal(size=(4, 3))
        with pytest.raises(ValueError):
            fit_threshold_model(logits, np.array([0, 1, 2, 3]))
        with pytest.raises(ValueError):
            fit_threshold_model(logits, np.array([0, -1, 2, 1]))

    def test_priors_sum_to_one(self, task1_system):
        tm = task1_system["threshold_model"]
        assert np.isclose(tm.priors.sum(), 1.0)

    def test_order_is_permutation(self, task1_system):
        tm = task1_system["threshold_model"]
        assert sorted(tm.order.tolist()) == list(range(tm.n_indices))

    def test_only_correct_predictions_update_histograms(self, rng):
        # One always-wrong example must leave the histograms empty.
        logits = np.array([[5.0, 0.0]])  # predicts 0
        labels = np.array([1])  # true label 1 -> incorrect
        tm = fit_threshold_model(logits, labels)
        assert not tm.positive_counts.any()
        assert not tm.negative_counts.any()

    def test_histograms_split_by_label(self):
        logits = np.array([[5.0, 0.0], [0.0, 4.0]])
        labels = np.array([0, 1])
        tm = fit_threshold_model(logits, labels)
        assert tm.positive_counts.sum(axis=1).tolist() == [1, 1]
        assert tm.negative_counts.sum(axis=1).tolist() == [1, 1]  # z_0 of example 2, z_1 of 1


class TestThresholds:
    def test_rho_bounds(self, task1_system):
        tm = task1_system["threshold_model"]
        with pytest.raises(ValueError):
            tm.thresholds(0.0)
        with pytest.raises(ValueError):
            tm.thresholds(1.5)

    def test_unseen_index_threshold_is_inf(self, task1_system):
        tm = task1_system["threshold_model"]
        theta = tm.thresholds(1.0)
        # Index 0 is the pad token, never a label.
        assert theta[0] == np.inf

    def test_thresholds_monotone_in_rho(self, task1_system):
        """Lower rho can only loosen (lower) thresholds."""
        tm = task1_system["threshold_model"]
        theta_100 = tm.thresholds(1.0)
        theta_90 = tm.thresholds(0.9)
        assert (theta_90 <= theta_100 + 1e-12).all()

    def test_posterior_in_unit_interval(self, task1_system):
        tm = task1_system["threshold_model"]
        for index in np.flatnonzero(tm.positive_counts.any(axis=1))[:5]:
            for value in np.linspace(-5, 10, 13):
                p = tm.posterior(index, float(value))
                assert 0.0 <= p <= 1.0

    def test_posterior_high_in_positive_region(self, task1_system):
        tm = task1_system["threshold_model"]
        index = int(tm.positive_counts.sum(axis=1).argmax())
        counts = tm.positive_counts[index]
        centers = tm.bin_centers()
        top_bin = centers[np.argmax(counts)]
        high_value = max(float(top_bin), float(centers[counts.nonzero()[0][-1]]))
        assert tm.posterior(index, high_value) > 0.5


class TestInferenceThresholdingSearch:
    def test_weight_mismatch_rejected(self, task1_system, rng):
        tm = task1_system["threshold_model"]
        with pytest.raises(ValueError):
            InferenceThresholding(rng.normal(size=(3, 4)), tm)

    def test_early_exit_flag_and_count(self, task1_system):
        w = task1_system["weights"].w_o
        tm = task1_system["threshold_model"]
        engine = InferenceThresholding(w, tm, rho=1.0)
        queries = _queries(task1_system)
        results = engine.search_batch(queries)
        assert results.early_exits.any(), "no early exits on a trained model"
        assert (results.comparisons[results.early_exits] < w.shape[0]).all()
        assert (results.comparisons[~results.early_exits] == w.shape[0]).all()

    def test_high_agreement_with_exact_at_rho_1(self, task1_system):
        w = task1_system["weights"].w_o
        tm = task1_system["threshold_model"]
        ith = InferenceThresholding(w, tm, rho=1.0)
        exact = ExactMips(w)
        queries = _queries(task1_system)
        agree = np.mean(
            [ith.search(q).label == exact.search(q).label for q in queries]
        )
        assert agree >= 0.95  # paper: <0.1% accuracy loss at rho=1.0

    def test_comparisons_monotone_in_rho(self, task1_system):
        w = task1_system["weights"].w_o
        tm = task1_system["threshold_model"]
        queries = _queries(task1_system)
        means = []
        for rho in (1.0, 0.95, 0.9):
            engine = InferenceThresholding(w, tm, rho=rho)
            means.append(
                np.mean([engine.search(q).comparisons for q in queries])
            )
        assert means[0] >= means[1] >= means[2]

    def test_ordering_reduces_comparisons(self, task1_system):
        w = task1_system["weights"].w_o
        tm = task1_system["threshold_model"]
        queries = _queries(task1_system)
        ordered = InferenceThresholding(w, tm, rho=1.0, use_index_ordering=True)
        unordered = InferenceThresholding(w, tm, rho=1.0, use_index_ordering=False)
        mean_ordered = np.mean([ordered.search(q).comparisons for q in queries])
        mean_unordered = np.mean(
            [unordered.search(q).comparisons for q in queries]
        )
        assert mean_ordered <= mean_unordered

    def test_fallback_is_exact_argmax(self, task1_system, rng):
        """With unreachable thresholds the result equals the exact scan."""
        w = task1_system["weights"].w_o
        tm = task1_system["threshold_model"]
        engine = InferenceThresholding(w, tm, rho=1.0)
        engine.theta = np.full(w.shape[0], np.inf)
        exact = ExactMips(w)
        for q in _queries(task1_system)[:10]:
            r = engine.search(q)
            assert not r.early_exit
            assert r.label == exact.search(q).label

    def test_visits_in_silhouette_order(self, task1_system):
        w = task1_system["weights"].w_o
        tm = task1_system["threshold_model"]
        engine = InferenceThresholding(w, tm, rho=1.0, use_index_ordering=True)
        assert np.array_equal(engine.order, tm.order)
