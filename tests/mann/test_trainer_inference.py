"""Tests for training convergence and the golden inference engine."""

import numpy as np
import pytest

from repro.babi import generate_task_dataset
from repro.mann import MannConfig, train_task_model
from repro.mann.weights import MannWeights


class TestTrainer:
    def test_loss_decreases(self):
        train, _ = generate_task_dataset(1, 60, 10, seed=4)
        result = train_task_model(
            train, epochs=15, seed=0, target_accuracy=None
        )
        assert result.train_losses[-1] < result.train_losses[0]

    def test_beats_majority_baseline(self, task1_system):
        result = task1_system["result"]
        assert result.test_accuracy > result.majority_accuracy + 0.2

    def test_early_stop_on_target(self):
        train, _ = generate_task_dataset(1, 60, 10, seed=4)
        result = train_task_model(train, epochs=100, target_accuracy=0.6, seed=0)
        assert result.epochs_run < 100

    def test_pad_rows_stay_zero_through_training(self, task1_system):
        weights = task1_system["weights"]
        assert np.array_equal(weights.w_emb_a[0], np.zeros(weights.w_emb_a.shape[1]))
        assert np.array_equal(weights.w_emb_q[0], np.zeros(weights.w_emb_q.shape[1]))

    def test_history_lengths_match(self, task1_system):
        result = task1_system["result"]
        assert len(result.train_losses) == result.epochs_run
        assert len(result.train_accuracies) == result.epochs_run


class TestMannWeights:
    def test_shape_validation(self):
        cfg = MannConfig(vocab_size=5, embed_dim=3, memory_size=2)
        with pytest.raises(ValueError):
            MannWeights(
                config=cfg,
                w_emb_a=np.zeros((5, 3)),
                w_emb_c=np.zeros((5, 3)),
                w_emb_q=np.zeros((5, 4)),  # wrong
                w_r=np.zeros((3, 3)),
                w_o=np.zeros((5, 3)),
                t_a=np.zeros((2, 3)),
                t_c=np.zeros((2, 3)),
            )

    def test_num_parameters_and_bytes(self, task1_system):
        w = task1_system["weights"]
        v, e = w.w_emb_a.shape
        l = w.t_a.shape[0]
        expected = 4 * v * e + e * e + 2 * l * e
        assert w.num_parameters() == expected
        assert w.nbytes() == expected * 4


class TestInferenceEngine:
    def test_matches_autograd_model(self, task1_system):
        engine = task1_system["engine"]
        batch = task1_system["test_batch"]
        model = task1_system["result"].model
        golden = engine.logits_batch(
            batch.stories, batch.questions, batch.story_lengths
        )
        auto = model.forward(
            batch.stories, batch.questions, batch.story_lengths
        ).data
        assert np.allclose(golden, auto, atol=1e-10)

    def test_predictions_match_model(self, task1_system):
        engine = task1_system["engine"]
        batch = task1_system["test_batch"]
        model = task1_system["result"].model
        golden = engine.predict(batch.stories, batch.questions, batch.story_lengths)
        auto = model.predict(batch.stories, batch.questions, batch.story_lengths)
        assert np.array_equal(golden, auto)

    def test_trace_structure(self, task1_system):
        engine = task1_system["engine"]
        batch = task1_system["test_batch"]
        n = int(batch.story_lengths[0])
        trace = engine.forward_trace(batch.stories[0], batch.questions[0], n)
        hops = engine.config.hops
        e = engine.config.embed_dim
        assert trace.mem_a.shape == (n, e)
        assert len(trace.keys) == hops
        assert len(trace.attentions) == hops
        assert len(trace.controller_outputs) == hops
        assert trace.logits.shape == (engine.config.vocab_size,)
        assert trace.prediction == int(np.argmax(trace.logits))

    def test_attention_is_distribution(self, task1_system):
        engine = task1_system["engine"]
        batch = task1_system["test_batch"]
        trace = engine.forward_trace(
            batch.stories[0], batch.questions[0], int(batch.story_lengths[0])
        )
        for attention in trace.attentions:
            assert np.all(attention >= 0)
            assert np.isclose(attention.sum(), 1.0)

    def test_recurrence_feeds_keys(self, task1_system):
        """Key of hop t+1 must equal controller output of hop t (Eq. 3)."""
        engine = task1_system["engine"]
        batch = task1_system["test_batch"]
        trace = engine.forward_trace(
            batch.stories[0], batch.questions[0], int(batch.story_lengths[0])
        )
        for t in range(1, len(trace.keys)):
            assert np.array_equal(trace.keys[t], trace.controller_outputs[t - 1])

    def test_n_sentences_inferred_when_omitted(self, task1_system):
        engine = task1_system["engine"]
        batch = task1_system["test_batch"]
        explicit = engine.forward_trace(
            batch.stories[0], batch.questions[0], int(batch.story_lengths[0])
        )
        inferred = engine.forward_trace(batch.stories[0], batch.questions[0])
        assert explicit.prediction == inferred.prediction
        assert np.array_equal(explicit.logits, inferred.logits)

    def test_invalid_n_sentences_rejected(self, task1_system):
        engine = task1_system["engine"]
        batch = task1_system["test_batch"]
        with pytest.raises(ValueError):
            engine.forward_trace(batch.stories[0], batch.questions[0], 0)
        with pytest.raises(ValueError):
            engine.forward_trace(
                batch.stories[0], batch.questions[0],
                engine.config.memory_size + 1,
            )

    def test_accuracy_helper(self, task1_system):
        engine = task1_system["engine"]
        batch = task1_system["test_batch"]
        acc = engine.accuracy(
            batch.stories, batch.questions, batch.answers, batch.story_lengths
        )
        assert 0.0 <= acc <= 1.0
        assert acc > 0.5  # trained model on a learnable task
