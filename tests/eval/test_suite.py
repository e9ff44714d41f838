"""Tests for the evaluation-suite builder."""

import numpy as np
import pytest

from repro.eval.backends import evaluate_mips_backends
from repro.eval.suite import BabiSuite, SuiteConfig
from repro.mips import available_backends


class TestSuiteConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(task_ids=())
        with pytest.raises(ValueError):
            SuiteConfig(n_train=0)

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            BabiSuite.build(SuiteConfig(task_ids=(99,), n_train=5, n_test=5))


class TestBuiltSuite:
    def test_tasks_present(self, small_suite):
        assert small_suite.task_ids == [1, 6, 15]

    def test_shared_vocabulary(self, small_suite):
        vocabs = {id(t.train.vocab) for t in small_suite.tasks.values()}
        assert len(vocabs) == 1
        for system in small_suite.tasks.values():
            assert system.train.vocab is small_suite.vocab
            assert system.vocab_size == len(small_suite.vocab)

    def test_union_vocab_is_large(self, small_suite):
        """Shared |I| far exceeds any single task's needs — the regime
        where the sequential output scan dominates (Section IV)."""
        assert len(small_suite.vocab) > 40

    def test_models_learn(self, small_suite):
        for system in small_suite.tasks.values():
            majority = system.train.majority_baseline_accuracy()
            assert system.test_accuracy > majority, (
                f"task {system.task_id} did not beat majority baseline"
            )

    def test_threshold_models_fitted(self, small_suite):
        for system in small_suite.tasks.values():
            tm = system.threshold_model
            assert tm.n_indices == len(small_suite.vocab)
            assert tm.positive_counts.any(), "no logit statistics collected"

    def test_train_logits_shape(self, small_suite):
        for system in small_suite.tasks.values():
            assert system.train_logits.shape == (
                len(system.train_batch),
                len(small_suite.vocab),
            )

    def test_encodings_share_answer_space(self, small_suite):
        """The same word must map to the same index across tasks."""
        systems = list(small_suite.tasks.values())
        word = "kitchen"
        idx = small_suite.vocab.index(word)
        for system in systems:
            assert system.train.vocab.index(word) == idx

    def test_mean_accuracy(self, small_suite):
        accs = [t.test_accuracy for t in small_suite.tasks.values()]
        assert small_suite.mean_test_accuracy() == pytest.approx(np.mean(accs))

    def test_deterministic_build(self):
        cfg = SuiteConfig(task_ids=(1,), n_train=30, n_test=10, epochs=5, seed=9)
        a = BabiSuite.build(cfg)
        b = BabiSuite.build(cfg)
        wa = a.tasks[1].weights.w_o
        wb = b.tasks[1].weights.w_o
        assert np.array_equal(wa, wb)


class TestMipsBackendAccess:
    def test_mips_engine_builds_every_backend(self, small_suite):
        system = small_suite.tasks[1]
        for name in available_backends():
            engine = system.mips_engine(name)
            assert engine.num_indices == len(small_suite.vocab)

    def test_batch_engine_with_backend_predicts(self, small_suite):
        system = small_suite.tasks[1]
        batch = system.test_batch
        engine = system.batch_engine_with("threshold", rho=1.0)
        results = engine.search(batch.stories, batch.questions, batch.story_lengths)
        assert len(results) == len(batch)
        assert np.array_equal(
            engine.predict(batch.stories, batch.questions, batch.story_lengths),
            results.labels,
        )
        # The exact backend reproduces the plain batch engine bitwise.
        exact = system.batch_engine_with("exact")
        assert np.array_equal(
            exact.predict(batch.stories, batch.questions, batch.story_lengths),
            system.batch_engine.predict(
                batch.stories, batch.questions, batch.story_lengths
            ),
        )


class TestEvaluateMipsBackends:
    def test_rows_cover_all_backends(self, small_suite):
        rows = evaluate_mips_backends(small_suite)
        assert [r.backend for r in rows] == list(available_backends())
        for row in rows:
            assert 0.0 <= row.agreement_with_exact <= 1.0
            assert 0.0 <= row.label_accuracy <= 1.0
            assert row.mean_comparisons > 0

    def test_exact_row_is_reference(self, small_suite):
        (row,) = evaluate_mips_backends(small_suite, ["exact"])
        assert row.agreement_with_exact == 1.0
        assert row.early_exit_rate == 0.0
        vocab = len(small_suite.vocab)
        assert row.mean_comparisons == pytest.approx(vocab)

    def test_threshold_row_saves_comparisons(self, small_suite):
        (row,) = evaluate_mips_backends(small_suite, ["threshold"], rho=1.0)
        assert row.early_exit_rate > 0
        assert row.mean_comparisons < len(small_suite.vocab)
