"""Predictor facade parity against the engines it hides."""

import numpy as np
import pytest

from repro.hw.accelerator import MannAccelerator
from repro.hw.config import HwConfig
from repro.mips import available_backends
from repro.serving import (
    HardwarePredictor,
    InvalidRequestError,
    QueryRequest,
    QueryResponse,
    SoftwarePredictor,
    open_predictor,
)


def _requests(batch, n=None):
    n = len(batch) if n is None else n
    return [
        QueryRequest(
            batch.stories[i],
            batch.questions[i],
            n_sentences=int(batch.story_lengths[i]),
            request_id=i,
        )
        for i in range(n)
    ]


class TestSoftwareParity:
    @pytest.mark.parametrize("backend", ["exact", "threshold", "alsh", "clustering"])
    def test_matches_direct_batch_engine(self, tiny_suite, backend):
        """Same labels/logits/comparisons as a hand-wired engine."""
        system = tiny_suite.tasks[1]
        batch = system.test_batch
        predictor = open_predictor(tiny_suite, 1, mips_backend=backend)
        responses = predictor.predict_batch(_requests(batch))

        direct = system.batch_engine_with(backend).search(
            batch.stories, batch.questions, batch.story_lengths
        )
        assert [r.label for r in responses] == list(direct.labels)
        assert [r.comparisons for r in responses] == list(direct.comparisons)
        assert [r.early_exit for r in responses] == list(direct.early_exits)
        assert np.allclose([r.logit for r in responses], direct.logits)

    def test_backends_cover_registry(self):
        assert set(available_backends()) == {"exact", "threshold", "alsh", "clustering"}

    def test_single_predict_equals_batch(self, tiny_suite):
        system = tiny_suite.tasks[1]
        batch = system.test_batch
        predictor = open_predictor(tiny_suite, 1)
        one = predictor.predict(_requests(batch, 1)[0])
        many = predictor.predict_batch(_requests(batch, 3))
        # The engine's kernels are batch-independent: a one-row call and
        # a three-row call give the first request the same bits.
        assert one == many[0]
        assert one.logit.hex() == many[0].logit.hex()

    def test_answer_decoded_and_id_echoed(self, tiny_suite):
        predictor = open_predictor(tiny_suite, 1)
        batch = tiny_suite.tasks[1].test_batch
        response = predictor.predict(_requests(batch, 1)[0])
        assert response.answer == tiny_suite.vocab.word(response.label)
        assert response.request_id == 0

    def test_trimmed_story_matches_padded(self, tiny_suite):
        """Requests may carry fewer slots than memory_size."""
        system = tiny_suite.tasks[1]
        batch = system.test_batch
        predictor = open_predictor(tiny_suite, 1)
        n = int(batch.story_lengths[0])
        trimmed = predictor.predict(
            QueryRequest(batch.stories[0][:n], batch.questions[0])
        )
        full = predictor.predict(_requests(batch, 1)[0])
        assert (trimmed.label, trimmed.comparisons, trimmed.early_exit) == (
            full.label,
            full.comparisons,
            full.early_exit,
        )
        # Pad slots never change a row's bits (batch independence).
        assert trimmed.logit.hex() == full.logit.hex()

    def test_inferred_lengths_match_explicit(self, tiny_suite):
        system = tiny_suite.tasks[1]
        batch = system.test_batch
        predictor = open_predictor(tiny_suite, 1)
        explicit = predictor.predict_batch(_requests(batch, 4))
        inferred = predictor.predict_batch(
            [QueryRequest(batch.stories[i], batch.questions[i], request_id=i) for i in range(4)]
        )
        assert explicit == inferred


class TestHardwareParity:
    def test_matches_direct_accelerator(self, tiny_suite):
        """device='hw' answers equal a hand-wired MannAccelerator run."""
        system = tiny_suite.tasks[1]
        batch = system.test_batch
        predictor = open_predictor(
            tiny_suite, 1, device="hw", mips_backend="threshold", rho=1.0
        )
        assert isinstance(predictor, HardwarePredictor)
        responses = predictor.predict_batch(_requests(batch, 5))

        config = (
            HwConfig()
            .with_embed_dim(system.weights.config.embed_dim)
            .with_mips_backend("threshold")
        )
        accelerator = MannAccelerator(system.weights, config, system.threshold_model)
        report = accelerator.run(batch.subset(np.arange(5)), keep_examples=True)
        assert [r.label for r in responses] == list(report.predictions)
        assert [r.comparisons for r in responses] == [
            e.comparisons for e in report.examples
        ]
        assert [r.early_exit for r in responses] == [
            e.early_exit for e in report.examples
        ]

    def test_hw_and_sw_agree_on_labels(self, tiny_suite):
        """The same QueryRequest gets the same answer on both devices."""
        batch = tiny_suite.tasks[1].test_batch
        requests = _requests(batch, 4)
        sw = open_predictor(tiny_suite, 1, mips_backend="threshold", rho=1.0)
        hw = open_predictor(
            tiny_suite, 1, device="hw", mips_backend="threshold", rho=1.0
        )
        sw_responses = sw.predict_batch(requests)
        hw_responses = hw.predict_batch(requests)
        assert [r.label for r in sw_responses] == [r.label for r in hw_responses]
        assert [r.comparisons for r in sw_responses] == [
            r.comparisons for r in hw_responses
        ]
        for response in hw_responses:
            assert isinstance(response, QueryResponse)
            assert np.isfinite(response.logit)


class TestFactory:
    def test_opens_from_artifact_path(self, artifacts_dir, tiny_suite):
        predictor = open_predictor(str(artifacts_dir), 6)
        assert isinstance(predictor, SoftwarePredictor)
        assert predictor.task_id == 6
        batch = tiny_suite.tasks[6].test_batch
        direct = tiny_suite.tasks[6].batch_engine_with("exact").search(
            batch.stories, batch.questions, batch.story_lengths
        )
        responses = predictor.predict_batch(_requests(batch))
        assert [r.label for r in responses] == list(direct.labels)

    def test_opens_from_task_system(self, tiny_suite):
        predictor = open_predictor(tiny_suite.tasks[1])
        assert predictor.task_id == 1

    def test_task_id_required_for_multi_task_suite(self, tiny_suite):
        with pytest.raises(ValueError, match="task_id"):
            open_predictor(tiny_suite)

    def test_unknown_task_and_device(self, tiny_suite):
        with pytest.raises(KeyError):
            open_predictor(tiny_suite, 13)
        with pytest.raises(ValueError, match="device"):
            open_predictor(tiny_suite, 1, device="tpu")

    def test_hw_rejects_sw_only_params(self, tiny_suite):
        with pytest.raises(ValueError, match="backend params"):
            open_predictor(tiny_suite, 1, device="hw", mips_backend="alsh", n_tables=2)

    def test_n_sentences_validated_per_request(self, tiny_suite):
        """Acceptance must not depend on what a request is batched with:
        the padded batch is wider than the bad story, and the bad row
        fails alone."""
        predictor = open_predictor(tiny_suite, 1)
        batch = tiny_suite.tasks[1].test_batch
        bad = QueryRequest(batch.stories[0][:3], batch.questions[0], n_sentences=5)
        wide = QueryRequest(batch.stories[1], batch.questions[1])
        with pytest.raises(InvalidRequestError, match="n_sentences"):
            predictor.predict(bad)
        error, answer = predictor.predict_batch([bad, wide])  # co-batched
        assert isinstance(error, InvalidRequestError)
        assert "n_sentences=5" in str(error)
        assert answer == predictor.predict(wide)

    def test_oversized_story_rejected(self, tiny_suite):
        predictor = open_predictor(tiny_suite, 1)
        slots = predictor.engine.config.memory_size + 1
        request = QueryRequest(np.ones((slots, 3), dtype=np.int64), np.ones(3, dtype=np.int64))
        with pytest.raises(ValueError, match="slots"):
            predictor.predict(request)


class TestInvalidRequests:
    """A request its model cannot answer resolves with
    InvalidRequestError on both devices, alone and co-batched, and the
    rest of the batch is answered as if it were not there."""

    @staticmethod
    def _check(predictor, bad, good, match):
        with pytest.raises(InvalidRequestError, match=match):
            predictor.predict(bad)
        for batch, bad_row in (([bad, good], 0), ([good, bad], 1)):
            answers = predictor.predict_batch(batch)
            assert isinstance(answers[bad_row], InvalidRequestError)
            assert match in str(answers[bad_row])
            assert answers[1 - bad_row] == predictor.predict(good)

    @pytest.mark.parametrize("device", ["sw", "hw"])
    @pytest.mark.parametrize("word", [-1, "V"])
    def test_word_outside_vocabulary(self, tiny_suite, device, word):
        """``device="hw"`` used to answer word -1 (numpy wrapped it to
        row V-1) and raise a raw IndexError from the co-sim on word V."""
        predictor = open_predictor(tiny_suite, 1, device=device)
        batch = tiny_suite.tasks[1].test_batch
        vocab = tiny_suite.tasks[1].weights.config.vocab_size
        story = batch.stories[0].copy()
        story[0, 0] = vocab if word == "V" else word
        bad = QueryRequest(story, batch.questions[0])
        good = QueryRequest(batch.stories[1], batch.questions[1])
        self._check(predictor, bad, good, "word index")

    @pytest.mark.parametrize("device", ["sw", "hw"])
    def test_zero_slot_story(self, tiny_suite, device):
        """A 0-slot story used to fail alone with an untyped ValueError
        but be answered as an all-pad story when co-batched."""
        predictor = open_predictor(tiny_suite, 1, device=device)
        batch = tiny_suite.tasks[1].test_batch
        words = batch.stories.shape[2]
        bad = QueryRequest(np.zeros((0, words), dtype=np.int64), batch.questions[0])
        good = QueryRequest(batch.stories[1], batch.questions[1])
        self._check(predictor, bad, good, "0 slots")
