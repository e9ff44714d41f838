"""Tests for the co-simulation verification module."""

import numpy as np
import pytest

from repro.hw import HwConfig, MannAccelerator
from repro.hw.verification import verify_against_golden
from repro.mann import InferenceEngine
from repro.mann.weights import MannWeights
from repro.serving import QueryRequest, open_predictor

WEIGHT_FIELDS = ("w_emb_a", "w_emb_c", "w_emb_q", "w_r", "w_o", "t_a", "t_c")


@pytest.fixture(scope="module")
def verified(task1_system):
    config = HwConfig(frequency_mhz=25.0).with_embed_dim(
        task1_system["weights"].config.embed_dim
    )
    accelerator = MannAccelerator(task1_system["weights"], config)
    return verify_against_golden(
        accelerator, task1_system["test_batch"], max_examples=25
    )


class TestVerification:
    def test_bit_exact_without_ith(self, verified):
        assert verified.bit_exact, verified.summary()
        assert verified.worst_error == 0.0

    def test_all_predictions_match(self, verified):
        assert verified.all_predictions_match
        assert verified.failures() == []

    def test_example_count_respected(self, verified):
        assert verified.n_examples == 25

    def test_summary_format(self, verified):
        text = verified.summary()
        assert "BIT-EXACT" in text
        assert "25 examples" in text

    def test_ith_configuration_also_verifies(self, task1_system):
        config = (
            HwConfig(frequency_mhz=25.0)
            .with_embed_dim(task1_system["weights"].config.embed_dim)
            .with_ith(True, rho=1.0)
        )
        accelerator = MannAccelerator(
            task1_system["weights"], config, task1_system["threshold_model"]
        )
        report = verify_against_golden(
            accelerator, task1_system["test_batch"], max_examples=15
        )
        assert report.bit_exact, report.summary()

    def test_float32_weights_verify_bit_exact(self, task1_system):
        """MEM stores its rows in the weights' dtype, so a float32 model
        runs Eqs. 1 and 5 in float32 on the co-sim as in the golden trace."""
        weights = task1_system["weights"]
        weights32 = MannWeights(
            weights.config,
            *(getattr(weights, name).astype(np.float32) for name in WEIGHT_FIELDS),
        )
        config = HwConfig(frequency_mhz=25.0).with_embed_dim(weights.config.embed_dim)
        accelerator = MannAccelerator(weights32, config)
        report = verify_against_golden(
            accelerator, task1_system["test_batch"], max_examples=20
        )
        assert report.bit_exact, report.summary()

    def test_detects_corrupted_weights(self, task1_system):
        """A deliberately wrong OUTPUT weight must show as divergence."""
        import copy

        weights = copy.deepcopy(task1_system["weights"])
        config = HwConfig(frequency_mhz=25.0).with_embed_dim(
            weights.config.embed_dim
        )
        accelerator = MannAccelerator(weights, config)
        # Corrupt the accelerator's address memory weight after build:
        # golden engine uses the original values.
        accelerator.weights.w_emb_a[1:] += 0.5

        from repro.mann.inference import InferenceEngine

        golden_engine = InferenceEngine(task1_system["weights"])
        batch = task1_system["test_batch"]
        golden = golden_engine.forward_trace(
            batch.stories[0], batch.questions[0], int(batch.story_lengths[0])
        )
        from repro.hw.kernel import Environment

        env = Environment()
        fifo_in, fifo_out, _c, _iw, mem, _read, _out = (
            accelerator._build_pipeline(env)
        )
        accelerator.run_example(
            env, fifo_in, fifo_out, mem,
            batch.stories[0], batch.questions[0], int(batch.story_lengths[0]),
        )
        n = int(batch.story_lengths[0])
        assert not np.allclose(mem.mem_a[:n], golden.mem_a)


def _bits(logit: float) -> bytes:
    return np.float64(logit).tobytes()


class TestOneAnswer:
    """One forward pass: the golden trace, the served software engine
    and the served co-simulation give every query the same answer."""

    @pytest.mark.parametrize("backend", ["exact", "threshold"])
    def test_golden_sw_and_hw_agree_bit_for_bit(self, small_suite, backend):
        params = {"rho": 1.0} if backend == "threshold" else {}
        for system in small_suite.tasks.values():
            batch = system.test_batch
            golden = InferenceEngine(
                system.weights,
                backend,
                threshold_model=system.threshold_model,
                **params,
            )
            sw = open_predictor(system, device="sw", mips_backend=backend, **params)
            hw = open_predictor(system, device="hw", mips_backend=backend, **params)
            requests = [
                QueryRequest(
                    batch.stories[i], batch.questions[i], int(batch.story_lengths[i])
                )
                for i in range(len(batch))
            ]
            served = zip(sw.predict_batch(requests), hw.predict_batch(requests))
            for i, (sw_answer, hw_answer) in enumerate(served):
                trace = golden.forward_trace(
                    batch.stories[i], batch.questions[i], int(batch.story_lengths[i])
                )
                # The golden answer: the same output search over h_T.
                answer = golden.batch.mips.search(trace.h_final)
                assert sw_answer.label == hw_answer.label == answer.label
                assert (
                    _bits(sw_answer.logit)
                    == _bits(hw_answer.logit)
                    == _bits(answer.logit)
                )
                if backend == "exact":
                    assert trace.prediction == answer.label
                    assert _bits(trace.logits[answer.label]) == _bits(answer.logit)
            report = verify_against_golden(hw.accelerator, batch)
            assert report.n_examples == len(batch) == 40
            assert report.bit_exact, report.summary()
