"""First-class co-simulation checking.

``verify_against_golden`` replays a batch through the event-driven
accelerator and the golden engine side by side, comparing every
observable — predictions, memory contents, read keys, attention weights,
read vectors — and returns a structured divergence report. This is the
reproduction's equivalent of the paper's "implementation and validation
of this approach on an FPGA" claim, example by example. Both sides run
the batch engine's kernels on one row, so the report checks the
pipeline's dataflow: the right sentences, slots, keys and read vectors
reach each module, in order. The maths itself is held to an independent
reference in ``tests/mann/test_batch_parity.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.babi.dataset import EncodedBatch
from repro.hw.accelerator import MannAccelerator
from repro.hw.kernel import Environment
from repro.mann.inference import InferenceEngine


@dataclass
class ExampleVerification:
    """Per-example divergence measurements (0.0 = bit-exact)."""

    index: int
    prediction_match: bool
    memory_max_error: float
    key_max_error: float
    attention_max_error: float
    read_max_error: float

    @property
    def functional_match(self) -> bool:
        return self.prediction_match and self.worst_error == 0.0

    @property
    def worst_error(self) -> float:
        return max(
            self.memory_max_error,
            self.key_max_error,
            self.attention_max_error,
            self.read_max_error,
        )


@dataclass
class VerificationReport:
    """Aggregate co-simulation outcome for a batch."""

    examples: list[ExampleVerification] = field(default_factory=list)

    @property
    def n_examples(self) -> int:
        return len(self.examples)

    @property
    def all_predictions_match(self) -> bool:
        return all(e.prediction_match for e in self.examples)

    @property
    def bit_exact(self) -> bool:
        return all(e.functional_match for e in self.examples)

    @property
    def worst_error(self) -> float:
        return max((e.worst_error for e in self.examples), default=0.0)

    def failures(self) -> list[ExampleVerification]:
        return [e for e in self.examples if not e.functional_match]

    def summary(self) -> str:
        status = "BIT-EXACT" if self.bit_exact else "DIVERGENT"
        return (
            f"co-simulation {status}: {self.n_examples} examples, "
            f"{len(self.failures())} failures, "
            f"worst numeric error {self.worst_error:.3e}"
        )


def _max_error(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        return float("inf")
    if a.size == 0:
        return 0.0
    return float(np.abs(a - b).max())


def verify_against_golden(
    accelerator: MannAccelerator,
    batch: EncodedBatch,
    max_examples: int | None = None,
) -> VerificationReport:
    """Run accelerator and golden engine side by side over ``batch``.

    Uses a fresh pipeline per example so module-internal state (MEM
    rows, READ traces) can be inspected after each run.
    """
    engine = InferenceEngine(accelerator.weights)
    report = VerificationReport()
    n = len(batch) if max_examples is None else min(len(batch), max_examples)

    for i in range(n):
        story = batch.stories[i]
        question = batch.questions[i]
        n_sentences = int(batch.story_lengths[i])
        golden = engine.forward_trace(story, question, n_sentences)

        env = Environment()
        fifo_in, fifo_out, _control, _iw, mem, read, output = (
            accelerator._build_pipeline(env)
        )
        label, _cmp, _early, _cycles, _logit = accelerator.run_example(
            env, fifo_in, fifo_out, mem, story, question, n_sentences
        )

        golden_mem_a = golden.mem_a
        golden_mem_c = golden.mem_c
        hw_mem_a = mem.mem_a[:n_sentences]
        hw_mem_c = mem.mem_c[:n_sentences]

        key_error = max(
            (_max_error(k_hw, k_gold)
             for k_hw, k_gold in zip(read.trace_keys, golden.keys)),
            default=0.0,
        )
        attention_error = max(
            (_max_error(msg.attention, att)
             for msg, att in zip(read.trace_reads, golden.attentions)),
            default=0.0,
        )
        read_error = max(
            (_max_error(msg.read, r)
             for msg, r in zip(read.trace_reads, golden.reads)),
            default=0.0,
        )

        # With inference thresholding the accelerator may legitimately
        # speculate a different (usually identical) label; compare
        # against the engine the OUTPUT module actually runs.
        expected_label = output.engine.search(golden.h_final).label

        report.examples.append(
            ExampleVerification(
                index=i,
                prediction_match=label == expected_label,
                memory_max_error=max(
                    _max_error(hw_mem_a, golden_mem_a),
                    _max_error(hw_mem_c, golden_mem_c),
                ),
                key_max_error=key_error,
                attention_max_error=attention_error,
                read_max_error=read_error,
            )
        )
    return report
