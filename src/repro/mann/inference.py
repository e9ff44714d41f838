"""Per-example inference with a full intermediate trace.

The hardware simulator (``repro.hw``) is functionally co-simulated
against this engine: every intermediate the accelerator's modules
produce (embedded memory rows, read keys, attention weights, read
vectors, controller outputs, logits) is recorded here in the same order
the hardware computes them. Both run the batch engine's kernels on one
row, so they and every served answer agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mann.batch import BatchInferenceEngine, infer_story_lengths
from repro.mann.weights import MannWeights


@dataclass
class InferenceTrace:
    """Every intermediate of one question's forward pass.

    Shapes: L = used memory slots, E = embed dim, V = vocab, T = hops.
    """

    mem_a: np.ndarray  # (L, E) address memory after write
    mem_c: np.ndarray  # (L, E) content memory after write
    keys: list[np.ndarray] = field(default_factory=list)  # T x (E,)
    scores: list[np.ndarray] = field(default_factory=list)  # T x (L,)
    attentions: list[np.ndarray] = field(default_factory=list)  # T x (L,)
    reads: list[np.ndarray] = field(default_factory=list)  # T x (E,)
    controller_outputs: list[np.ndarray] = field(default_factory=list)  # T x (E,)
    logits: np.ndarray | None = None  # (V,)
    prediction: int | None = None

    @property
    def h_final(self) -> np.ndarray:
        return self.controller_outputs[-1]


class InferenceEngine:
    """Runs Eqs. 1-6 on frozen weights, one example at a time.

    Only the story's real sentences occupy memory slots; padding slots
    are excluded, mirroring the accelerator which writes exactly one
    memory element per streamed sentence.

    :meth:`forward_trace` is the batch engine (:attr:`batch`) run on a
    one-row batch. For deployment-shaped request/response serving over
    saved artifacts, use the facade: :func:`repro.serving.open_predictor`
    hides this engine, the vectorised
    :class:`~repro.mann.batch.BatchInferenceEngine` and the accelerator
    co-simulation behind one ``Predictor`` object.
    """

    def __init__(
        self,
        weights: MannWeights,
        mips_backend=None,
        *,
        threshold_model=None,
        **backend_params,
    ):
        self.weights = weights
        self.config = weights.config
        #: Vectorised engine over the same weights and MIPS backend; a
        #: bad backend choice fails here, at construction.
        self.batch = BatchInferenceEngine(
            weights, mips_backend, threshold_model=threshold_model, **backend_params
        )

    def forward_trace(self, story: np.ndarray, question: np.ndarray, n_sentences: int | None = None) -> InferenceTrace:
        """Full forward pass of one example, recording every intermediate:
        the batch engine's trace of the one-row batch ``story[:n]``."""
        story = np.asarray(story, dtype=np.int64)
        question = np.asarray(question, dtype=np.int64)
        if n_sentences is None:
            n_sentences = int(infer_story_lengths(story[None])[0])
        if not 1 <= n_sentences <= self.config.memory_size:
            raise ValueError(
                f"n_sentences={n_sentences} outside [1, {self.config.memory_size}]"
            )

        h, trace = self.batch._forward(
            story[None, :n_sentences], question[None], np.array([n_sentences]),
            record=True,
        )
        logits = self.batch._project(h)[0]  # Eq. 6
        return InferenceTrace(
            mem_a=trace.mem_a[0],
            mem_c=trace.mem_c[0],
            keys=[key[0] for key in trace.keys],
            scores=[scores[0] for scores in trace.scores],
            attentions=[attention[0] for attention in trace.attentions],
            reads=[read[0] for read in trace.reads],
            controller_outputs=[out[0] for out in trace.controller_outputs],
            logits=logits,
            prediction=int(np.argmax(logits)),
        )

    # -- batch helpers ---------------------------------------------------
    # All whole-batch entry points delegate to the vectorised
    # BatchInferenceEngine.
    def predict(self, stories: np.ndarray, questions: np.ndarray, lengths: np.ndarray | None = None) -> np.ndarray:
        """Vectorised predictions (no trace) for a whole encoded batch."""
        return self.batch.predict(stories, questions, lengths)

    def logits_batch(self, stories: np.ndarray, questions: np.ndarray, lengths: np.ndarray | None = None) -> np.ndarray:
        """Logit matrix (B, V) across a batch (used to fit thresholds)."""
        return self.batch.logits(stories, questions, lengths)

    def search_batch(self, stories, questions, lengths=None):
        """Stacked output-search results (requires a ``mips_backend``)."""
        return self.batch.search(stories, questions, lengths)

    def accuracy(self, stories, questions, answers, lengths=None) -> float:
        return self.batch.accuracy(stories, questions, answers, lengths)
