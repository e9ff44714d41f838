"""Device-shaped predictors and the ``open_predictor`` factory.

``open_predictor`` is the one call that turns *anything holding a
trained model* — an artifact directory written by
:func:`repro.artifacts.save_suite`, an in-memory
:class:`~repro.eval.suite.BabiSuite`, or a single
:class:`~repro.eval.suite.TaskSystem` — into a
:class:`~repro.serving.api.Predictor` answering typed
:class:`~repro.serving.api.QueryRequest` objects, hiding the
``InferenceEngine`` / ``BatchInferenceEngine`` / accelerator-co-sim
split behind one object::

    predictor = open_predictor("artifacts/", task_id=1,
                               mips_backend="threshold", rho=0.99)
    response = predictor.predict(QueryRequest(story, question))

``device="sw"`` serves through the vectorised batch engine with any
registered MIPS backend; ``device="hw"`` serves through the cycle-level
FPGA co-simulation (same request/response types, orders of magnitude
slower — it is a simulator).
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.babi.dataset import EncodedBatch
from repro.babi.vocab import Vocab
from repro.eval.suite import BabiSuite, TaskSystem
from repro.hw.accelerator import MannAccelerator
from repro.hw.config import HwConfig
from repro.mann.batch import BatchInferenceEngine, EngineStack, infer_story_lengths
from repro.serving.api import QueryRequest, QueryResponse
from repro.serving.cache import MemoryCache

DEVICES = ("sw", "hw")


def _stack_requests(
    requests: Sequence[QueryRequest], memory_size: int | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad heterogeneous requests into (stories, questions, lengths).

    Stories are padded to the widest slot/word count of the batch
    (zeros are semantically inert everywhere in the model); lengths use
    the request's ``n_sentences`` when pinned, else the engines' usual
    last-non-pad inference. ``memory_size`` is the model's memory, or
    one per request when the rows run on different models; a request's
    own story must fit it.
    """
    if not requests:
        raise ValueError("need at least one request")
    batch = len(requests)
    story_shape = requests[0].story.shape
    words = requests[0].question.shape[0]
    if story_shape[1] == words and all(
        r.story.shape == story_shape and r.question.shape[0] == words
        for r in requests
    ):
        # Every request already has the batch's shape: one stacking
        # call per array (np.array stacks same-shaped arrays like
        # np.stack, without its per-array view overhead).
        slots = np.full(batch, story_shape[0])
        stories = np.array([r.story for r in requests])
        questions = np.array([r.question for r in requests])
    else:
        slots = np.array([r.story.shape[0] for r in requests])
        words = max(
            max(r.story.shape[1] for r in requests),
            max(r.question.shape[0] for r in requests),
        )
        stories = np.zeros((batch, slots.max(), words), dtype=np.int64)
        questions = np.zeros((batch, words), dtype=np.int64)
        for i, request in enumerate(requests):
            s, q = request.story, request.question
            stories[i, : s.shape[0], : s.shape[1]] = s
            questions[i, : q.shape[0]] = q
    too_long = slots > memory_size
    if too_long.any():
        i = int(np.argmax(too_long))
        raise ValueError(
            f"request story has {slots[i]} slots, model supports "
            f"{np.broadcast_to(memory_size, (batch,))[i]}"
        )
    pinned = np.array(
        [-1 if r.n_sentences is None else r.n_sentences for r in requests]
    )  # -1 = infer
    # Validate against each request's OWN story, not the padded batch
    # width — acceptance must not depend on co-batching.
    bad = (pinned != -1) & ((pinned < 1) | (pinned > slots))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"n_sentences={pinned[i]} outside [1, {slots[i]}] for a "
            f"{slots[i]}-slot story"
        )
    if (pinned > 0).all():
        return stories, questions, pinned
    # Padding slots are all-zero, so inferring on the padded batch
    # equals inferring on each request's own story.
    lengths = np.where(pinned > 0, pinned, infer_story_lengths(stories))
    return stories, questions, lengths


class SoftwarePredictor:
    """Serves queries through the vectorised batch inference engine.

    Every flush is one ``search_batch`` call on the configured MIPS
    backend — the same kernel the evaluation suite runs — so per-request
    comparison counts and early-exit flags come back for free.
    """

    device = "sw"

    def __init__(
        self,
        engine: BatchInferenceEngine,
        vocab: Vocab | None = None,
        task_id: int | None = None,
    ):
        if engine.mips is None:
            raise ValueError(
                "serving engine needs a MIPS backend; build via open_predictor"
            )
        self.engine = engine
        self.vocab = vocab
        self.task_id = task_id
        #: The engine's story-encoding cache (None when caching is off).
        self.cache = engine.memory_cache

    def predict(self, request: QueryRequest) -> QueryResponse:
        return self.predict_batch([request])[0]

    def _responses(
        self, requests, labels, logits, comparisons, early_exits
    ) -> list[QueryResponse]:
        """Decode stacked result arrays into responses (this route's
        own call and a :class:`PredictorStack` call share it)."""
        word = self.vocab.word if self.vocab is not None else None
        # tolist() converts each array to Python scalars in one call.
        return [
            QueryResponse(
                label=label,
                logit=logit,
                comparisons=count,
                early_exit=early,
                answer=word(label) if word is not None and label >= 0 else None,
                request_id=request.request_id,
            )
            for request, label, logit, count, early in zip(
                requests,
                np.asarray(labels).tolist(),
                np.asarray(logits).tolist(),
                np.asarray(comparisons).tolist(),
                np.asarray(early_exits).tolist(),
            )
        ]

    def predict_batch(
        self, requests: Sequence[QueryRequest]
    ) -> list[QueryResponse]:
        stories, questions, lengths = _stack_requests(
            requests, self.engine.config.memory_size
        )
        results = self.engine.search(stories, questions, lengths)
        return self._responses(
            requests,
            results.labels,
            results.logits,
            results.comparisons,
            results.early_exits,
        )

    # -- story-encoding cache hooks ------------------------------------
    def cache_counters(self) -> tuple[int, int, int] | None:
        """Cumulative cache ``(hits, misses, evictions)``, or None when
        caching is off — the scheduler mirrors this into its stats."""
        return self.cache.counters() if self.cache is not None else None


class PredictorStack:
    """Same-shaped software routes answered with one engine call.

    Wraps an :class:`~repro.mann.batch.EngineStack` over the routes'
    engines. :meth:`predict_groups` stacks the requests of several
    routes, runs one forward pass and output search, and decodes each
    route's rows with that route's own decoder: every response equals
    the one the route's own ``predict_batch`` would give, bit for bit.
    """

    def __init__(self, predictors: Sequence[SoftwarePredictor]):
        self.predictors = list(predictors)
        self.engine = EngineStack([p.engine for p in self.predictors])
        self._memory_sizes = np.array(
            [p.engine.config.memory_size for p in self.predictors]
        )

    @staticmethod
    def key(predictor) -> tuple | None:
        """Predictors with equal keys can stack. None — the hw device,
        wrapped or custom predictors, story-cached engines, other
        backends — keeps the predictor's own ``predict_batch``."""
        if type(predictor) is not SoftwarePredictor:
            return None
        return EngineStack.key(predictor.engine)

    def predict_groups(
        self, groups: Sequence[tuple[int, Sequence[QueryRequest]]]
    ) -> list[list[QueryResponse]]:
        """Answer ``(member, requests)`` groups, ``member`` indexing
        :attr:`predictors`, in one engine call; one response list per
        group."""
        members = [member for member, _ in groups]
        sizes = [len(requests) for _, requests in groups]
        requests = [r for _, group in groups for r in group]
        route = np.repeat(members, sizes)
        stories, questions, lengths = _stack_requests(
            requests, self._memory_sizes[route]
        )
        result = self.engine.search(stories, questions, lengths, route)
        answered, start = [], 0
        for member, group in groups:
            rows = slice(start, start + len(group))
            start = rows.stop
            answered.append(
                self.predictors[member]._responses(
                    group,
                    result.labels[rows],
                    result.logits[rows],
                    result.comparisons[rows],
                    result.early_exits[rows],
                )
            )
        return answered


class HardwarePredictor:
    """Serves queries through the cycle-level accelerator co-simulation.

    Each flush streams the requests through the five-module pipeline
    (:class:`~repro.hw.accelerator.MannAccelerator`); responses carry
    the OUTPUT module's scan statistics. The weights are considered
    resident on the device, so per-flush runs skip the one-off model
    transfer.
    """

    device = "hw"

    def __init__(
        self,
        accelerator: MannAccelerator,
        vocab: Vocab | None = None,
        task_id: int | None = None,
    ):
        self.accelerator = accelerator
        self.vocab = vocab
        self.task_id = task_id

    def predict(self, request: QueryRequest) -> QueryResponse:
        return self.predict_batch([request])[0]

    def predict_batch(
        self, requests: Sequence[QueryRequest]
    ) -> list[QueryResponse]:
        memory_size = self.accelerator.weights.config.memory_size
        stories, questions, lengths = _stack_requests(requests, memory_size)
        batch = EncodedBatch(
            stories=stories,
            questions=questions,
            answers=np.zeros(len(requests), dtype=np.int64),  # unknown at serve time
            story_lengths=lengths,
        )
        report = self.accelerator.run(
            batch, include_model_transfer=False, keep_examples=True
        )
        return [
            QueryResponse(
                label=run.prediction,
                logit=float(run.logit),
                comparisons=run.comparisons,
                early_exit=run.early_exit,
                answer=(
                    self.vocab.word(run.prediction)
                    if self.vocab is not None and run.prediction >= 0
                    else None
                ),
                request_id=request.request_id,
            )
            for request, run in zip(requests, report.examples)
        ]


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------
def _resolve_system(
    artifacts, task_id: int | None
) -> tuple[TaskSystem, Vocab | None]:
    """Accept a path / BabiSuite / TaskSystem and pick one task."""
    if isinstance(artifacts, TaskSystem):
        if task_id is not None and task_id != artifacts.task_id:
            raise ValueError(
                f"task_id={task_id} does not match the given system "
                f"(task {artifacts.task_id})"
            )
        return artifacts, artifacts.train.vocab if artifacts.train else None
    if isinstance(artifacts, (str, Path)):
        from repro.artifacts import load_suite

        artifacts = load_suite(artifacts)
    if not isinstance(artifacts, BabiSuite):
        raise TypeError(
            "artifacts must be an artifact directory path, a BabiSuite "
            f"or a TaskSystem, got {type(artifacts).__name__}"
        )
    if task_id is None:
        if len(artifacts.tasks) != 1:
            raise ValueError(
                f"suite holds tasks {artifacts.task_ids}; pass task_id="
            )
        task_id = artifacts.task_ids[0]
    if task_id not in artifacts.tasks:
        raise KeyError(
            f"task {task_id} not in artifacts (available: {artifacts.task_ids})"
        )
    return artifacts.tasks[task_id], artifacts.vocab


def open_predictor(
    artifacts,
    task_id: int | None = None,
    *,
    device: str = "sw",
    mips_backend: str = "exact",
    hw_config: HwConfig | None = None,
    quantized: bool = False,
    cache_entries: int | None = None,
    cache_bytes: int | None = None,
    **params,
):
    """Open a unified :class:`Predictor` over saved or in-memory models.

    ``artifacts`` is an artifact directory (``str``/``Path``, as written
    by :func:`repro.artifacts.save_suite`), a built
    :class:`~repro.eval.suite.BabiSuite`, or a single
    :class:`~repro.eval.suite.TaskSystem`. ``task_id`` selects the task
    (optional when the suite holds exactly one). ``mips_backend`` is any
    registered ``repro.mips`` name. ``quantized=True`` serves the
    fixed-point weights persisted in the artifacts
    (``save_suite(..., qformat=...)``) instead of the float model.
    ``**params`` are backend build
    parameters (``rho``, ``index_ordering``, ``seed``, ...). On
    ``device="hw"`` the backend runs inside the accelerator's OUTPUT
    module via ``hw_config`` (only ``rho``/``index_ordering`` tune it).

    ``cache_entries`` enables the cross-request story-encoding cache
    (:class:`~repro.serving.cache.MemoryCache`): replayed stories skip
    the memory-write phase (Eqs. 1–2) bit-identically. It bounds the
    LRU in entries; ``cache_bytes`` optionally bounds resident payload
    bytes. Software device only.
    """
    if device not in DEVICES:
        raise ValueError(f"unknown device {device!r}; expected one of {DEVICES}")
    if device != "sw" and cache_entries is not None:
        raise ValueError(
            "cache_entries= memoises the software engine's memory-write "
            "phase; device='hw' simulates every write cycle-by-cycle"
        )
    system, vocab = _resolve_system(artifacts, task_id)

    weights = system.weights
    if quantized:
        if system.quantized is None:
            raise ValueError(
                "artifacts hold no quantized weights; save them with "
                "save_suite(..., qformat=QFormat(m, n))"
            )
        weights = system.quantized.weights

    if device == "sw":
        from repro.mann.batch import BatchInferenceEngine

        memory_cache = (
            MemoryCache(
                capacity_entries=cache_entries, capacity_bytes=cache_bytes
            )
            if cache_entries is not None
            else None
        )
        engine = BatchInferenceEngine(
            weights,
            mips_backend,
            threshold_model=system.threshold_model,
            memory_cache=memory_cache,
            **params,
        )
        return SoftwarePredictor(engine, vocab=vocab, task_id=system.task_id)

    unsupported = set(params) - {"rho", "index_ordering"}
    if unsupported:
        raise ValueError(
            f"device='hw' does not accept backend params {sorted(unsupported)}; "
            "only rho/index_ordering tune the OUTPUT module"
        )
    config = (hw_config or HwConfig()).with_embed_dim(
        weights.config.embed_dim
    )
    config = config.with_ith(
        config.ith_enabled,
        rho=params.get("rho"),
        index_ordering=params.get("index_ordering"),
    ).with_mips_backend(mips_backend)
    accelerator = MannAccelerator(
        weights, config, threshold_model=system.threshold_model
    )
    return HardwarePredictor(accelerator, vocab=vocab, task_id=system.task_id)
