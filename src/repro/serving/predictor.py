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

Every device checks each flush once, row by row, before it runs: a
request its model cannot answer gets an
:class:`~repro.serving.errors.InvalidRequestError` in its slot of the
``predict_batch`` result (``predict`` raises it), and the other rows
are answered as if it had never been in the flush.
"""

from __future__ import annotations

from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.babi.dataset import EncodedBatch
from repro.babi.vocab import Vocab
from repro.eval.suite import BabiSuite, TaskSystem
from repro.hw.accelerator import MannAccelerator
from repro.hw.config import HwConfig
from repro.mann.batch import BatchInferenceEngine, EngineStack, infer_story_lengths
from repro.mips.stats import BatchSearchResult
from repro.serving.api import QueryRequest, QueryResponse
from repro.serving.cache import MemoryCache
from repro.serving.errors import InvalidRequestError

DEVICES = ("sw", "hw")


def _stack_requests(
    requests: Sequence[QueryRequest],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pad heterogeneous requests into (stories, questions, slots, pinned).

    Stories are padded to the widest slot/word count of the batch
    (zeros are semantically inert everywhere in the model). ``slots``
    holds each request's own story length and ``pinned`` its
    ``n_sentences`` as a float, NaN where the engines infer it.
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
    # numpy turns None into NaN in a float array.
    pinned = np.array([r.n_sentences for r in requests], dtype=np.float64)
    return stories, questions, slots, pinned


def _invalid_requests(
    requests, stories, questions, slots, pinned, memory_size, vocab_size
) -> dict[int, InvalidRequestError]:
    """The rows of a stacked flush their model cannot answer, each with
    an :class:`InvalidRequestError` naming why (empty when all are valid).

    One vectorised pass checks every row against its own story, memory
    size (one per row when the rows run on different models) and
    vocabulary size: a word outside ``[0, vocab_size)``, a story with no
    slots or more than the memory holds, or ``n_sentences`` outside
    ``[1, slots]``. Acceptance therefore never depends on co-batching.
    """
    # As unsigned, a negative index exceeds any vocabulary size, so one
    # maximum per row bounds both ends. Pad words (0) are always valid.
    story_words = (
        stories.reshape(len(stories), -1).view(np.uint64).max(axis=1, initial=0)
        >= vocab_size
    )
    question_words = questions.view(np.uint64).max(axis=1, initial=0) >= vocab_size
    bad_slots = (slots < 1) | (slots > memory_size)
    bad_pinned = (pinned < 1) | (pinned > slots)  # NaN (inferred) passes
    bad = story_words | question_words | bad_slots | bad_pinned
    if not bad.any():
        return {}
    memory_size = np.broadcast_to(memory_size, bad.shape)
    invalid = {}
    for i in np.flatnonzero(bad).tolist():
        if story_words[i] or question_words[i]:
            where = "story" if story_words[i] else "question"
            reason = f"a {where} word index is outside [0, {vocab_size})"
        elif bad_slots[i]:
            reason = (
                f"story has {slots[i]} slots, model supports 1 to "
                f"{memory_size[i]}"
            )
        else:
            reason = (
                f"n_sentences={requests[i].n_sentences} outside "
                f"[1, {slots[i]}] for a {slots[i]}-slot story"
            )
        invalid[i] = InvalidRequestError(reason)
    return invalid


def _lengths(stories: np.ndarray, pinned: np.ndarray) -> np.ndarray:
    """Each row's story length: its ``n_sentences`` when pinned, else
    the engines' usual last-non-pad inference."""
    inferred = np.isnan(pinned)
    if not inferred.any():
        return pinned.astype(np.int64)
    # Padding slots are all-zero, so inferring on the padded batch
    # equals inferring on each request's own story.
    return np.where(inferred, infer_story_lengths(stories), pinned).astype(np.int64)


def _predict_valid(requests, memory_size, vocab_size, answer) -> list:
    """One predictor call: answer the valid requests, reject the rest.

    ``answer(valid, rows, stories, questions, lengths)`` answers the
    valid requests, ``rows`` indexing them in ``requests``. Each invalid
    request (see :func:`_invalid_requests`) gets its
    :class:`InvalidRequestError` in its slot of the returned list. The
    valid ones are stacked again on their own, so they get exactly the
    arrays, and the answers, of a flush that never held an invalid one.
    """
    stories, questions, slots, pinned = _stack_requests(requests)
    invalid = _invalid_requests(
        requests, stories, questions, slots, pinned, memory_size, vocab_size
    )
    if not invalid:
        return answer(
            requests, slice(None), stories, questions, _lengths(stories, pinned)
        )
    rows = np.array([i for i in range(len(requests)) if i not in invalid])
    answers = iter(())
    if rows.size:
        valid = [requests[i] for i in rows]
        stories, questions, _, pinned = _stack_requests(valid)
        answers = iter(
            answer(valid, rows, stories, questions, _lengths(stories, pinned))
        )
    return [
        invalid[i] if i in invalid else next(answers) for i in range(len(requests))
    ]


def _decode(requests, result: BatchSearchResult, vocabs) -> list[QueryResponse]:
    """The responses of one engine call: row ``i`` of ``result`` answers
    ``requests[i]``, its label decoded in the ``i``-th item of
    ``vocabs`` (None leaves ``answer`` unset).

    Each response is a bare instance whose ``__dict__`` is filled
    directly: the frozen dataclass's ``__init__`` spends one
    ``object.__setattr__`` per field, about four times as long.
    """
    new = object.__new__
    responses = []
    # tolist() converts each array to Python scalars in one call.
    for request, vocab, label, logit, count, early in zip(
        requests,
        vocabs,
        result.labels.tolist(),
        result.logits.tolist(),
        result.comparisons.tolist(),
        result.early_exits.tolist(),
    ):
        response = new(QueryResponse)
        # Item by item, in field order, the dict shares the class's keys
        # (dict.update would give each response its own key table).
        values = response.__dict__
        values["label"] = label
        values["logit"] = logit
        values["comparisons"] = count
        values["early_exit"] = early
        values["answer"] = (
            vocab.word(label) if vocab is not None and label >= 0 else None
        )
        values["request_id"] = request.request_id
        values["latency_s"] = None
        responses.append(response)
    return responses


def first_answer(answers: list) -> QueryResponse:
    """``predict``'s result from a one-request ``predict_batch``: the
    response, or its :class:`InvalidRequestError` raised."""
    (answer,) = answers
    if isinstance(answer, InvalidRequestError):
        raise answer
    return answer


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
        return first_answer(self.predict_batch([request]))

    def predict_batch(
        self, requests: Sequence[QueryRequest]
    ) -> list[QueryResponse | InvalidRequestError]:
        config = self.engine.config
        return _predict_valid(
            requests, config.memory_size, config.vocab_size, self._search
        )

    def _search(self, requests, rows, stories, questions, lengths):
        result = self.engine.search(stories, questions, lengths)
        return _decode(requests, result, repeat(self.vocab))


class PredictorStack:
    """Same-shaped software routes answered with one engine call.

    Wraps an :class:`~repro.mann.batch.EngineStack` over the routes'
    engines. :meth:`predict_rows` runs a flush's rows, in submission
    order, through one forward pass and output search, and decodes them
    in one pass, each row with its own route's vocabulary: every
    response equals the one the route's own ``predict_batch`` would
    give, bit for bit, invalid requests included.
    """

    def __init__(self, predictors: Sequence[SoftwarePredictor]):
        self.predictors = list(predictors)
        self.engine = EngineStack([p.engine for p in self.predictors])
        self._memory_sizes = np.array(
            [p.engine.config.memory_size for p in self.predictors]
        )
        # The stack key holds the vocabulary size: every member shares it.
        self._vocab_size = self.predictors[0].engine.config.vocab_size
        self._vocabs = [p.vocab for p in self.predictors]

    @staticmethod
    def key(predictor) -> tuple | None:
        """Predictors with equal keys can stack. None — the hw device,
        custom predictors, story-cached engines, other backends — keeps
        the predictor's own ``predict_batch``."""
        if type(predictor) is not SoftwarePredictor:
            return None
        return EngineStack.key(predictor.engine)

    def predict_rows(
        self, requests: Sequence[QueryRequest], route: Sequence[int]
    ) -> list[QueryResponse | InvalidRequestError]:
        """Answer ``requests`` in one engine call, row ``i`` on the
        member ``route[i]`` indexes in :attr:`predictors`; one response
        (or :class:`InvalidRequestError`) per request, in order."""
        route = np.asarray(route, dtype=np.int64)
        return _predict_valid(
            requests,
            self._memory_sizes[route],
            self._vocab_size,
            lambda valid, rows, *arrays: self._search(valid, route[rows], *arrays),
        )

    def _search(self, requests, route, stories, questions, lengths):
        result = self.engine.search(stories, questions, lengths, route)
        return _decode(requests, result, [self._vocabs[m] for m in route.tolist()])


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
        return first_answer(self.predict_batch([request]))

    def predict_batch(
        self, requests: Sequence[QueryRequest]
    ) -> list[QueryResponse | InvalidRequestError]:
        config = self.accelerator.weights.config
        return _predict_valid(
            requests, config.memory_size, config.vocab_size, self._run
        )

    def _run(self, requests, rows, stories, questions, lengths):
        batch = EncodedBatch(
            stories=stories,
            questions=questions,
            answers=np.zeros(len(requests), dtype=np.int64),  # unknown at serve time
            story_lengths=lengths,
        )
        report = self.accelerator.run(
            batch, include_model_transfer=False, keep_examples=True
        )
        runs = report.examples
        result = BatchSearchResult(
            labels=[run.prediction for run in runs],
            logits=[run.logit for run in runs],
            comparisons=[run.comparisons for run in runs],
            early_exits=[run.early_exit for run in runs],
        )
        return _decode(requests, result, repeat(self.vocab))


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
    (:class:`~repro.serving.cache.MemoryCache`), an LRU of that many
    stories keyed by each story's exact tokens: replayed stories skip
    the memory-write phase (Eqs. 1–2) bit-identically. Software device
    only.
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
            MemoryCache(capacity_entries=cache_entries)
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
