"""Request/response types and the ``Predictor`` protocol.

One typed surface for every way of answering a QA query — the
vectorised software engine (:class:`~repro.mann.batch.BatchInferenceEngine`)
with any registered MIPS backend, or the cycle-level accelerator
co-simulation (:class:`~repro.hw.accelerator.MannAccelerator`). Build
instances with :func:`repro.serving.open_predictor`; coalesce
individually submitted requests with
:class:`repro.serving.BatchScheduler`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

# Every serving error lives in repro.serving.errors; the ones a
# ``predict_batch`` or scheduler caller meets are re-exported here.
from repro.serving.errors import (
    DeadlineExceededError,
    InvalidRequestError,
    OverloadError,
)

__all__ = [
    "DeadlineExceededError",
    "InvalidRequestError",
    "OverloadError",
    "Predictor",
    "QueryRequest",
    "QueryResponse",
    "ServingStats",
]


@dataclass(frozen=True)
class QueryRequest:
    """One QA query: an encoded story matrix and question vector.

    ``story`` is ``(slots, sentence_len)`` int64 word indices (pad=0),
    ``question`` a ``(sentence_len,)`` index vector — the same encoding
    :class:`~repro.babi.dataset.BabiDataset.encode_example` produces.
    ``n_sentences`` pins the number of real story sentences; ``None``
    infers it from the last non-pad sentence, like the engines do.
    ``request_id`` is an opaque caller tag echoed on the response.
    ``task`` names the model that should answer — the route key of a
    :class:`~repro.serving.ModelRouter` (a bAbI task id); single-model
    predictors ignore it, and a single-route router accepts ``None``.
    ``deadline_s`` is the request's SLO budget in seconds *relative to
    submission*: the scheduler's deadline thread flushes early when the
    oldest pending budget is about to be consumed, completion within
    the budget counts toward :attr:`ServingStats.goodput_rate`, and
    under ``overload_policy="shed-expired"`` a request whose budget ran
    out before its flush resolves with :class:`DeadlineExceededError`.
    ``None`` (the default) means no deadline — pure throughput serving.
    """

    story: np.ndarray
    question: np.ndarray
    n_sentences: int | None = None
    request_id: int | str | None = None
    task: int | str | None = None
    deadline_s: float | None = None

    def __post_init__(self):
        story = np.asarray(self.story, dtype=np.int64)
        question = np.asarray(self.question, dtype=np.int64)
        if story.ndim != 2:
            raise ValueError(f"story must be 2-D, got shape {story.shape}")
        if question.ndim != 1:
            raise ValueError(f"question must be 1-D, got shape {question.shape}")
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )
        object.__setattr__(self, "story", story)
        object.__setattr__(self, "question", question)


@dataclass(frozen=True)
class QueryResponse:
    """The answer to one :class:`QueryRequest`.

    ``label`` is the predicted vocabulary index, ``answer`` the decoded
    word when the predictor knows the vocabulary. ``comparisons`` and
    ``early_exit`` surface the output-search statistics (the paper's
    Fig. 3 axes) regardless of device; ``logit`` is the winning score.
    ``latency_s`` is filled by :class:`~repro.serving.BatchScheduler`
    with the submit-to-answer wall time: it stamps a predictor's fresh
    response (``latency_s`` None) once, in place, before any caller
    sees it, and copies a response that already carries a latency.

    The serving hot path writes an instance's ``__dict__`` directly
    rather than through the frozen ``__init__``, which costs one
    ``object.__setattr__`` per field: the predictors' decode writes
    every field and the scheduler's stamp sets ``latency_s``.
    So the class keeps a ``__dict__`` (no ``__slots__``), and a field
    added here must be added to that decode too
    (``tests/serving/test_predictor.py`` checks every field).
    """

    label: int
    logit: float
    comparisons: int
    early_exit: bool
    answer: str | None = None
    request_id: int | str | None = None
    latency_s: float | None = None


@runtime_checkable
class Predictor(Protocol):
    """Anything that answers :class:`QueryRequest` objects.

    Implementations are device-shaped wrappers created by
    :func:`repro.serving.open_predictor`; ``predict_batch`` must accept
    requests with heterogeneous story slot counts (they are padded to a
    common shape internally). It answers row by row: a request the
    model cannot answer gets an
    :class:`~repro.serving.errors.InvalidRequestError` in its slot of
    the returned list, which ``predict`` raises and the
    :class:`~repro.serving.BatchScheduler` sets on that request's
    future alone.
    """

    def predict(self, request: QueryRequest) -> QueryResponse: ...

    def predict_batch(
        self, requests: Sequence[QueryRequest]
    ) -> list[QueryResponse | InvalidRequestError]: ...


class _Reservoir:
    """Bounded uniform sample with exact count / sum / max.

    Soak loads push millions of values through the stats; an unbounded
    list is a slow memory leak. Algorithm-R reservoir sampling keeps a
    fixed-size uniform sample for percentile estimates while the count,
    sum and maximum stay exact (so ``mean``/``max`` never degrade).
    The replacement RNG is seeded deterministically — statistics of a
    fixed request stream are reproducible run to run.
    """

    __slots__ = ("capacity", "count", "total", "maximum", "_sample", "_rng")

    def __init__(self, capacity: int, seed: int = 0x5EED):
        self.capacity = int(capacity)
        self.count = 0
        self.total = 0.0
        self.maximum = 0.0
        self._sample: list[float] = []
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.maximum:
            self.maximum = value
        if len(self._sample) < self.capacity:
            self._sample.append(value)
        else:
            j = self._rng.randrange(self.count)
            if j < self.capacity:
                self._sample[j] = value

    def extend(self, values) -> None:
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def sample(self) -> list[float]:
        return list(self._sample)

    def percentile(self, q: float) -> float:
        """The q-th percentile — exact while ``count <= capacity``,
        estimated from the uniform sample beyond it."""
        if not self._sample:
            return 0.0
        return float(np.percentile(self._sample, q))


@dataclass
class ServingStats:
    """Counters a predictor or scheduler accumulates while serving.

    ``batch_sizes`` is one entry per flush (the micro-batching win to
    watch) and ``latencies_s`` one per request — each a bounded
    reservoir sample (:data:`RESERVOIR_CAPACITY`) whose count, mean and
    max stay exact however long the router runs; percentiles
    (``p50_latency_s``/``p95_latency_s``/``p99_latency_s``) come from
    the sample. Story-cache counts live in each predictor's
    :class:`~repro.serving.cache.MemoryCache` (``predictor.cache.stats``).

    The SLO layer adds four exact counters: ``shed`` (submissions
    rejected with :class:`OverloadError` at the full queue), ``expired``
    (admitted requests dropped with :class:`DeadlineExceededError`
    because their budget ran out before the flush), and
    ``deadline_met``/``deadline_missed`` (deadline-carrying requests
    that completed within / past their budget). ``goodput_rate`` is the
    deadline-attainment fraction over every SLO-tracked outcome — shed
    and expired requests count *against* it, which is what makes it an
    honest open-loop metric. Per-flush execution wall time feeds the
    ``_service`` reservoir (``p95_service_s``), the base of the
    deadline thread's flush-time prediction.

    ``safety_net_wakeups`` counts async-frontend admission waits
    resolved by the lost-wakeup timer rather than a room callback — it
    should stay ~0; growth means wakeups are being lost.
    """

    RESERVOIR_CAPACITY = 4096

    requests: int = 0
    flushes: int = 0
    shed: int = 0
    expired: int = 0
    deadline_met: int = 0
    deadline_missed: int = 0
    # Always 0 (nothing replays a flush): perfbench/run.py reads it for
    # ``scheduler.retries``, which CI's perfbench-traced-smoke job runs.
    retries: int = 0
    safety_net_wakeups: int = 0
    _batch_sizes: _Reservoir = field(
        default_factory=lambda: _Reservoir(ServingStats.RESERVOIR_CAPACITY),
        repr=False,
    )
    _latencies: _Reservoir = field(
        default_factory=lambda: _Reservoir(ServingStats.RESERVOIR_CAPACITY),
        repr=False,
    )
    _service: _Reservoir = field(
        default_factory=lambda: _Reservoir(ServingStats.RESERVOIR_CAPACITY),
        repr=False,
    )

    def record_flush(
        self, batch_size: int, service_s: float | None = None
    ) -> None:
        self.flushes += 1
        self.requests += batch_size
        self._batch_sizes.add(batch_size)
        if service_s is not None:
            self._service.add(service_s)

    def record_latencies(self, latencies_s) -> None:
        self._latencies.extend(latencies_s)

    def record_shed(self, n: int = 1) -> None:
        """Count submissions rejected at the full queue (OverloadError)."""
        self.shed += n

    def record_expired(self, n: int = 1) -> None:
        """Count admitted requests dropped past-deadline (shed-expired)."""
        self.expired += n

    def record_deadline_outcomes(self, met: int, missed: int) -> None:
        """Count completed deadline-carrying requests by attainment."""
        self.deadline_met += met
        self.deadline_missed += missed

    def record_safety_net(self, n: int = 1) -> None:
        """Count admission waits the lost-wakeup safety net resolved."""
        self.safety_net_wakeups += n

    # -- sampled series (bounded views; exact below capacity) ----------
    @property
    def batch_sizes(self) -> list[float]:
        return self._batch_sizes.sample

    @property
    def latencies_s(self) -> list[float]:
        return self._latencies.sample

    @property
    def latency_count(self) -> int:
        """Exact number of latencies recorded (>= len(latencies_s))."""
        return self._latencies.count

    # -- derived -------------------------------------------------------
    @property
    def mean_batch_size(self) -> float:
        return self._batch_sizes.mean

    @property
    def mean_latency_s(self) -> float:
        return self._latencies.mean

    @property
    def max_latency_s(self) -> float:
        return self._latencies.maximum if self._latencies.count else 0.0

    @property
    def p50_latency_s(self) -> float:
        return self._latencies.percentile(50.0)

    @property
    def p95_latency_s(self) -> float:
        return self._latencies.percentile(95.0)

    @property
    def p99_latency_s(self) -> float:
        return self._latencies.percentile(99.0)

    # -- SLO / deadline accounting -------------------------------------
    @property
    def service_s(self) -> list[float]:
        """Per-flush execution wall times (bounded sample)."""
        return self._service.sample

    @property
    def mean_service_s(self) -> float:
        return self._service.mean

    @property
    def p95_service_s(self) -> float:
        return self._service.percentile(95.0)

    @property
    def offered(self) -> int:
        """Every submission seen: executed + shed + expired."""
        return self.requests + self.shed + self.expired

    @property
    def deadline_outcomes(self) -> int:
        """SLO-tracked outcomes: deadline completions + shed + expired."""
        return self.deadline_met + self.deadline_missed + self.shed + self.expired

    @property
    def goodput_rate(self) -> float:
        """Deadline-attainment fraction: in-budget completions over every
        SLO-tracked outcome (shed/expired count against; 0.0 when no
        request carried a deadline and nothing was shed)."""
        outcomes = self.deadline_outcomes
        return self.deadline_met / outcomes if outcomes else 0.0
