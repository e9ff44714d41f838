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

import math
import random
import sys
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
    """Bounded uniform sample with exact count and sum.

    Soak loads push millions of values through the stats; an unbounded
    list is a slow memory leak. Reservoir sampling keeps a fixed-size
    uniform sample for percentile estimates while the count and sum
    stay exact (so ``mean`` never degrades).

    The sampler is Li's Algorithm L (ACM TOMS 1994): once the sample is
    full it draws how many values to pass over before the next one
    enters, so a value that does not enter costs a counter step and no
    random draw. Over ``n`` values it draws ``O(k log(n / k))`` times,
    where Algorithm R drew once per value. The RNG is seeded
    deterministically — statistics of a fixed request stream are
    reproducible run to run. A percentile is computed once per state of
    the sample and kept until a value enters it.
    """

    __slots__ = (
        "capacity", "count", "total",
        "_sample", "_rng", "_log_w", "_next", "_percentiles",
    )

    def __init__(self, capacity: int, seed: int = 0x5EED):
        self.capacity = int(capacity)
        self.count = 0
        self.total = 0.0
        self._sample: list[float] = []
        self._rng = random.Random(seed)
        self._log_w = 0.0  # log of Algorithm L's W
        self._next = self.capacity  # number of the next value to enter
        self._percentiles: dict[float, float] = {}

    def add(self, value: float) -> None:
        self.extend((value,))

    def extend(self, values) -> None:
        values = list(values)
        if not values:
            return
        first = self.count  # values[i] is value number first + i + 1
        self.count += len(values)
        self.total += sum(values)
        sample = self._sample
        if len(sample) < self.capacity:
            sample.extend(values[: self.capacity - len(sample)])
            self._percentiles.clear()
            if len(sample) < self.capacity:
                return
            self._skip()
        while self._next <= self.count:
            sample[self._rng.randrange(self.capacity)] = values[self._next - first - 1]
            self._percentiles.clear()
            self._skip()

    def _skip(self) -> None:
        """Shrink W by a Beta(k, 1) factor and pass over a geometric
        number of values (success probability W) to the next entrant.
        ``1 - random()`` lies in (0, 1], so each log is finite; 1 - W is
        floored at the smallest normal float, where the skip is 0."""
        draw = self._rng.random
        self._log_w += math.log(1.0 - draw()) / self.capacity
        spare = max(-math.expm1(self._log_w), sys.float_info.min)
        self._next += int(math.log(1.0 - draw()) / math.log(spare)) + 1

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
        value = self._percentiles.get(q)
        if value is None:
            value = self._percentiles[q] = float(np.percentile(self._sample, q))
        return value


@dataclass
class ServingStats:
    """Counters a predictor or scheduler accumulates while serving.

    ``requests`` and ``flushes`` are exact counts, and their ratio is
    ``mean_batch_size`` (the micro-batching win to watch).
    ``latencies_s`` is one entry per request, a bounded reservoir
    sample (:data:`RESERVOIR_CAPACITY`) whose mean stays exact however
    long the router runs; percentiles
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
    """

    RESERVOIR_CAPACITY = 4096

    requests: int = 0
    flushes: int = 0
    shed: int = 0
    expired: int = 0
    deadline_met: int = 0
    deadline_missed: int = 0
    # Always 0 (nothing replays a flush, and no admission waits):
    # perfbench/run.py reads them for ``scheduler.retries`` and
    # ``frontend.safety_net_wakeups``, which CI's perfbench-traced-smoke
    # job runs.
    retries: int = 0
    safety_net_wakeups: int = 0
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

    # -- sampled series (a bounded view; exact below capacity) ---------
    @property
    def latencies_s(self) -> list[float]:
        return self._latencies.sample

    # -- derived -------------------------------------------------------
    @property
    def mean_batch_size(self) -> float:
        return self.requests / self.flushes if self.flushes else 0.0

    @property
    def mean_latency_s(self) -> float:
        return self._latencies.mean

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
    def p95_service_s(self) -> float:
        """The p95 flush wall time. The deadline thread reads it on every
        deadline-carrying wake; it is recomputed only after a flush time
        enters the sample."""
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
