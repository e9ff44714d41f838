"""Serving-first public API: one facade over every inference path.

The deployment story of the repro in three calls::

    from repro.serving import open_predictor, BatchScheduler, QueryRequest

    predictor = open_predictor("artifacts/", task_id=1,
                               mips_backend="threshold", rho=1.0)
    with BatchScheduler(predictor, max_batch=32) as scheduler:
        future = scheduler.submit(QueryRequest(story, question))
        print(future.result().answer)

* :func:`open_predictor` — turns saved artifacts
  (:mod:`repro.artifacts`), a built suite or a single task system into
  a :class:`Predictor`, on ``device="sw"`` (vectorised batch engine,
  any registered MIPS backend) or ``device="hw"`` (cycle-level FPGA
  co-simulation) — same :class:`QueryRequest`/:class:`QueryResponse`
  types either way.
* :class:`BatchScheduler` — coalesces individually submitted requests
  into vectorised flushes (max-batch / max-wait), each one
  ``predict_batch`` call run inline by the thread that flushes,
  recording request and flush counts, per-request latency and
  per-flush service times in :class:`ServingStats`.
* :class:`ModelRouter` — many named predictors (one per bAbI task)
  behind one shared scheduler, routed by ``QueryRequest.task`` with
  per-route statistics; same-shaped routes answer a mixed flush with
  one engine call::

      with ModelRouter.open("artifacts/") as r:
          answer = r.submit(QueryRequest(story, question, task=6)).result()
* :class:`MemoryCache` — the cross-request story-encoding cache
  (``cache_entries=`` on :func:`open_predictor` / ``ModelRouter.open``):
  replayed stories skip the memory-write phase (Eqs. 1–2)
  bit-identically; each cache counts its own hits in
  ``predictor.cache.stats``.
* :class:`AsyncFrontend` — the asyncio front door: awaitable queries
  with per-request SLO deadlines (``deadline_s``), admission control
  over a bounded queue that sheds at the door (``queue_cap`` +
  ``overload_policy`` — :data:`OVERLOAD_POLICIES`, ``"shed"`` or
  ``"shed-expired"``), typed :class:`OverloadError` /
  :class:`DeadlineExceededError`, and a deadline thread that flushes
  early when the predicted flush time (the p95 of recorded flush
  times in :class:`ServingStats`) would eat a request's remaining
  slack::

      async with AsyncFrontend(
          ModelRouter.open("artifacts/", inline_flush=False,
                           queue_cap=256, overload_policy="shed"),
          default_deadline_s=0.05,
      ) as frontend:
          response = await frontend.query(request)

* **Typed errors** (:mod:`repro.serving.errors`) — every request
  resolves with an answer or with one of :class:`OverloadError`,
  :class:`DeadlineExceededError`, :class:`SchedulerClosedError` or
  :class:`InvalidRequestError`. Predictors check each flush row by
  row: a malformed request fails alone, and the rest of its flush is
  answered.

All serving timestamps come from one :class:`Clock`
(:data:`MONOTONIC`); tests swap in a :class:`ManualClock`.
"""

from repro.serving.api import (
    Predictor,
    QueryRequest,
    QueryResponse,
    ServingStats,
)
from repro.serving.cache import CacheStats, MemoryCache
from repro.serving.clock import MONOTONIC, Clock, ManualClock
from repro.serving.errors import (
    DeadlineExceededError,
    InvalidRequestError,
    OverloadError,
    SchedulerClosedError,
    ServingError,
)
from repro.serving.frontend import AsyncFrontend
from repro.serving.predictor import (
    DEVICES,
    HardwarePredictor,
    SoftwarePredictor,
    open_predictor,
)
from repro.serving.router import ModelRouter
from repro.serving.scheduler import OVERLOAD_POLICIES, BatchScheduler

__all__ = [
    "AsyncFrontend",
    "BatchScheduler",
    "CacheStats",
    "Clock",
    "DeadlineExceededError",
    "InvalidRequestError",
    "ManualClock",
    "MONOTONIC",
    "OVERLOAD_POLICIES",
    "OverloadError",
    "SchedulerClosedError",
    "ServingError",
    "DEVICES",
    "HardwarePredictor",
    "MemoryCache",
    "ModelRouter",
    "Predictor",
    "QueryRequest",
    "QueryResponse",
    "ServingStats",
    "SoftwarePredictor",
    "open_predictor",
]
