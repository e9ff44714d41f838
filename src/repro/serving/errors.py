"""Typed serving errors and the transient-vs-permanent taxonomy.

Every way a request can fail gets one exception type, and every type
gets a recovery verdict. The taxonomy is what the resilience layer
(:mod:`repro.serving.resilience`) keys on:

* **transient** — the failure is an artifact of *this attempt*, not of
  the request: a flush worker crashed, an executor broke, an injected
  chaos fault fired. Predictions are pure functions of the
  request and the frozen weights, so replaying a transient failure is
  safe and bit-identical — the :class:`~repro.serving.resilience.RetryPolicy`
  retries these.
* **permanent** — the request itself (or the route serving it) is the
  problem: a malformed story, a corrupted payload, an unknown task, a
  spent deadline budget. Retrying reproduces the same failure and burns
  scheduler capacity; these resolve to the caller immediately.

Admission/SLO errors (:class:`OverloadError`,
:class:`DeadlineExceededError`) live here too so the whole failure
surface imports from one module; :mod:`repro.serving.api` re-exports
them for compatibility.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor


class ServingError(RuntimeError):
    """Base of every serving-layer failure this package raises."""


class OverloadError(ServingError):
    """The bounded pending queue is full and the admission policy sheds.

    Raised *at submission* by :meth:`BatchScheduler.submit` /
    ``submit_nowait`` when ``queue_cap`` is reached under
    ``overload_policy="shed"`` (or ``"shed-expired"`` with no expired
    entry to evict, or a non-blocking submit under ``"block"``). The
    request was never enqueued — nothing to await, nothing stranded.
    """


class DeadlineExceededError(TimeoutError):
    """A request's deadline passed before its flush executed.

    Under ``overload_policy="shed-expired"`` the scheduler drops queued
    requests whose ``deadline_s`` budget is already spent instead of
    wasting a flush slot on an answer nobody can use in time; their
    futures resolve with this exception (subclass of
    :class:`TimeoutError`, so generic timeout handling catches it).
    Every admitted request resolves — with a response or with this.
    Permanent: the budget does not come back, retrying cannot help.
    """


class SchedulerClosedError(ServingError):
    """The scheduler shut down before (or while) serving the request.

    Raised by ``submit``/``submit_nowait`` on a closed scheduler.
    Permanent by construction: the scheduler is gone on purpose and is
    not coming back.
    """


class WorkerCrashError(ServingError):
    """A flush worker died (or was killed) mid-execution.

    The chaos harness raises it (as
    :class:`~repro.serving.chaos.InjectedFaultError`) to simulate a
    crash. Transient: predictions are pure, so replaying the flush
    yields the bit-identical answer.
    """


class PayloadCorruptionError(ServingError):
    """A request payload failed integrity validation.

    Raised by the chaos harness's ``corrupt-payload`` fault (and
    available to any transport-level checksum). Permanent: replaying a
    corrupt request reproduces the corruption — the caller must
    re-issue the request.
    """


class RouteUnavailableError(ServingError):
    """The route's circuit breaker is open and no fallback is configured.

    A route that keeps failing its flushes is isolated instead of
    burning scheduler capacity: after ``failure_threshold`` consecutive
    failures the :class:`~repro.serving.resilience.CircuitBreaker`
    opens and requests for that route fail fast with this error until
    a half-open probe succeeds. Permanent from the request's point of
    view — back off and retry *later*, not immediately.
    """


#: Exception types whose failures are safe to replay. ``BrokenExecutor``
#: covers ``BrokenProcessPool`` (a worker process died) and
#: ``BrokenThreadPool`` — the pool is the casualty, not the request.
TRANSIENT_ERRORS: tuple[type[BaseException], ...] = (
    WorkerCrashError,
    BrokenExecutor,
)


def is_transient(error: BaseException) -> bool:
    """Whether ``error`` is safe to retry (see the module taxonomy).

    Anything not positively known to be attempt-scoped is treated as
    permanent — retrying an unknown failure can mask real bugs and, for
    malformed requests, never terminates differently.
    """
    return isinstance(error, TRANSIENT_ERRORS)
