"""Typed serving errors: every way a request can fail has one type.

A caller can act on each of them, and none is worth replaying:
predictions are pure functions of the request and the frozen weights,
so the same request fails the same way again.

* :class:`OverloadError` — the bounded queue is full; back off.
* :class:`DeadlineExceededError` — the request's budget ran out before
  its flush.
* :class:`SchedulerClosedError` — the scheduler shut down.
* :class:`InvalidRequestError` — the request does not fit its model;
  fix the request.

:mod:`repro.serving.api` re-exports the first two for compatibility.
"""

from __future__ import annotations


class ServingError(RuntimeError):
    """Base of every serving-layer failure this package raises."""


class OverloadError(ServingError):
    """The bounded pending queue is full and the admission policy sheds.

    Raised *at submission* by :meth:`BatchScheduler.submit` (alias
    ``submit_nowait``) when ``queue_cap`` is reached under
    ``overload_policy="shed"``, or under ``"shed-expired"`` with no
    expired entry to evict. The request was never enqueued — nothing
    to await, nothing stranded.
    """


class DeadlineExceededError(TimeoutError):
    """A request's deadline passed before its flush executed.

    Under ``overload_policy="shed-expired"`` the scheduler drops queued
    requests whose ``deadline_s`` budget is already spent instead of
    wasting a flush slot on an answer nobody can use in time; their
    futures resolve with this exception (subclass of
    :class:`TimeoutError`, so generic timeout handling catches it).
    Every admitted request resolves — with a response or with this.
    """


class SchedulerClosedError(ServingError):
    """The scheduler shut down before (or while) serving the request.

    Raised by ``submit``/``submit_nowait`` on a closed scheduler.
    """


class InvalidRequestError(ServingError, ValueError):
    """A request its model cannot answer: a word index outside the
    vocabulary, a story with no slots or more slots than the memory,
    or ``n_sentences`` outside ``[1, slots]``.

    Every predictor checks its flush once, row by row: each invalid
    request resolves with this error naming the reason, and the valid
    rows of the same flush are answered as if it were not there. A
    :class:`ValueError` too, so callers that caught the untyped
    validation errors keep working.
    """
