"""Asyncio-native front door over the blocking serving stack.

:class:`BatchScheduler` speaks ``concurrent.futures``: ``submit()``
returns a thread-y Future. An async service built on top of that would
need one thread per in-flight request just to park on
``Future.result()`` — exactly the overhead micro-batching exists to
avoid. :class:`AsyncFrontend` is the bridge done right:

* ``await frontend.query(request, deadline_s=0.05)`` — the backend's
  ``submit_nowait`` (another name for its ``submit``, which never
  waits for room) returns a ``concurrent.futures.Future``, adapted with
  :func:`asyncio.wrap_future`, so **zero** threads wait per request —
  the scheduler's flush path resolves the Future, asyncio wakes the
  coroutine.
* A full bounded queue raises the typed
  :class:`~repro.serving.api.OverloadError` to the caller at once, under
  either policy: load shedding is the caller's signal to back off.
* Deadlines ride on the request: ``deadline_s`` (per call, or the
  frontend's ``default_deadline_s``) is stamped into
  ``QueryRequest.deadline_s``, which the scheduler's deadline thread
  turns into an SLO-aware early flush and — under ``"shed-expired"`` —
  a typed :class:`~repro.serving.api.DeadlineExceededError` when the
  budget is spent before the flush lands.

The frontend wraps either a bare :class:`BatchScheduler` or a
:class:`~repro.serving.router.ModelRouter` (anything with
``submit_nowait`` / ``close``). Open the backend with
``inline_flush=False``, so a max-batch flush runs on the scheduler's
deadline thread instead of whichever coroutine happened to submit the
batch-completing request — the event loop never executes model math.

Usage::

    async with AsyncFrontend(
        ModelRouter.open("artifacts/", inline_flush=False,
                         queue_cap=256, overload_policy="shed"),
        default_deadline_s=0.05,
    ) as frontend:
        response = await frontend.query(request)

Every coroutine resolves: with a response, the flush's exception,
``DeadlineExceededError`` (budget spent under "shed-expired"),
``OverloadError`` (request never admitted — nothing was enqueued), or
``SchedulerClosedError`` (the query started after ``aclose()``).
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from typing import Any, Iterable, Sequence

from repro.serving.api import QueryRequest, QueryResponse
from repro.serving.errors import SchedulerClosedError


class AsyncFrontend:
    """Awaitable facade over a ``BatchScheduler`` or ``ModelRouter``.

    ``backend`` must expose ``submit_nowait(request) -> Future``,
    ``close()`` and ``stats`` — :class:`BatchScheduler` and
    :class:`ModelRouter` both do. ``default_deadline_s`` stamps a
    deadline on every request that does not carry its own. Closing the
    frontend closes the backend.
    """

    def __init__(self, backend: Any, *, default_deadline_s: float | None = None):
        if default_deadline_s is not None and not default_deadline_s > 0:
            raise ValueError("default_deadline_s must be positive (or None)")
        self.backend = backend
        self.default_deadline_s = default_deadline_s
        self._closed = False

    # -- deadline plumbing --------------------------------------------
    def _with_deadline(
        self, request: QueryRequest, deadline_s: float | None
    ) -> QueryRequest:
        if deadline_s is not None:
            return replace(request, deadline_s=deadline_s)
        if request.deadline_s is None and self.default_deadline_s is not None:
            return replace(request, deadline_s=self.default_deadline_s)
        return request

    # -- public API ---------------------------------------------------
    async def query(
        self, request: QueryRequest, *, deadline_s: float | None = None
    ) -> QueryResponse:
        """Serve one request through the batching stack, awaitably.

        ``deadline_s`` (seconds of SLO budget from *this* call)
        overrides both ``request.deadline_s`` and the frontend
        default. Raises :class:`~repro.serving.api.OverloadError` at a
        full queue, :class:`~repro.serving.api.DeadlineExceededError`
        when the budget is spent before the flush lands (policy
        ``"shed-expired"``),
        :class:`~repro.serving.errors.SchedulerClosedError` when the
        query starts after :meth:`aclose`, or whatever the flush raised.
        """
        if self._closed:
            raise SchedulerClosedError("frontend is closed")
        request = self._with_deadline(request, deadline_s)
        return await asyncio.wrap_future(self.backend.submit_nowait(request))

    async def query_many(
        self,
        requests: Iterable[QueryRequest],
        *,
        deadline_s: float | None = None,
        return_exceptions: bool = False,
    ) -> Sequence[QueryResponse | BaseException]:
        """Serve many requests concurrently (one coroutine each, still
        zero threads) and return responses in input order. With
        ``return_exceptions=True`` shed/expired requests come back as
        their typed exceptions instead of raising — the bulk-benchmark
        mode, where partial results are the point."""
        return await asyncio.gather(
            *(self.query(request, deadline_s=deadline_s) for request in requests),
            return_exceptions=return_exceptions,
        )

    @property
    def stats(self):
        """The backend's live :class:`~repro.serving.api.ServingStats`."""
        return self.backend.stats

    async def aclose(self) -> None:
        """Close the frontend and its backend.

        ``backend.close()`` drains the queue and waits for every flush
        in flight, whichever thread runs it, so it runs in the default
        executor — the event loop stays responsive while the last
        batches drain. Idempotent."""
        if self._closed:
            return
        self._closed = True
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.backend.close)

    async def __aenter__(self) -> "AsyncFrontend":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()
