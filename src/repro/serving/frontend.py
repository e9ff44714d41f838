"""Asyncio-native front door over the blocking serving stack.

:class:`BatchScheduler` speaks ``concurrent.futures``: ``submit()``
returns a thread-y Future and may block when the bounded queue is
full. An async service built on top of that would need one thread per
in-flight request just to park on ``Future.result()`` — exactly the
overhead micro-batching exists to avoid. :class:`AsyncFrontend` is the
bridge done right:

* ``await frontend.query(request, deadline_s=0.05)`` — admission via
  the scheduler's non-blocking ``submit_nowait``; the returned
  ``concurrent.futures.Future`` is adapted with
  :func:`asyncio.wrap_future`, so **zero** threads wait per request —
  the scheduler's flush path resolves the Future, asyncio wakes the
  coroutine.
* When admission hits a full queue under ``overload_policy="block"``,
  the coroutine parks on an ``asyncio.Event`` armed through the
  scheduler's ``add_room_callback`` (a ``call_soon_threadsafe``
  wrapper) and retries once a dequeue frees room — async backpressure
  without holding any thread. Under the shed policies the typed
  :class:`~repro.serving.api.OverloadError` propagates to the caller
  immediately: load shedding is the caller's signal to back off.
* Deadlines ride on the request: ``deadline_s`` (per call, or the
  frontend's ``default_deadline_s``) is stamped into
  ``QueryRequest.deadline_s``, which the scheduler's deadline thread
  turns into an SLO-aware early flush and — under ``"shed-expired"`` —
  a typed :class:`~repro.serving.api.DeadlineExceededError` when the
  budget is spent before the flush lands.

The frontend wraps either a bare :class:`BatchScheduler` or a
:class:`~repro.serving.router.ModelRouter` (anything with
``submit_nowait`` / ``add_room_callback`` / ``close``). Use
:meth:`AsyncFrontend.open` to build the whole stack from an artifact
directory with ``inline_flush=False``, so a max-batch flush runs on
the scheduler's deadline thread instead of whichever coroutine
happened to submit the batch-completing request — the event loop never
executes model math.

Usage::

    async with AsyncFrontend.open("artifacts/", queue_cap=256,
                                  overload_policy="shed") as frontend:
        response = await frontend.query(request, deadline_s=0.05)

Every coroutine resolves: with a response, the flush's exception,
``DeadlineExceededError`` (budget spent under "shed-expired"), or
``OverloadError`` (request never admitted — nothing was enqueued).
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from typing import Any, Iterable, Sequence

from repro.serving.api import OverloadError, QueryRequest, QueryResponse
from repro.serving.router import ModelRouter


class AsyncFrontend:
    """Awaitable facade over a ``BatchScheduler`` or ``ModelRouter``.

    ``backend`` must expose ``submit_nowait(request) -> Future``,
    ``add_room_callback(cb)``, ``close()`` and ``stats`` —
    :class:`BatchScheduler` and :class:`ModelRouter` both do.
    ``default_deadline_s`` stamps a deadline on every request that does
    not carry its own; ``close_backend=False`` leaves shutdown to
    whoever built the backend. ``room_retry_s`` bounds how long an
    admission coroutine parks before retrying anyway when its room
    wakeup was lost (see :meth:`_admit`) — it used to be a hard-coded
    0.1 s, which put a hidden 100 ms latency cliff on any lost wakeup;
    now it is tunable and every safety-net firing is counted in
    ``stats.safety_net_wakeups``.
    """

    def __init__(
        self,
        backend: Any,
        *,
        default_deadline_s: float | None = None,
        close_backend: bool = True,
        room_retry_s: float = 0.1,
    ):
        if default_deadline_s is not None and not default_deadline_s > 0:
            raise ValueError("default_deadline_s must be positive (or None)")
        if not room_retry_s > 0:
            raise ValueError("room_retry_s must be positive")
        self.backend = backend
        self.default_deadline_s = default_deadline_s
        self.room_retry_s = float(room_retry_s)
        self._close_backend = close_backend
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

    # -- admission ----------------------------------------------------
    async def _admit(self, request: QueryRequest) -> "asyncio.Future":
        """Enqueue without blocking the loop; returns the wrapped future.

        ``submit_nowait`` raises :class:`OverloadError` at a full
        queue under *every* policy. For the shed policies that is the
        final answer and propagates. For ``"block"`` it only means
        "no room right now": we arm a room callback, retry, and park
        on an asyncio.Event between attempts — the async equivalent of
        the backpressure a blocking ``submit()`` applies to threads.
        The ``room_retry_s`` wait timeout is a lost-wakeup safety net
        (the same pattern the scheduler's own blocking waiters use),
        not a polling loop — the callback normally fires the retry,
        and every timeout firing is counted in
        ``stats.safety_net_wakeups`` so a lost-wakeup bug shows up in
        the numbers instead of hiding as tail latency.
        """
        if self._closed:
            raise RuntimeError("frontend is closed")
        loop = asyncio.get_running_loop()
        scheduler = getattr(self.backend, "scheduler", self.backend)
        while True:
            try:
                return asyncio.wrap_future(
                    self.backend.submit_nowait(request), loop=loop
                )
            except OverloadError:
                if scheduler.overload_policy != "block":
                    raise
            room = asyncio.Event()

            def _wake() -> None:
                try:
                    loop.call_soon_threadsafe(room.set)
                except RuntimeError:
                    pass  # loop already closed: nothing to wake

            scheduler.add_room_callback(_wake)
            try:
                return asyncio.wrap_future(
                    self.backend.submit_nowait(request), loop=loop
                )
            except OverloadError:
                pass  # the callback is armed; wait for a dequeue
            try:
                await asyncio.wait_for(room.wait(), timeout=self.room_retry_s)
            except asyncio.TimeoutError:
                note = getattr(scheduler, "note_safety_net_wakeup", None)
                if note is not None:
                    note()

    # -- public API ---------------------------------------------------
    async def query(
        self, request: QueryRequest, *, deadline_s: float | None = None
    ) -> QueryResponse:
        """Serve one request through the batching stack, awaitably.

        ``deadline_s`` (seconds of SLO budget from *this* call)
        overrides both ``request.deadline_s`` and the frontend
        default. Raises :class:`OverloadError` when shed at admission,
        :class:`~repro.serving.api.DeadlineExceededError` when the
        budget is spent before the flush lands (policy
        ``"shed-expired"``), or whatever the flush raised.
        """
        return await (await self._admit(self._with_deadline(request, deadline_s)))

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
        """Close the frontend (and backend, unless ``close_backend=False``).

        ``backend.close()`` blocks on in-flight flushes, so it runs in
        the default executor — the event loop stays responsive while
        the last batch drains. Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._close_backend:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.backend.close)

    async def __aenter__(self) -> "AsyncFrontend":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    # -- construction -------------------------------------------------
    @classmethod
    def open(
        cls,
        artifacts: str,
        tasks: Sequence[int] | None = None,
        *,
        default_deadline_s: float | None = None,
        queue_cap: int | None = None,
        overload_policy: str = "block",
        room_retry_s: float = 0.1,
        **router_kwargs: Any,
    ) -> "AsyncFrontend":
        """Build router + scheduler + frontend from an artifact directory.

        Accepts every :meth:`ModelRouter.open` keyword (``mips_backend``,
        ``max_batch``, ``cache_entries``, ...). Forces
        ``inline_flush=False`` so flush math never runs on the event
        loop's thread — with ``start_worker=False`` you must call
        ``backend.flush()`` (from a worker thread) yourself.
        """
        router_kwargs.setdefault("inline_flush", False)
        router = ModelRouter.open(
            artifacts,
            tasks,
            queue_cap=queue_cap,
            overload_policy=overload_policy,
            **router_kwargs,
        )
        return cls(
            router,
            default_deadline_s=default_deadline_s,
            room_retry_s=room_retry_s,
        )
