"""Micro-batching scheduler: many callers, one inline flush path.

Whole-batch inference is ~20x cheaper per example than the per-example
path, but a serving frontend receives requests one at a time.
:class:`BatchScheduler` is the piece in between: ``submit()``
enqueues a single :class:`~repro.serving.api.QueryRequest` and returns
a :class:`concurrent.futures.Future`; queued requests are coalesced
into one flush when either

* the queue reaches ``max_batch`` (flushed by the submitting caller,
  or by the deadline thread with ``inline_flush=False``),
* the oldest queued request has waited ``max_wait_s``,
* a queued request's **deadline slack** is about to be consumed — the
  deadline thread predicts the flush's wall time from the p95 of the
  flush times recorded in :class:`~repro.serving.api.ServingStats` and
  flushes just early enough to land inside the tightest
  ``QueryRequest.deadline_s`` budget, or
* the caller forces it (``flush()`` / ``close()`` / context-manager
  exit).

**Admission control.** ``queue_cap`` bounds the pending queue;
``overload_policy`` picks what happens at the brim:

* ``"block"`` (default) — ``submit()`` waits for room (backpressure);
  ``submit_nowait()`` raises :class:`~repro.serving.api.OverloadError`
  instead, which is how the asyncio frontend awaits room without
  blocking the event loop. In manual mode (no deadline thread) the
  blocked submitter drains a batch itself rather than deadlocking.
* ``"shed"`` — reject new submissions with ``OverloadError``; queued
  work is never touched, so admitted latency stays bounded.
* ``"shed-expired"`` — like ``"shed"``, but expired queue entries
  (deadline budget already spent) are evicted first — their futures
  resolve with :class:`~repro.serving.api.DeadlineExceededError` — and
  an expired request is also dropped at flush time instead of wasting
  batch capacity on an answer nobody can use.

Every admitted future resolves — with a response, an
:class:`~repro.serving.errors.InvalidRequestError` the predictor put
in that request's row (the flush's other rows are answered), or
``DeadlineExceededError``; a shed submission raises before enqueueing.
A predictor that raises instead resolves every future of its flush
with that exception, never strands one. Shed, expired and deadline
attainment counts land in ``stats`` (``goodput_rate``).

**Execution and ordering.** A flush is one ``predict_batch`` call, run
inline by the thread that flushes: the submitter that filled the batch,
the deadline thread, or a caller of ``flush()``/``close()``. Dequeue
from the pending queue is strictly FIFO (every flush takes a contiguous
run of requests in submission order), and flushes also *complete* in
dequeue order: a ticket assigned at dequeue time serialises execution,
so two racing flushers cannot complete newer requests before older
ones. Responses within a flush resolve in submission order.

All timestamps (submission, deadlines, latencies, per-flush service
time) come from one :class:`~repro.serving.clock.Clock`, so the
numbers line up and tests can swap in a
:class:`~repro.serving.clock.ManualClock`. Per-request latency,
per-flush batch sizes and service times are recorded in
:class:`~repro.serving.api.ServingStats`, the numbers
``benchmarks/test_bench_router.py`` and
``benchmarks/test_bench_frontend.py`` turn into throughput and goodput
curves.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, replace

from repro.serving.api import (
    DeadlineExceededError,
    OverloadError,
    Predictor,
    QueryRequest,
    QueryResponse,
    ServingStats,
)
from repro.serving.clock import MONOTONIC, Clock
from repro.serving.errors import InvalidRequestError, SchedulerClosedError

OVERLOAD_POLICIES = ("block", "shed", "shed-expired")


@dataclass
class _Pending:
    request: QueryRequest
    future: Future
    submitted_at: float
    deadline_at: float | None = None


#: The deadline thread's flush-time prediction: a cold guess until
#: ``_WARM_FLUSHES`` flushes are recorded, then the p95 of the recorded
#: flush times (landing late breaks the SLO, landing early only shrinks
#: the batch) times ``_SAFETY_FACTOR`` against scheduling jitter. The
#: queue flushes that long, plus ``_DEADLINE_MARGIN_S``, before its
#: tightest deadline.
_COLD_FLUSH_S = 0.002
_WARM_FLUSHES = 3
_SAFETY_FACTOR = 1.25
_DEADLINE_MARGIN_S = 0.0005


class BatchScheduler:
    """Coalesces individually submitted requests into vectorised batches.

    ``predictor`` is anything satisfying the
    :class:`~repro.serving.api.Predictor` protocol. With
    ``start_worker=False`` no deadline thread is spawned and flushes
    happen only on max-batch, ``flush()`` or ``close()`` — fully
    deterministic, the mode the unit tests use.

    ``inline_flush=False`` moves the max-batch flush off the submitting
    caller onto the deadline thread — the asyncio frontend uses it so a
    full queue never executes a flush on the event-loop thread
    (requires ``start_worker=True`` for progress without manual
    ``flush()`` calls).
    """

    def __init__(
        self,
        predictor: Predictor,
        max_batch: int = 32,
        max_wait_s: float = 0.005,
        start_worker: bool = True,
        queue_cap: int | None = None,
        overload_policy: str = "block",
        inline_flush: bool = True,
        clock: Clock = MONOTONIC,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        if overload_policy not in OVERLOAD_POLICIES:
            raise ValueError(
                f"overload_policy must be one of {OVERLOAD_POLICIES}, "
                f"got {overload_policy!r}"
            )
        if queue_cap is not None and queue_cap < 1:
            raise ValueError("queue_cap must be >= 1 (or None for unbounded)")
        self.predictor = predictor
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)
        self.queue_cap = int(queue_cap) if queue_cap is not None else None
        self.overload_policy = overload_policy
        self.inline_flush = bool(inline_flush)
        self.clock = clock
        self.stats = ServingStats()
        self._pending: list[_Pending] = []
        self._cond = threading.Condition()
        self._stats_lock = threading.Lock()
        self._closed = False
        #: One-shot callbacks fired (under _cond) whenever a dequeue
        #: frees queue room — the asyncio frontend's wakeup channel.
        #: Callbacks must be cheap and must NOT call back into the
        #: scheduler synchronously (they run with _cond held).
        self._room_callbacks: list = []
        # FIFO tickets: assigned at dequeue time (under _cond, where
        # submission order is defined), retired when the flush is done.
        # Flushes execute in ticket order, which pins completion order
        # = dequeue order = submission order.
        self._ticket_cond = threading.Condition()
        self._next_ticket = 0
        self._now_serving = 0
        self._retired: set[int] = set()
        self._worker: threading.Thread | None = None
        if start_worker:
            self._worker = threading.Thread(
                target=self._worker_loop, name="BatchScheduler", daemon=True
            )
            self._worker.start()

    # -- client side ---------------------------------------------------
    def submit(self, request: QueryRequest) -> "Future[QueryResponse]":
        """Enqueue one request; the Future resolves at the next flush.

        At a full bounded queue the call blocks for room under
        ``overload_policy="block"`` and raises
        :class:`~repro.serving.api.OverloadError` under the shed
        policies (after evicting expired entries, for "shed-expired").
        """
        return self._submit(request, may_block=True)

    def submit_nowait(self, request: QueryRequest) -> "Future[QueryResponse]":
        """Like :meth:`submit`, but never blocks for queue room: a full
        queue raises :class:`~repro.serving.api.OverloadError` under
        every policy (the asyncio frontend's admission primitive —
        combined with :meth:`add_room_callback` it awaits room without
        holding any thread)."""
        return self._submit(request, may_block=False)

    def _submit(self, request: QueryRequest, may_block: bool) -> Future:
        future: Future = Future()
        while True:
            batch: list[_Pending] = []
            ticket = None
            drain: list[_Pending] = []
            drain_ticket = None
            with self._cond:
                if self._closed:
                    raise SchedulerClosedError("scheduler is closed")
                if not self._admit_locked(may_block):
                    # Full queue, "block" policy, manual mode: there is
                    # no deadline thread to drain, so the caller makes
                    # its own room (backpressure = the caller pays).
                    drain, drain_ticket = self._take_locked(self.max_batch)
                else:
                    now = self.clock.now()
                    self._pending.append(
                        _Pending(
                            request,
                            future,
                            now,
                            self.clock.deadline_at(request.deadline_s, now),
                        )
                    )
                    if len(self._pending) >= self.max_batch:
                        if self.inline_flush:
                            batch, ticket = self._take_locked(self.max_batch)
                        else:
                            self._cond.notify_all()  # the deadline thread flushes
                    elif len(self._pending) == 1 or request.deadline_s is not None:
                        # Wake the deadline thread to (re)arm its timer:
                        # on a newly non-empty queue, or when this
                        # request's deadline may be the new binding
                        # constraint. Notifying on every submit would
                        # GIL-thrash against busy submitters.
                        self._cond.notify_all()
            if drain:
                self._execute(drain, drain_ticket)
                continue  # retry admission after making room
            if batch:  # full batch: the submitting caller pays the flush
                self._execute(batch, ticket)
            return future

    def _admit_locked(self, may_block: bool) -> bool:
        """Wait for / make queue room (caller holds ``_cond``).

        Returns True when the request may enqueue now, False when the
        caller should drain a batch itself (manual-mode backpressure).
        Raises :class:`OverloadError` under the shed policies or for a
        non-blocking submit,
        :class:`~repro.serving.errors.SchedulerClosedError` if closed
        while waiting.
        """
        if self.queue_cap is None:
            return True
        while len(self._pending) >= self.queue_cap:
            if self.overload_policy == "shed-expired" and self._drop_expired_locked():
                continue  # eviction may have made room
            if self.overload_policy != "block":
                with self._stats_lock:
                    self.stats.record_shed()
                raise OverloadError(
                    f"pending queue at capacity ({self.queue_cap}) under "
                    f"overload_policy={self.overload_policy!r}"
                )
            if not may_block:
                raise OverloadError(
                    f"pending queue at capacity ({self.queue_cap}); "
                    "submit_nowait does not block for room"
                )
            if self._worker is None:
                return False  # manual mode: caller drains inline
            self._cond.wait(timeout=0.1)
            if self._closed:
                raise SchedulerClosedError("scheduler is closed")
        return True

    def _drop_expired_locked(self) -> bool:
        """Evict queued requests whose deadline already passed (caller
        holds ``_cond``). Returns whether any left the queue."""
        queued = len(self._pending)
        self._pending = self._expire(self._pending)
        if len(self._pending) == queued:
            return False
        if self._pending_has_room_locked():
            self._notify_room_locked()
        return True

    def _expire(self, entries: list[_Pending]) -> list[_Pending]:
        """Resolve each entry whose deadline has passed with
        :class:`DeadlineExceededError` and return the rest, in order.
        The clock is read once, and a spent budget counts as expired. An
        expired future a caller already cancelled is dropped uncounted."""
        now = self.clock.now()
        live = []
        dropped = 0
        for pending in entries:
            if pending.deadline_at is None or now < pending.deadline_at:
                live.append(pending)
            elif pending.future.set_running_or_notify_cancel():
                pending.future.set_exception(
                    DeadlineExceededError(
                        f"deadline budget of {pending.request.deadline_s}s "
                        "spent before the flush executed"
                    )
                )
                dropped += 1
        if dropped:
            with self._stats_lock:
                self.stats.record_expired(dropped)
        return live

    def add_room_callback(self, callback) -> None:
        """Register a one-shot wakeup fired when a dequeue frees queue
        room (or the scheduler closes). The callback runs under the
        scheduler's internal lock: it must be cheap, exception-free and
        must not call back into the scheduler — the asyncio frontend
        passes ``loop.call_soon_threadsafe`` wrappers, nothing else."""
        fire = False
        with self._cond:
            if self._closed or self._pending_has_room_locked():
                fire = True  # already room (or never coming): wake now
            else:
                self._room_callbacks.append(callback)
        if fire:
            callback()

    def _pending_has_room_locked(self) -> bool:
        return self.queue_cap is None or len(self._pending) < self.queue_cap

    def _notify_room_locked(self) -> None:
        """Wake admission waiters after a dequeue (caller holds _cond)."""
        if self.queue_cap is None:
            return
        self._cond.notify_all()
        callbacks, self._room_callbacks = self._room_callbacks, []
        for callback in callbacks:
            callback()

    def flush(self) -> None:
        """Drain every queued request now, in the calling thread."""
        while True:
            with self._cond:
                batch, ticket = self._take_locked(self.max_batch)
            if not batch:
                return
            self._execute(batch, ticket)

    def close(self) -> None:
        """Flush outstanding requests and stop the deadline thread.
        Idempotent. A max-batch flush from a racing ``submit()`` may
        still be in flight when this returns; it resolves its own
        futures."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            # Wake async admission waiters too: room is never coming,
            # their retried submit must observe the closed scheduler.
            callbacks, self._room_callbacks = self._room_callbacks, []
        for callback in callbacks:
            callback()
        if self._worker is not None:
            self._worker.join()
            self._worker = None
        self.flush()

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def pending(self) -> int:
        with self._cond:
            return len(self._pending)

    # -- flush machinery -----------------------------------------------
    def _take_locked(self, limit: int) -> tuple[list[_Pending], int | None]:
        """FIFO-dequeue up to ``limit`` requests (caller holds _cond).

        This is the *only* place requests leave the queue, and it takes
        a contiguous head slice — the FIFO-dequeue guarantee. A ticket
        is assigned per non-empty take; execution honours ticket order
        (see :meth:`_await_turn`)."""
        batch = self._pending[: limit]
        if not batch:
            return [], None
        del self._pending[: len(batch)]
        ticket = self._next_ticket
        self._next_ticket += 1
        self._notify_room_locked()
        return batch, ticket

    def _await_turn(self, ticket: int) -> None:
        """Block until every earlier ticket has retired — the
        FIFO-completion fence."""
        with self._ticket_cond:
            while self._now_serving < ticket:
                self._ticket_cond.wait()

    def _retire_ticket(self, ticket: int | None) -> None:
        if ticket is None:
            return
        with self._ticket_cond:
            self._retired.add(ticket)
            while self._now_serving in self._retired:
                self._retired.remove(self._now_serving)
                self._now_serving += 1
            self._ticket_cond.notify_all()

    def _worker_loop(self) -> None:
        """Flush queues whose oldest request aged past max_wait_s — or
        whose tightest deadline slack the predicted flush time is about
        to consume (the SLO-aware early flush)."""
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if self._closed:
                    return  # close() drains what is left
                now = self.clock.now()
                due = self._due_at_locked()
                while (
                    self._pending
                    and not self._closed
                    and len(self._pending) < self.max_batch
                    and now < due
                ):
                    self._cond.wait(timeout=due - now)
                    now = self.clock.now()
                    if self._pending:
                        due = self._due_at_locked()
                batch, ticket = self._take_locked(self.max_batch)
            self._execute(batch, ticket)

    def _due_at_locked(self) -> float:
        """The instant the queue must flush (caller holds ``_cond``):
        the oldest request's ``max_wait_s`` budget, tightened by any
        deadline — flush :meth:`_flush_lead_s` before it so the answer
        lands inside the budget."""
        due = self._pending[0].submitted_at + self.max_wait_s
        earliest = None
        for pending in self._pending:
            if pending.deadline_at is not None and (
                earliest is None or pending.deadline_at < earliest
            ):
                earliest = pending.deadline_at
        if earliest is not None:
            due = min(due, earliest - self._flush_lead_s())
        return due

    def _flush_lead_s(self) -> float:
        """The predicted flush wall time plus the deadline margin. The
        p95 of recorded flush times already includes any story-cache
        hits, so nothing discounts it further."""
        with self._stats_lock:
            if self.stats.flushes < _WARM_FLUSHES:
                return _COLD_FLUSH_S + _DEADLINE_MARGIN_S
            p95 = self.stats.p95_service_s
        return p95 * _SAFETY_FACTOR + _DEADLINE_MARGIN_S

    def note_safety_net_wakeup(self) -> None:
        """Count one lost-wakeup safety-net firing (async frontend)."""
        with self._stats_lock:
            self.stats.record_safety_net()

    def _execute(self, batch: list[_Pending], ticket: int | None) -> None:
        try:
            if self.overload_policy == "shed-expired":
                # An expired request cannot meet its deadline whatever
                # we do; spending batch capacity on it only endangers
                # the live ones. Resolve it typed, serve the rest.
                batch = self._expire(batch)
            # Transition every future to RUNNING first: a future the
            # caller already cancelled drops out here, and the rest can
            # no longer be cancelled, so set_result/set_exception below
            # cannot raise InvalidStateError (which would kill the
            # flushing thread and strand the remaining futures).
            batch = [p for p in batch if p.future.set_running_or_notify_cancel()]
            if not batch:
                return
            started = self.clock.now()
            # Ticket order makes completion FIFO across racing flushers.
            self._await_turn(ticket)
            self._run_batch(batch)
            with self._stats_lock:
                self.stats.record_flush(
                    len(batch), service_s=self.clock.now() - started
                )
        finally:
            self._retire_ticket(ticket)

    def _resolve_batch(
        self,
        batch: list[_Pending],
        responses: list[QueryResponse | InvalidRequestError],
    ) -> None:
        """Resolve one answered flush: latency + deadline-attainment
        accounting, then the futures, in submission order. A row the
        predictor rejected resolves with its
        :class:`~repro.serving.errors.InvalidRequestError` and, like a
        failed flush, counts in neither statistic."""
        done = self.clock.now()
        latencies = []
        met = missed = 0
        for pending, response in zip(batch, responses):
            if isinstance(response, InvalidRequestError):
                continue
            latencies.append(done - pending.submitted_at)
            if pending.deadline_at is not None:
                if done <= pending.deadline_at:
                    met += 1
                else:
                    missed += 1
        with self._stats_lock:
            self.stats.record_latencies(latencies)
            self.stats.record_deadline_outcomes(met, missed)
        for pending, response in zip(batch, responses):
            if isinstance(response, InvalidRequestError):
                pending.future.set_exception(response)
                continue
            latency = done - pending.submitted_at
            if response.latency_s is None:
                # A fresh response from the predictor: stamp it in place
                # rather than building it a second time. One the caller
                # may already hold (stamped before) is copied instead.
                response.__dict__["latency_s"] = latency
            else:
                response = replace(response, latency_s=latency)
            pending.future.set_result(response)

    def _run_batch(self, batch: list[_Pending]) -> None:
        """Answer one flush, resolving its futures in order. A predictor
        exception resolves every future of the flush with it instead of
        propagating."""
        try:
            responses = self.predictor.predict_batch([p.request for p in batch])
        except Exception as error:
            for pending in batch:
                pending.future.set_exception(error)
            return
        self._resolve_batch(batch, responses)
