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

**Admission control.** ``queue_cap`` bounds the pending queue, and a
full queue answers at the door: ``submit()`` never waits for room.
``overload_policy`` picks what the door does:

* ``"shed"`` (default) — reject new submissions with
  :class:`~repro.serving.api.OverloadError`; queued work is never
  touched, so admitted latency stays bounded.
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
the deadline thread, or a caller of ``flush()``/``close()``. Every
flusher dequeues through one helper, under one flush lock held from the
dequeue of a batch until its last future resolves. So flushes run one
at a time, dequeue from the pending queue is strictly FIFO (every flush
takes a contiguous run of requests in submission order), and flushes
also *complete* in dequeue order. Once it holds the flush lock, a
flusher checks again that the queue's head still has to flush, since
the flush it waited for may have taken it. Lock order: the flush lock
first, then the queue lock, never the reverse. Responses within a flush
resolve in submission order, in the same pass that measures their
latencies; the flush's statistics land together once its futures are
resolved.

**Callbacks.** No future resolves under the queue lock, and a thread
resolving futures never flushes inline: it holds the flush lock that
flush would wait for. So a done-callback may ``submit()``; a batch it
fills goes to the deadline thread, or in manual mode to the next
``flush()``, ``close()`` or batch-filling submit. ``flush()`` and
``close()`` from a done-callback raise ``RuntimeError``.

**The future.** ``submit()`` returns a private subclass of
:class:`concurrent.futures.Future`, so ``asyncio.wrap_future``,
``concurrent.futures.wait``/``as_completed``, callbacks and cancellation
all work as usual. Each future holds one lock and builds its
``threading.Condition`` over it only when a thread must wait: a
``result()``/``exception()`` on a pending future, ``cancel()``, or
``wait``/``as_completed``. A caller that only adds a done-callback, and
reads the result once it has fired, never builds one.

All timestamps (submission, deadlines, latencies, per-flush service
time) come from one :class:`~repro.serving.clock.Clock`, so the
numbers line up and tests can swap in a
:class:`~repro.serving.clock.ManualClock`. Request and flush counts,
per-request latency and per-flush service times are recorded in
:class:`~repro.serving.api.ServingStats`, the numbers
``benchmarks/test_bench_router.py`` and
``benchmarks/test_bench_frontend.py`` turn into throughput and goodput
curves.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future

# The subclass below keeps the base class's state machine and fields.
from concurrent.futures._base import (
    CANCELLED,
    CANCELLED_AND_NOTIFIED,
    FINISHED,
    LOGGER,
    PENDING,
    RUNNING,
)
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

OVERLOAD_POLICIES = ("shed", "shed-expired")

_DONE_STATES = (CANCELLED, CANCELLED_AND_NOTIFIED, FINISHED)


class _LazyFuture(Future):
    """A :class:`concurrent.futures.Future` that builds its Condition
    only when a thread must wait.

    The base class builds a Python-level ``threading.Condition`` per
    future and enters it on every call. This one holds one C
    ``threading.RLock`` and builds the Condition over that lock, under
    it, on the first read of ``_condition``: a ``result()`` or
    ``exception()`` on a pending future, ``cancel()``,
    ``concurrent.futures.wait``/``as_completed``, or a rare path handed
    to the base class. The overrides below take only the lock on their
    common path and notify the Condition only if it exists; a waiter
    builds it under the lock before it sleeps, so no wakeup is lost.
    Each future has its own Condition, never a shared one.
    """

    def __init__(self):
        # Not Future.__init__: it would build the Condition.
        self._lock = threading.RLock()
        self._cond = None
        self._state = PENDING
        self._result = None
        self._exception = None
        self._waiters = []
        self._done_callbacks = []

    @property
    def _condition(self) -> threading.Condition:
        with self._lock:
            if self._cond is None:
                self._cond = threading.Condition(self._lock)
            return self._cond

    def cancelled(self) -> bool:
        with self._lock:
            return self._state in (CANCELLED, CANCELLED_AND_NOTIFIED)

    def done(self) -> bool:
        with self._lock:
            return self._state in _DONE_STATES

    def result(self, timeout=None):
        with self._lock:
            if self._state == FINISHED and self._exception is None:
                return self._result
        return super().result(timeout)

    def exception(self, timeout=None):
        with self._lock:
            if self._state == FINISHED:
                return self._exception
        return super().exception(timeout)

    def add_done_callback(self, fn) -> None:
        with self._lock:
            if self._state not in _DONE_STATES:
                self._done_callbacks.append(fn)
                return
        try:
            fn(self)
        except Exception:
            LOGGER.exception("exception calling callback for %r", self)

    def set_running_or_notify_cancel(self) -> bool:
        with self._lock:
            if self._state == PENDING:
                self._state = RUNNING
                return True
        return super().set_running_or_notify_cancel()

    def set_result(self, result) -> None:
        with self._lock:
            if self._state in _DONE_STATES:
                return super().set_result(result)  # raises InvalidStateError
            self._result = result
            self._state = FINISHED
            for waiter in self._waiters:
                waiter.add_result(self)
            if self._cond is not None:
                self._cond.notify_all()
        self._invoke_callbacks()

    def set_exception(self, exception) -> None:
        with self._lock:
            if self._state in _DONE_STATES:
                return super().set_exception(exception)  # raises
            self._exception = exception
            self._state = FINISHED
            for waiter in self._waiters:
                waiter.add_exception(self)
            if self._cond is not None:
                self._cond.notify_all()
        self._invoke_callbacks()


class _Resolving(threading.local):
    """Per thread: whether it is resolving a scheduler's futures, whose
    done-callbacks may call back into that scheduler."""

    active = False


@dataclass(slots=True)
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

    ``submit_nowait`` is another name for ``submit``, which never
    waits for room; the asyncio frontend calls it by that name.
    """

    def __init__(
        self,
        predictor: Predictor,
        max_batch: int = 32,
        max_wait_s: float = 0.005,
        start_worker: bool = True,
        queue_cap: int | None = None,
        overload_policy: str = "shed",
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
        # Lock order: _flush_lock, then _lock, never the reverse.
        # _flush_lock is held from the dequeue of a batch until its last
        # future resolves. _lock guards the queue and its flags; _cond,
        # over the same lock, wakes the deadline thread.
        self._flush_lock = threading.Lock()
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._stats_lock = threading.Lock()
        self._closed = False
        self._resolving = _Resolving()
        self._worker: threading.Thread | None = None
        if start_worker:
            self._worker = threading.Thread(
                target=self._worker_loop, name="BatchScheduler", daemon=True
            )
            self._worker.start()

    # -- client side ---------------------------------------------------
    def submit(self, request: QueryRequest) -> "Future[QueryResponse]":
        """Enqueue one request; the Future resolves at the next flush.

        Never waits for room: at a full bounded queue it raises
        :class:`~repro.serving.api.OverloadError`, under
        "shed-expired" only when no queued entry has expired.
        """
        future = _LazyFuture()
        expired = ()
        full = False
        with self._lock:
            if self._closed:
                raise SchedulerClosedError("scheduler is closed")
            if self.queue_cap is not None and len(self._pending) >= self.queue_cap:
                # Under "shed-expired" the expired entries leave the full
                # queue, to be resolved once the lock is released.
                if self.overload_policy == "shed-expired":
                    self._pending, expired = self._split_expired(self._pending)
                if not expired:
                    with self._stats_lock:
                        self.stats.record_shed()
                    raise OverloadError(
                        f"pending queue at capacity ({self.queue_cap}) under "
                        f"overload_policy={self.overload_policy!r}"
                    )
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
                full = self.inline_flush and not self._resolving.active
                if not full:
                    self._cond.notify_all()  # the deadline thread flushes
            elif len(self._pending) == 1 or request.deadline_s is not None:
                # Wake the deadline thread to (re)arm its timer: on a
                # newly non-empty queue, or when this request's deadline
                # may be the new binding constraint. Notifying on every
                # submit would GIL-thrash against busy submitters.
                self._cond.notify_all()
        # The submitting caller pays.
        if expired:
            self._execute([], expired)
        if full:
            self._flush_head(lambda: len(self._pending) >= self.max_batch)
        return future

    submit_nowait = submit

    def _split_expired(self, entries: list[_Pending]) -> tuple[list, list]:
        """``(live, expired)``: ``entries`` split by whether their
        deadline has passed, each in order. The clock is read once, and
        a spent budget counts as expired."""
        now = self.clock.now()
        live, expired = [], []
        for pending in entries:
            if pending.deadline_at is None or now < pending.deadline_at:
                live.append(pending)
            else:
                expired.append(pending)
        return live, expired

    def _fail_expired(self, expired) -> None:
        """Resolve entries already out of the queue with
        :class:`DeadlineExceededError`. An expired future a caller
        already cancelled is dropped uncounted."""
        dropped = 0
        for pending in expired:
            if pending.future.set_running_or_notify_cancel():
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

    def _refuse_in_callback(self, name: str) -> None:
        if self._resolving.active:
            raise RuntimeError(
                f"{name}() from a done-callback would wait for the flush "
                "that is running the callback"
            )

    def flush(self) -> None:
        """Drain every queued request now, in the calling thread, after
        any flush in flight. Raises ``RuntimeError`` from a
        done-callback of this scheduler's futures."""
        self._refuse_in_callback("flush")
        while self._flush_head():
            pass

    def close(self) -> None:
        """Flush outstanding requests and stop the deadline thread.
        Idempotent. Returns only once every flush in flight, a racing
        ``submit()``'s max-batch flush too, has resolved its futures.
        Raises ``RuntimeError`` from a done-callback of this
        scheduler's futures."""
        self._refuse_in_callback("close")
        with self._lock:
            self._closed = True
            self._cond.notify_all()
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
        with self._lock:
            return len(self._pending)

    # -- flush machinery -----------------------------------------------
    def _flush_head(self, due=None) -> bool:
        """Flush the head of the queue; return whether there was one.

        This is the *only* place a batch leaves the queue. Under the
        flush lock, it takes a contiguous head slice of up to
        ``max_batch`` requests (the FIFO-dequeue guarantee), unless the
        queue is empty or ``due()`` no longer holds under ``_lock``.
        It holds the flush lock until the batch's last future resolves,
        so flushes complete in dequeue order."""
        with self._flush_lock:
            with self._lock:
                if not self._pending or (due is not None and not due()):
                    return False
                batch = self._pending[: self.max_batch]
                del self._pending[: len(batch)]
            self._execute(batch)
        return True

    def _worker_loop(self) -> None:
        """Flush queues whose oldest request aged past max_wait_s — or
        whose tightest deadline slack the predicted flush time is about
        to consume (the SLO-aware early flush)."""
        while True:
            with self._lock:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if self._closed:
                    return  # close() drains what is left
                while self._pending and (wait_s := self._wait_s_locked()) > 0:
                    self._cond.wait(timeout=wait_s)
            self._flush_head(lambda: self._wait_s_locked() <= 0)

    def _wait_s_locked(self) -> float:
        """Seconds the deadline thread may still wait (caller holds
        ``_lock``, queue not empty): 0 once the queue is full or
        closed, else the time left until :meth:`_due_at_locked`, at
        most 0 once that has passed."""
        if len(self._pending) >= self.max_batch or self._closed:
            return 0.0
        return self._due_at_locked() - self.clock.now()

    def _due_at_locked(self) -> float:
        """The instant the queue must flush (caller holds ``_lock``):
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

    def _execute(self, batch: list[_Pending], expired=()) -> None:
        """Resolve ``expired`` (entries evicted at admission), then run
        ``batch``. The thread counts as resolving throughout, so that
        no done-callback flushes inline: a batch runs under the flush
        lock, which that flush would wait for forever. The flush's
        service time starts here, after any wait for that lock."""
        resolving = self._resolving
        outer, resolving.active = resolving.active, True
        try:
            self._fail_expired(expired)
            if self.overload_policy == "shed-expired":
                # An expired request cannot meet its deadline whatever
                # we do; spending batch capacity on it only endangers
                # the live ones. Resolve it typed, serve the rest.
                batch, late = self._split_expired(batch)
                self._fail_expired(late)
            # Transition every future to RUNNING first: a future the
            # caller already cancelled drops out here, and the rest can
            # no longer be cancelled, so set_result/set_exception below
            # cannot raise InvalidStateError (which would kill the
            # flushing thread and strand the remaining futures).
            running, requests = [], []
            for pending in batch:
                if pending.future.set_running_or_notify_cancel():
                    running.append(pending)
                    requests.append(pending.request)
            if running:
                self._run_batch(running, requests, self.clock.now())
        finally:
            resolving.active = outer

    def _run_batch(
        self, batch: list[_Pending], requests: list[QueryRequest], started: float
    ) -> None:
        """Answer one flush and resolve its futures in submission order,
        measuring each latency and deadline outcome in the same pass;
        the flush's statistics then land in one update. A row the
        predictor rejected resolves with its
        :class:`~repro.serving.errors.InvalidRequestError`, and a
        predictor exception resolves every future of the flush with it
        instead of propagating; neither counts in the latency or
        deadline statistics."""
        latencies = []
        met = missed = 0
        try:
            responses = self.predictor.predict_batch(requests)
        except Exception as error:
            for pending in batch:
                pending.future.set_exception(error)
        else:
            done = self.clock.now()
            for pending, response in zip(batch, responses):
                if isinstance(response, InvalidRequestError):
                    pending.future.set_exception(response)
                    continue
                latency = done - pending.submitted_at
                latencies.append(latency)
                if pending.deadline_at is not None:
                    if done <= pending.deadline_at:
                        met += 1
                    else:
                        missed += 1
                if response.latency_s is None:
                    # A fresh response from the predictor: stamp it in
                    # place rather than building it a second time. One
                    # the caller may already hold is copied instead.
                    response.__dict__["latency_s"] = latency
                else:
                    response = replace(response, latency_s=latency)
                pending.future.set_result(response)
        service_s = self.clock.now() - started
        with self._stats_lock:
            self.stats.record_latencies(latencies)
            self.stats.record_deadline_outcomes(met, missed)
            self.stats.record_flush(len(batch), service_s=service_s)
