"""Micro-batching scheduler: many callers, one pool of flush workers.

PR 1/2 made whole-batch inference ~20x cheaper per example than the
per-example path — but a serving frontend receives requests one at a
time. :class:`BatchScheduler` is the piece in between: ``submit()``
enqueues a single :class:`~repro.serving.api.QueryRequest` and returns
a :class:`concurrent.futures.Future`; queued requests are coalesced
into one flush when either

* the queue reaches ``max_batch`` (flushed by the submitting caller,
  or by the deadline thread with ``inline_flush=False``),
* the oldest queued request has waited ``max_wait_s``,
* a queued request's **deadline slack** is about to be consumed — the
  deadline thread predicts the flush's wall time with
  :class:`FlushCostModel` (live :class:`~repro.serving.api.ServingStats`
  service percentiles, discounted by the story-cache hit rate) and
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

Every admitted future resolves — with a response, the flush's
exception, or ``DeadlineExceededError``; a shed submission raises
before enqueueing. Shed/expired/deadline-attainment counts land in
``stats`` (``goodput_rate``).

**Fault tolerance.** Predictions are pure functions of the request
and the frozen weights, which makes replay safe and bit-identical —
the scheduler exploits that twice. A ``retry_policy``
(:class:`~repro.serving.resilience.RetryPolicy`) replays sub-batches
whose failure is *transient* per the
:mod:`repro.serving.errors` taxonomy, with deterministic exponential
backoff. In process mode the pool is additionally **supervised**
(``supervise_pool``): when a worker dies mid-flush
(``BrokenProcessPool``), the scheduler rebuilds the executor from the
:class:`~repro.serving.worker.WorkerSpec` recipe it retained at
construction and transparently replays the affected sub-batches on
the fresh pool — bounded by ``max_pool_rebuilds``, and independent of
the retry policy. Failures that survive recovery resolve futures with
*typed* errors (:class:`~repro.serving.errors.SchedulerClosedError`
when a concurrent ``close()`` retired the pool,
:class:`~repro.serving.errors.WorkerCrashError` when the rebuild
budget is spent), never a raw executor internal. Retries, recoveries
and rebuilds are counted in ``stats``.

**Ordering guarantee.** Dequeue from the pending queue is strictly
FIFO — every flush takes a contiguous run of requests in submission
order, and responses within one sub-batch resolve in that order. On
the single-worker inline path flushes additionally *complete* in
dequeue order (a ticket assigned at dequeue time serialises execution
FIFO — previously two racing flushes could acquire the execution lock
out of order and complete newer requests before older ones). With
``n_workers > 1`` sub-batches execute concurrently by design, so
completion order across sub-batches is unordered; per-route FIFO then
holds per sub-batch, not across a flush.

With ``n_workers == 1`` (the default) a flush is one inline
``predict_batch`` call. With ``n_workers > 1`` each flush is split
into up to ``n_workers`` sub-batches — contiguous slices, or whatever
the predictor's optional ``partition_batch`` hook returns (the router
partitions by task) — dispatched concurrently and reassembled in
submission order. ``worker_mode`` picks the pool:

* ``"thread"`` (default) — a ``ThreadPoolExecutor`` running
  ``predict_batch`` in-process. Cheap, but CPU-bound einsum scans
  serialise on the GIL, so it only helps when the predictor releases
  the GIL (large BLAS calls) or blocks on I/O.
* ``"process"`` — a ``ProcessPoolExecutor`` whose workers rebuild the
  predictor locally from its picklable
  :class:`~repro.serving.worker.WorkerSpec` (artifact directory +
  backend + sharding + quantized flag), memory-mapping the artifacts
  npz so all workers share one set of weight pages. Only encoded
  sub-batch arrays cross the pipe (via the predictor's
  ``worker_payload`` hook); stacked result arrays come back and are
  decoded parent-side by ``worker_decode`` — the same decode the
  thread path uses, so responses are bit-identical between modes.
  Requires an artifact-backed predictor; the pool exists even at
  ``n_workers == 1`` (execution is still out-of-process).

All timestamps (submission, deadlines, latencies, per-flush service
time) come from one :class:`~repro.serving.clock.Clock`, so the
numbers line up and tests can swap in a
:class:`~repro.serving.clock.ManualClock`. Per-request latency,
per-flush batch sizes, sub-batch counts and service times are recorded
in :class:`~repro.serving.api.ServingStats` — the numbers
``benchmarks/test_bench_sharding.py`` and
``benchmarks/test_bench_frontend.py`` turn into scaling/goodput
curves.
"""

from __future__ import annotations

import threading
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
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
from repro.serving.errors import (
    SchedulerClosedError,
    ServingError,
    WorkerCrashError,
)
from repro.serving.resilience import RetryPolicy
from repro.serving.worker import initialize_worker, predict_encoded

WORKER_MODES = ("thread", "process")
OVERLOAD_POLICIES = ("block", "shed", "shed-expired")


@dataclass
class _Pending:
    request: QueryRequest
    future: Future
    submitted_at: float
    deadline_at: float | None = None


@dataclass(frozen=True)
class FlushCostModel:
    """Predicts the next flush's wall time from live serving statistics.

    The deadline thread flushes a deadline-carrying queue at
    ``earliest_deadline - estimate - margin`` instead of the fixed
    ``max_wait_s``, so the estimate is what buys extra batching time.
    Base estimate: the p95 of observed per-flush service times (a
    conservative percentile — landing late breaks the SLO, landing
    early only shrinks the batch). The story-encoding cache's hit rate
    then discounts it: a cache hit skips the memory-write phase
    (Eqs. 1–2), which dominates a miss-only flush (the latency
    bimodality PR 7 measured), so a hit-heavy request mix predicts a
    cheaper flush and can keep batching longer before its deadline
    forces the flush. ``write_share`` is the assumed fraction of a
    miss-only flush spent writing memory; ``safety_factor`` inflates
    the whole estimate against scheduling jitter. Until ``min_samples``
    flushes have been observed the model returns ``cold_estimate_s``.
    """

    write_share: float = 0.6
    safety_factor: float = 1.25
    cold_estimate_s: float = 0.002
    min_samples: int = 3

    def estimate_s(self, stats: ServingStats) -> float:
        if stats.flushes < self.min_samples:
            return self.cold_estimate_s
        p95 = stats.p95_service_s
        if p95 <= 0.0:
            return self.cold_estimate_s
        discount = 1.0 - self.write_share * stats.cache_hit_rate
        return p95 * discount * self.safety_factor


class BatchScheduler:
    """Coalesces individually submitted requests into vectorised batches.

    ``predictor`` is anything satisfying the
    :class:`~repro.serving.api.Predictor` protocol. With
    ``start_worker=False`` no deadline thread is spawned and flushes
    happen only on max-batch, ``flush()`` or ``close()`` — fully
    deterministic, the mode the unit tests use (the flush *pool* is
    still used when ``n_workers > 1``; ``_execute`` blocks until its
    sub-batches finish, so determinism is preserved).

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
        n_workers: int = 1,
        worker_mode: str = "thread",
        queue_cap: int | None = None,
        overload_policy: str = "block",
        inline_flush: bool = True,
        cost_model: FlushCostModel | None = None,
        deadline_margin_s: float = 0.0005,
        clock: Clock = MONOTONIC,
        retry_policy: RetryPolicy | None = None,
        supervise_pool: bool = True,
        max_pool_rebuilds: int = 8,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")
        if worker_mode not in WORKER_MODES:
            raise ValueError(
                f"worker_mode must be one of {WORKER_MODES}, got {worker_mode!r}"
            )
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
        self.n_workers = int(n_workers)
        self.worker_mode = worker_mode
        self.queue_cap = int(queue_cap) if queue_cap is not None else None
        self.overload_policy = overload_policy
        self.inline_flush = bool(inline_flush)
        self.cost_model = cost_model or FlushCostModel()
        self.deadline_margin_s = float(deadline_margin_s)
        self.clock = clock
        self.retry_policy = retry_policy
        self.supervise_pool = bool(supervise_pool)
        self.max_pool_rebuilds = int(max_pool_rebuilds)
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
        # The inline single-worker path executes in ticket order, which
        # pins completion order = dequeue order = submission order.
        self._ticket_cond = threading.Condition()
        self._next_ticket = 0
        self._now_serving = 0
        self._retired: set[int] = set()
        # _pool is guarded by _pool_cond: flushes take a usage token
        # (_acquire_pool/_release_pool) and close() retires the pool
        # only once every in-flight flush has released — see close().
        self._pool_cond = threading.Condition()
        self._pool_users = 0
        # Rebuild recipe + budget for the supervised process pool: the
        # WorkerSpecs captured at construction are all a replacement
        # pool needs, and _pool_rebuilds counts lifetime swaps against
        # max_pool_rebuilds (guarded by _pool_cond like _pool itself).
        self._pool_specs = None
        self._pool_rebuilds = 0
        if worker_mode == "process":
            # Fail at construction, not at first flush: process mode
            # needs a predictor that can describe itself as WorkerSpecs.
            specs_hook = getattr(predictor, "worker_specs", None)
            if specs_hook is None:
                raise ValueError(
                    "worker_mode='process' needs a predictor with "
                    "worker_specs/worker_payload/worker_decode hooks "
                    "(open it from an artifact directory)"
                )
            # Even one process worker runs out-of-process, so the pool
            # exists for every n_workers in this mode.
            self._pool_specs = specs_hook()
            self._pool = self._make_process_pool()
        else:
            self._pool = (
                ThreadPoolExecutor(
                    max_workers=self.n_workers,
                    thread_name_prefix="BatchSchedulerWorker",
                )
                if self.n_workers > 1
                else None
            )
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

    def _drop_expired_locked(self) -> int:
        """Evict queued requests whose deadline already passed (caller
        holds ``_cond``); their futures resolve with
        :class:`DeadlineExceededError`. Returns the eviction count."""
        now = self.clock.now()
        expired = [
            p
            for p in self._pending
            if p.deadline_at is not None and now >= p.deadline_at
        ]
        if not expired:
            return 0
        dead = set(map(id, expired))
        self._pending = [p for p in self._pending if id(p) not in dead]
        dropped = self._resolve_expired(expired)
        if self._pending_has_room_locked():
            self._notify_room_locked()
        return dropped

    def _resolve_expired(self, expired: list[_Pending]) -> int:
        """Resolve already-dequeued expired requests; returns how many
        actually resolved (a concurrently cancelled future is skipped)."""
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
        return dropped

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
        """Flush outstanding requests and stop the workers. Idempotent.

        A max-batch flush from a racing ``submit()`` may still be in
        flight here; the pool is retired only after every such flush
        has released its usage token, so ``_execute`` never observes
        the pool disappearing mid-flush (the old code nulled the pool
        immediately, stranding already-RUNNING futures with an
        AttributeError in the flushing thread).
        """
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
        with self._pool_cond:
            while self._pool_users:
                self._pool_cond.wait()
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

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
        is assigned per non-empty take; inline execution honours ticket
        order (see :meth:`_await_turn`)."""
        batch = self._pending[: limit]
        if not batch:
            return [], None
        del self._pending[: len(batch)]
        ticket = self._next_ticket
        self._next_ticket += 1
        self._notify_room_locked()
        return batch, ticket

    def _await_turn(self, ticket: int) -> None:
        """Block until every earlier ticket has retired — the inline
        path's FIFO-completion fence (pooled flushes skip it: sub-batch
        concurrency is their point)."""
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
        whose tightest deadline slack the predicted flush cost is about
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
        deadline — flush at ``deadline - predicted flush cost - margin``
        so the answer lands inside the budget. A hit-heavy mix (high
        cache hit rate) predicts a cheaper flush, so deadline-carrying
        queues batch longer exactly when the cache makes that safe."""
        due = self._pending[0].submitted_at + self.max_wait_s
        earliest = None
        for pending in self._pending:
            if pending.deadline_at is not None and (
                earliest is None or pending.deadline_at < earliest
            ):
                earliest = pending.deadline_at
        if earliest is not None:
            with self._stats_lock:
                estimate = self.cost_model.estimate_s(self.stats)
            due = min(due, earliest - estimate - self.deadline_margin_s)
        return due

    def _partition(self, batch: list[_Pending]) -> list[list[_Pending]]:
        """Split a flush into sub-batches for the worker pool.

        Uses the predictor's task-aware ``partition_batch`` hook when
        present (so mixed-task flushes are not split mid-task),
        otherwise balanced contiguous chunks.
        """
        n = min(self.n_workers, len(batch))
        hook = getattr(self.predictor, "partition_batch", None)
        if hook is not None:
            groups = hook([p.request for p in batch], n)
            chunks = [[batch[i] for i in group] for group in groups if group]
            if chunks and sorted(i for g in groups for i in g) == list(
                range(len(batch))
            ):
                return chunks
        size, extra = divmod(len(batch), n)
        chunks, start = [], 0
        for k in range(n):
            stop = start + size + (1 if k < extra else 0)
            chunks.append(batch[start:stop])
            start = stop
        return [c for c in chunks if c]

    def _make_process_pool(self) -> ProcessPoolExecutor:
        """A fresh worker pool from the retained WorkerSpec recipe —
        used at construction and by every supervised rebuild."""
        return ProcessPoolExecutor(
            max_workers=self.n_workers,
            initializer=initialize_worker,
            initargs=(self._pool_specs,),
        )

    def _rebuild_pool(self, broken) -> ProcessPoolExecutor | None:
        """Swap a broken process pool for a fresh one (supervision).

        Returns the pool to replay the affected sub-batches on, or
        ``None`` when replay is impossible: the scheduler is closed,
        supervision is off, or the rebuild budget is spent. Idempotent
        under concurrent flushes — whoever loses the race just gets the
        replacement another flush already installed, without burning a
        second budget slot.
        """
        with self._pool_cond:
            current = self._pool
            if current is not None and current is not broken:
                return current  # another flush already swapped it in
            if (
                current is None
                or self._closed
                or not self.supervise_pool
                or self._pool_rebuilds >= self.max_pool_rebuilds
            ):
                return None
            self._pool_rebuilds += 1
            self._pool = self._make_process_pool()
            fresh = self._pool
        # Reap the dead pool outside the lock; its workers are gone, so
        # there is nothing to wait for.
        broken.shutdown(wait=False)
        with self._stats_lock:
            self.stats.record_pool_rebuild()
        return fresh

    @property
    def pool_rebuilds(self) -> int:
        """Lifetime count of supervised pool swaps."""
        with self._pool_cond:
            return self._pool_rebuilds

    @staticmethod
    def _is_pool_failure(error: BaseException) -> bool:
        """Whether a failure condemns the *pool* rather than the batch:
        ``BrokenExecutor`` (a worker process died) or the executor's
        raw RuntimeError for submitting after another flush already
        retired/swapped the pool this flush still references."""
        if isinstance(error, BrokenExecutor):
            return True
        return (
            isinstance(error, RuntimeError)
            and not isinstance(error, ServingError)
            and "shutdown" in str(error)
        )

    def note_safety_net_wakeup(self) -> None:
        """Count one lost-wakeup safety-net firing (async frontend)."""
        with self._stats_lock:
            self.stats.record_safety_net()

    def note_breaker_open(self) -> None:
        """Count one circuit-breaker open transition (router hook)."""
        with self._stats_lock:
            self.stats.record_breaker_open()

    def note_degraded(self, n: int = 1) -> None:
        """Count requests a route's degraded fallback served (router)."""
        with self._stats_lock:
            self.stats.record_degraded(n)

    def _acquire_pool(self):
        """Take a usage token on the pool, or None when it is gone.

        Holding a token blocks ``close()`` from shutting the pool down,
        so a captured pool reference stays submittable for the whole
        flush — this (plus the inline fallback in ``_execute``) is the
        fix for the close/flush race.
        """
        with self._pool_cond:
            if self._pool is None:
                return None
            self._pool_users += 1
            return self._pool

    def _release_pool(self) -> None:
        with self._pool_cond:
            self._pool_users -= 1
            if not self._pool_users:
                self._pool_cond.notify_all()

    def _execute(self, batch: list[_Pending], ticket: int | None = None) -> None:
        try:
            if self.overload_policy == "shed-expired":
                # An expired request cannot meet its deadline whatever
                # we do; spending batch capacity on it only endangers
                # the live ones. Resolve it typed, serve the rest.
                now = self.clock.now()
                expired = [
                    p
                    for p in batch
                    if p.deadline_at is not None and now >= p.deadline_at
                ]
                if expired:
                    self._resolve_expired(expired)
                    dead = set(map(id, expired))
                    batch = [p for p in batch if id(p) not in dead]
            # Transition every future to RUNNING first: a future the
            # caller already cancelled drops out here, and the rest can
            # no longer be cancelled, so set_result/set_exception below
            # cannot raise InvalidStateError (which would kill the
            # flushing thread and strand the remaining futures).
            batch = [p for p in batch if p.future.set_running_or_notify_cancel()]
            if not batch:
                return
            pool = self._acquire_pool()
            started = self.clock.now()
            if pool is None:
                # Single-worker mode, or close() already retired the
                # pool out from under a racing max-batch flush: answer
                # inline so the RUNNING futures resolve instead of
                # stranding. Ticket order makes completion FIFO here.
                if ticket is not None:
                    self._await_turn(ticket)
                self._run_chunk(batch)
                with self._stats_lock:
                    self.stats.record_flush(
                        len(batch),
                        n_shards=1,
                        service_s=self.clock.now() - started,
                    )
                self._sync_cache_stats()
                return
            try:
                try:
                    chunks = self._partition(batch)
                except Exception as error:
                    # The partition hook is predictor code too: a
                    # raising hook must resolve (not strand) the
                    # already-RUNNING futures, and must not kill the
                    # deadline thread.
                    self._fail_chunk(batch, error)
                    return
                if self.worker_mode == "process":
                    self._execute_process(pool, chunks)
                else:
                    self._execute_threads(pool, chunks)
                with self._stats_lock:
                    self.stats.record_flush(
                        len(batch),
                        n_shards=len(chunks),
                        service_s=self.clock.now() - started,
                    )
                self._sync_cache_stats()
            finally:
                self._release_pool()
        finally:
            self._retire_ticket(ticket)

    def _sync_cache_stats(self) -> None:
        """Mirror the predictor's cumulative story-cache counters into
        ``stats`` (no-op for predictors without the hook / a cache)."""
        counters_hook = getattr(self.predictor, "cache_counters", None)
        if counters_hook is None:
            return
        counters = counters_hook()
        if counters is None:
            return
        with self._stats_lock:
            self.stats.set_cache_counters(*counters)

    def _execute_threads(self, pool, chunks: list[list[_Pending]]) -> None:
        submitted = []
        failure = None
        for chunk in chunks[1:]:
            if failure is None:
                try:
                    submitted.append(pool.submit(self._run_chunk, chunk))
                    continue
                except Exception as error:  # e.g. a broken executor
                    failure = error
            self._fail_chunk(chunk, failure)
        # The flushing thread works one sub-batch itself instead of
        # idling — with W workers a flush occupies W threads, not W+1.
        self._run_chunk(chunks[0])
        for future in submitted:
            future.result()  # _run_chunk never raises; propagate crashes

    def _execute_process(self, pool, chunks: list[list[_Pending]]) -> None:
        """Ship each sub-batch's encoded arrays to a worker process.

        Every chunk is submitted before any result is awaited so the
        pool works them concurrently. Failures are classified, not
        propagated raw: a failure that condemns the *pool* (a worker
        died → ``BrokenProcessPool``) triggers a supervised rebuild
        from the retained WorkerSpecs and the affected sub-batches are
        replayed on the fresh pool — predictions are pure, so the
        replay is bit-identical. A *transient* failure the worker
        raised is replayed per ``retry_policy`` with one backoff sleep
        per round. Everything else resolves that chunk's futures typed:
        :class:`~repro.serving.errors.SchedulerClosedError` when a
        concurrent ``close()`` took the pool away for good,
        :class:`~repro.serving.errors.WorkerCrashError` (cause chained)
        when the rebuild budget is spent, the original error otherwise
        — all without stranding the other chunks.
        """
        retry = self.retry_policy
        pending_chunks = [(chunk, 1) for chunk in chunks]
        while pending_chunks:
            round_pool = pool
            jobs: list[tuple[list[_Pending], int, Future | None, object]] = []
            for chunk, attempt in pending_chunks:
                job = error = None
                try:
                    payload = self.predictor.worker_payload(
                        [p.request for p in chunk]
                    )
                    job = round_pool.submit(predict_encoded, *payload)
                except Exception as exc:
                    error = exc
                jobs.append((chunk, attempt, job, error))
            pending_chunks = []
            backoff_s = 0.0
            for chunk, attempt, job, error in jobs:
                if error is None:
                    try:
                        labels, logits, comparisons, early_exits, cache_delta = (
                            job.result()
                        )
                        responses = self.predictor.worker_decode(
                            [p.request for p in chunk],
                            labels,
                            logits,
                            comparisons,
                            early_exits,
                        )
                    except Exception as exc:
                        error = exc
                    else:
                        if cache_delta is not None:
                            absorb = getattr(
                                self.predictor, "absorb_worker_cache", None
                            )
                            if absorb is not None:
                                absorb([p.request for p in chunk], cache_delta)
                        self._resolve_chunk(chunk, responses)
                        if attempt > 1:
                            with self._stats_lock:
                                self.stats.record_recovered(len(chunk))
                        continue
                if self._is_pool_failure(error):
                    # Pool-level: rebuild-and-replay needs no retry
                    # policy — it is bounded by max_pool_rebuilds, and
                    # the rebuild is shared by every chunk this round.
                    replacement = self._rebuild_pool(round_pool)
                    if replacement is not None:
                        pool = replacement
                        pending_chunks.append((chunk, attempt + 1))
                        with self._stats_lock:
                            self.stats.record_retry()
                        continue
                    if self._closed:
                        closed = SchedulerClosedError(
                            "scheduler closed while a process flush was "
                            "in flight; the worker pool is gone on purpose"
                        )
                        closed.__cause__ = error
                        self._fail_chunk(chunk, closed)
                        continue
                    crash = WorkerCrashError(
                        "worker pool broke and could not be rebuilt "
                        f"(supervise_pool={self.supervise_pool}, rebuilds "
                        f"used {self._pool_rebuilds}/{self.max_pool_rebuilds})"
                    )
                    crash.__cause__ = error
                    self._fail_chunk(chunk, crash)
                    continue
                if retry is not None and retry.should_retry(error, attempt):
                    backoff_s = max(backoff_s, retry.backoff_s(attempt))
                    pending_chunks.append((chunk, attempt + 1))
                    with self._stats_lock:
                        self.stats.record_retry()
                    continue
                self._fail_chunk(chunk, error)
            if pending_chunks and backoff_s > 0.0:
                self.clock.sleep(backoff_s)

    def _resolve_chunk(
        self, chunk: list[_Pending], responses: list[QueryResponse]
    ) -> None:
        """Resolve one answered sub-batch: latency + deadline-attainment
        accounting, then the futures, in submission order."""
        done = self.clock.now()
        latencies = [done - pending.submitted_at for pending in chunk]
        met = missed = 0
        for pending in chunk:
            if pending.deadline_at is not None:
                if done <= pending.deadline_at:
                    met += 1
                else:
                    missed += 1
        with self._stats_lock:
            self.stats.record_latencies(latencies)
            self.stats.record_deadline_outcomes(met, missed)
        for pending, response, latency in zip(chunk, responses, latencies):
            if response.latency_s is None:
                # A fresh response from the predictor: stamp it in place
                # rather than building it a second time. One the caller
                # may already hold (stamped before) is copied instead.
                object.__setattr__(response, "latency_s", latency)
            else:
                response = replace(response, latency_s=latency)
            pending.future.set_result(response)

    def _run_chunk(self, chunk: list[_Pending]) -> None:
        """Answer one sub-batch, resolving its futures in order.

        The thread/inline twin of the process path's recovery:
        transient predictor failures are replayed per ``retry_policy``
        (predictions are pure, so the replay is bit-identical); the
        final failure resolves the sub-batch's futures instead of
        propagating.
        """
        retry = self.retry_policy
        requests = [p.request for p in chunk]
        attempt = 1
        while True:
            try:
                responses = self.predictor.predict_batch(requests)
            except Exception as error:
                if retry is not None and retry.should_retry(error, attempt):
                    with self._stats_lock:
                        self.stats.record_retry()
                    self.clock.sleep(retry.backoff_s(attempt))
                    attempt += 1
                    continue
                self._fail_chunk(chunk, error)
                return
            if attempt > 1:
                with self._stats_lock:
                    self.stats.record_recovered(len(chunk))
            self._resolve_chunk(chunk, responses)
            return

    def _fail_chunk(self, chunk: list[_Pending], error: BaseException) -> None:
        """Resolve one failed sub-batch: tell the predictor (the
        router's ``record_failure`` hook feeds per-route circuit
        breakers), then set the error on every future. The single
        failure sink for every flush path — futures are never stranded
        and never see a raw executor internal."""
        hook = getattr(self.predictor, "record_failure", None)
        if hook is not None:
            try:
                hook([p.request for p in chunk], error)
            except Exception:
                pass  # the hook must not strand futures or kill flushes
        for pending in chunk:
            pending.future.set_exception(error)
