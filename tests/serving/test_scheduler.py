"""Micro-batching scheduler semantics, against a stub predictor.

A stub keeps these tests fast and deterministic: the scheduler only
needs the ``predict_batch`` protocol, and real-engine equivalence is
covered at the end against the tiny trained suite.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import logging
import queue
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.serving import (
    BatchScheduler,
    DeadlineExceededError,
    InvalidRequestError,
    ManualClock,
    OverloadError,
    QueryRequest,
    QueryResponse,
    SchedulerClosedError,
    SoftwarePredictor,
    open_predictor,
)


def _request(i: int, deadline_s: float | None = None) -> QueryRequest:
    return QueryRequest(
        story=np.full((2, 3), i + 1, dtype=np.int64),
        question=np.array([i + 1, 0, 0], dtype=np.int64),
        request_id=i,
        deadline_s=deadline_s,
    )


class StubPredictor:
    """Echoes request ids back as labels and records flush sizes."""

    def __init__(self, fail: bool = False):
        self.flush_sizes: list[int] = []
        self.fail = fail

    def predict(self, request):
        return self.predict_batch([request])[0]

    def predict_batch(self, requests):
        if self.fail:
            raise RuntimeError("backend down")
        self.flush_sizes.append(len(requests))
        return [
            QueryResponse(
                label=int(r.request_id),
                logit=0.0,
                comparisons=1,
                early_exit=False,
                request_id=r.request_id,
            )
            for r in requests
        ]


class RejectsOdd(StubPredictor):
    """Answers even request ids and rejects odd ones in their rows."""

    def predict_batch(self, requests):
        answers = super().predict_batch(requests)
        return [
            InvalidRequestError(f"row {r.request_id}") if r.request_id % 2 else answer
            for r, answer in zip(requests, answers)
        ]


class TestManualMode:
    def test_flush_resolves_everything(self):
        stub = StubPredictor()
        scheduler = BatchScheduler(stub, max_batch=8, start_worker=False)
        futures = [scheduler.submit(_request(i)) for i in range(5)]
        assert scheduler.pending == 5
        assert not any(f.done() for f in futures)
        scheduler.flush()
        assert [f.result().label for f in futures] == list(range(5))
        assert stub.flush_sizes == [5]

    def test_max_batch_flushes_inline(self):
        stub = StubPredictor()
        scheduler = BatchScheduler(stub, max_batch=3, start_worker=False)
        futures = [scheduler.submit(_request(i)) for i in range(7)]
        # Two full batches flushed at submit time, one request queued.
        assert stub.flush_sizes == [3, 3]
        assert scheduler.pending == 1
        assert futures[5].done() and not futures[6].done()
        scheduler.close()
        assert stub.flush_sizes == [3, 3, 1]
        assert futures[6].result().label == 6

    def test_stats_and_latency(self):
        scheduler = BatchScheduler(StubPredictor(), max_batch=4, start_worker=False)
        futures = [scheduler.submit(_request(i)) for i in range(4)]
        response = futures[0].result()
        assert response.latency_s is not None and response.latency_s >= 0
        assert scheduler.stats.requests == 4
        assert scheduler.stats.flushes == 1
        assert scheduler.stats.mean_batch_size == 4.0
        assert len(scheduler.stats.latencies_s) == 4
        assert max(scheduler.stats.latencies_s) >= scheduler.stats.mean_latency_s

    def test_error_propagates_to_futures(self):
        scheduler = BatchScheduler(StubPredictor(fail=True), max_batch=2, start_worker=False)
        futures = [scheduler.submit(_request(i)) for i in range(2)]
        with pytest.raises(RuntimeError, match="backend down"):
            futures[0].result()
        assert isinstance(futures[1].exception(), RuntimeError)

    def test_rejected_row_fails_only_its_future(self):
        """An InvalidRequestError in a row of the predictor's answer
        resolves that row's future alone, and the row counts in neither
        the latency nor the deadline statistics."""
        clock = ManualClock()
        scheduler = BatchScheduler(
            RejectsOdd(), max_batch=8, start_worker=False, clock=clock
        )
        futures = [scheduler.submit(_request(i, deadline_s=1.0)) for i in range(4)]
        scheduler.flush()
        assert [f.result().label for f in futures[::2]] == [0, 2]
        for i in (1, 3):
            with pytest.raises(InvalidRequestError, match=f"row {i}"):
                futures[i].result()
        stats = scheduler.stats
        assert (stats.requests, len(stats.latencies_s)) == (4, 2)
        assert (stats.deadline_met, stats.deadline_missed) == (2, 0)

    def test_cancelled_future_skipped_not_fatal(self):
        """A caller-cancelled future must not poison the flush."""
        stub = StubPredictor()
        scheduler = BatchScheduler(stub, max_batch=8, start_worker=False)
        futures = [scheduler.submit(_request(i)) for i in range(3)]
        assert futures[1].cancel()
        scheduler.flush()
        assert futures[0].result().label == 0
        assert futures[2].result().label == 2
        assert futures[1].cancelled()
        assert stub.flush_sizes == [2]  # the cancelled request never ran

    def test_submit_after_close_rejected(self):
        scheduler = BatchScheduler(StubPredictor(), start_worker=False)
        scheduler.close()
        # Typed, and still a RuntimeError for callers that predate it.
        with pytest.raises(SchedulerClosedError, match="closed"):
            scheduler.submit(_request(0))
        assert issubclass(SchedulerClosedError, RuntimeError)

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchScheduler(StubPredictor(), max_batch=0, start_worker=False)
        with pytest.raises(ValueError):
            BatchScheduler(StubPredictor(), max_wait_s=-1.0, start_worker=False)


def _flush_soon(scheduler, delay_s: float = 0.05) -> threading.Thread:
    """Flush ``scheduler`` from another thread after ``delay_s``, so that
    the caller is already waiting when the futures resolve."""
    thread = threading.Thread(target=lambda: (time.sleep(delay_s), scheduler.flush()))
    thread.start()
    return thread


class TestFutureContract:
    """What a caller may do with a ``submit()`` future: everything a
    ``concurrent.futures.Future`` supports, blocking or not."""

    def _scheduler(self, predictor=None):
        return BatchScheduler(predictor or StubPredictor(), max_batch=64, start_worker=False)

    def test_is_a_concurrent_future(self):
        scheduler = self._scheduler()
        future = scheduler.submit(_request(0))
        assert isinstance(future, concurrent.futures.Future)
        scheduler.close()

    def test_asyncio_wrap_future_resolves(self):
        scheduler = self._scheduler()

        async def run():
            wrapped = asyncio.wrap_future(scheduler.submit(_request(3)))
            scheduler.flush()
            return await asyncio.wait_for(wrapped, timeout=5.0)

        assert asyncio.run(run()).label == 3
        scheduler.close()

    def test_wait_returns_futures_resolved_by_another_thread(self):
        scheduler = self._scheduler()
        futures = [scheduler.submit(_request(i)) for i in range(4)]
        flusher = _flush_soon(scheduler)
        done, not_done = concurrent.futures.wait(futures, timeout=5.0)
        flusher.join(timeout=5.0)
        assert done == set(futures) and not not_done
        assert [f.result().label for f in futures] == [0, 1, 2, 3]
        scheduler.close()

    def test_as_completed_yields_every_future(self):
        scheduler = self._scheduler()
        resolved = scheduler.submit(_request(0))
        scheduler.flush()
        futures = [resolved] + [scheduler.submit(_request(i)) for i in range(1, 4)]
        flusher = _flush_soon(scheduler)
        completed = list(concurrent.futures.as_completed(futures, timeout=5.0))
        flusher.join(timeout=5.0)
        assert set(completed) == set(futures) and len(completed) == 4
        scheduler.close()

    def test_result_timeout_while_queued_then_answer(self):
        scheduler = self._scheduler()
        future = scheduler.submit(_request(5))
        with pytest.raises(concurrent.futures.TimeoutError):
            future.result(timeout=0.01)
        with pytest.raises(concurrent.futures.TimeoutError):
            future.exception(timeout=0.01)
        scheduler.flush()
        assert future.result(timeout=0.01).label == 5
        scheduler.close()

    def test_blocked_result_wakes_when_another_thread_flushes(self):
        """Each waiter wakes on its answer, well before its own timeout:
        a lost wakeup leaves it blocked past the join below."""
        scheduler = self._scheduler()
        futures = [scheduler.submit(_request(i)) for i in range(8)]
        answers: dict[int, int] = {}

        def wait_for(i):
            answers[i] = futures[i].result(timeout=60.0).label

        waiters = [
            threading.Thread(target=wait_for, args=(i,), daemon=True) for i in range(8)
        ]
        for thread in waiters:
            thread.start()
        time.sleep(0.05)  # let the waiters block
        scheduler.flush()
        for thread in waiters:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert answers == {i: i for i in range(8)}
        scheduler.close()

    def test_wakeup_for_a_neighbour_does_not_time_out_a_wait(self):
        """Cancelling one future wakes only its own waiters: a thread in
        ``result(timeout)`` on the next future keeps waiting for its
        answer (a Condition shared between futures would wake it, and
        ``result`` would raise TimeoutError)."""
        scheduler = self._scheduler()
        cancelled, waited = (scheduler.submit(_request(i)) for i in range(2))
        outcome: list = []

        def wait():
            try:
                outcome.append(waited.result(timeout=60.0).label)
            except BaseException as error:  # surfaced below
                outcome.append(error)

        waiter = threading.Thread(target=wait, daemon=True)
        waiter.start()
        time.sleep(0.05)
        assert cancelled.cancel()
        time.sleep(0.05)
        scheduler.flush()
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert outcome == [1]
        scheduler.close()

    def test_cancel_before_flush(self):
        """A cancelled future raises CancelledError, each callback of the
        flush fires exactly once, and its neighbours are answered."""
        stub = StubPredictor()
        scheduler = self._scheduler(stub)
        futures = [scheduler.submit(_request(i)) for i in range(3)]
        calls: Counter = Counter()
        for future in futures:
            future.add_done_callback(lambda f: calls.update([f]))
        assert futures[1].cancel()
        scheduler.flush()
        with pytest.raises(concurrent.futures.CancelledError):
            futures[1].result()
        assert futures[1].cancelled() and futures[1].done()
        assert [futures[i].result().label for i in (0, 2)] == [0, 2]
        assert calls == Counter(futures)
        assert stub.flush_sizes == [2]
        scheduler.close()

    def test_callback_on_a_resolved_future_runs_at_once(self):
        scheduler = self._scheduler()
        future = scheduler.submit(_request(0))
        scheduler.flush()
        seen = []
        future.add_done_callback(seen.append)
        assert seen == [future]
        scheduler.close()

    def test_raising_callback_is_logged_not_propagated(self, caplog):
        scheduler = self._scheduler()
        futures = [scheduler.submit(_request(i)) for i in range(3)]

        def broken(future):
            raise RuntimeError("callback bug")

        later = []
        futures[0].add_done_callback(broken)
        futures[0].add_done_callback(later.append)
        with caplog.at_level(logging.ERROR, logger="concurrent.futures"):
            scheduler.flush()  # does not raise
            futures[0].add_done_callback(broken)  # resolved: runs, logged
        assert [f.result().label for f in futures] == [0, 1, 2]
        assert later == [futures[0]]
        logged = [r for r in caplog.records if "exception calling callback" in r.getMessage()]
        assert len(logged) == 2
        assert scheduler.stats.requests == 3
        scheduler.close()

    def test_stress_waiters_callbacks_and_cancels_race_the_flushes(self):
        """Submitters, blocking waiters and cancellers race max-batch
        and deadline-thread flushes at a short switch interval: every
        future ends answered with its own label or cancelled, each
        callback fires exactly once, and no waiter is left blocked."""
        n_submitters, per_submitter, n_waiters = 4, 100, 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            scheduler = BatchScheduler(StubPredictor(), max_batch=8, max_wait_s=0.001)
            handed: queue.Queue = queue.Queue()
            calls: Counter = Counter()
            lock = threading.Lock()
            futures: dict[int, concurrent.futures.Future] = {}
            errors: list = []
            slowest = [0.0]

            def count(future):
                with lock:
                    calls[future] += 1

            def submitter(base):
                for i in range(base, base + per_submitter):
                    future = scheduler.submit(_request(i))
                    future.add_done_callback(count)
                    with lock:
                        futures[i] = future
                    handed.put((i, future))

            def waiter():
                while (item := handed.get(timeout=30.0)) is not None:
                    i, future = item
                    if i % 4 == 0 and future.cancel():
                        continue
                    started = time.perf_counter()
                    try:
                        label = future.result(timeout=30.0).label
                    except BaseException as error:  # surfaced below
                        errors.append(error)
                        continue
                    with lock:
                        slowest[0] = max(slowest[0], time.perf_counter() - started)
                    if label != i:
                        errors.append(AssertionError(f"{i} answered {label}"))

            submitters = [
                threading.Thread(target=submitter, args=(k * per_submitter,), daemon=True)
                for k in range(n_submitters)
            ]
            waiters = [threading.Thread(target=waiter, daemon=True) for _ in range(n_waiters)]
            for thread in submitters + waiters:
                thread.start()
            for thread in submitters:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            for _ in waiters:
                handed.put(None)
            for thread in waiters:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            scheduler.close()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[:3]
        assert slowest[0] < 5.0  # woken by its flush, not by its timeout
        total = n_submitters * per_submitter
        assert len(futures) == total
        assert all(f.done() for f in futures.values())
        answered = [i for i, f in futures.items() if not f.cancelled()]
        assert all(futures[i].result().label == i for i in answered)
        assert calls == Counter(futures.values())
        assert scheduler.stats.requests == len(answered)

    def test_rejected_row_resolves_through_set_exception(self):
        scheduler = self._scheduler(RejectsOdd())
        futures = [scheduler.submit(_request(i)) for i in range(2)]
        seen = []
        futures[1].add_done_callback(seen.append)
        scheduler.flush()
        error = futures[1].exception(timeout=0)
        assert isinstance(error, InvalidRequestError) and str(error) == "row 1"
        assert futures[1].done() and not futures[1].cancelled()
        with pytest.raises(InvalidRequestError):
            futures[1].result(timeout=0)
        assert seen == [futures[1]]
        assert futures[0].exception(timeout=0) is None
        scheduler.close()


class TestLazyCondition:
    """The submit() future builds its Condition only for a thread that
    must wait; a caller that never blocks costs no Condition."""

    def test_callback_path_builds_no_condition(self):
        scheduler = BatchScheduler(StubPredictor(), max_batch=4, start_worker=False)
        futures = [scheduler.submit(_request(i)) for i in range(4)]
        for future in futures:
            future.add_done_callback(lambda f: None)
            assert future.done()
            assert future.exception() is None and not future.cancelled()
            assert future.result().label >= 0
            assert future._cond is None
        scheduler.close()

    def test_waiting_thread_builds_one_condition_per_future(self):
        scheduler = BatchScheduler(StubPredictor(), max_batch=64, start_worker=False)
        first, second = (scheduler.submit(_request(i)) for i in range(2))
        with pytest.raises(concurrent.futures.TimeoutError):
            first.result(timeout=0.001)
        assert first._cond is not None and second._cond is None
        concurrent.futures.wait([second], timeout=0.001)
        assert second._cond is not None and second._cond is not first._cond
        scheduler.flush()
        assert first.result().label == 0 and second.result().label == 1
        scheduler.close()


class TestWorker:
    def test_max_wait_flushes_partial_batch(self):
        stub = StubPredictor()
        with BatchScheduler(stub, max_batch=64, max_wait_s=0.01) as scheduler:
            futures = [scheduler.submit(_request(i)) for i in range(3)]
            results = [f.result(timeout=5.0) for f in futures]
        assert [r.label for r in results] == [0, 1, 2]
        assert sum(stub.flush_sizes) == 3
        assert all(size < 64 for size in stub.flush_sizes)

    def test_concurrent_submitters(self):
        stub = StubPredictor()
        scheduler = BatchScheduler(stub, max_batch=16, max_wait_s=0.005)
        futures: dict[int, object] = {}
        lock = threading.Lock()

        def client(offset: int):
            for i in range(offset, offset + 25):
                future = scheduler.submit(_request(i))
                with lock:
                    futures[i] = future
                time.sleep(0)

        threads = [threading.Thread(target=client, args=(base,)) for base in (0, 25, 50, 75)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        results = {i: f.result(timeout=5.0).label for i, f in futures.items()}
        scheduler.close()
        assert results == {i: i for i in range(100)}
        assert scheduler.stats.requests == 100
        assert sum(stub.flush_sizes) == 100

    def test_close_drains_pending(self):
        stub = StubPredictor()
        scheduler = BatchScheduler(stub, max_batch=64, max_wait_s=30.0)
        futures = [scheduler.submit(_request(i)) for i in range(5)]
        scheduler.close()  # long max_wait: only close() can flush these
        assert [f.result(timeout=1.0).label for f in futures] == list(range(5))
        scheduler.close()  # idempotent

    def test_closed_scheduler_rejects_submits_typed(self):
        """Once the worker is stopped, both entry points refuse with the
        typed error instead of queueing a future no flush would reach."""
        scheduler = BatchScheduler(StubPredictor(), max_batch=4, max_wait_s=0.01)
        scheduler.close()
        for submit in (scheduler.submit, scheduler.submit_nowait):
            with pytest.raises(SchedulerClosedError, match="closed"):
                submit(_request(0))
        assert scheduler.stats.requests == 0

    def test_stress_concurrent_submitters_with_cancellations(self):
        """The satellite stress contract: many submitters + mixed
        cancellations, no lost or duplicated futures, every response
        mapped to its own request."""
        stub = StubPredictor()
        scheduler = BatchScheduler(stub, max_batch=16, max_wait_s=0.002)
        n_clients, per_client = 8, 50
        futures: dict[int, object] = {}
        cancelled: set[int] = set()
        lock = threading.Lock()

        def client(base: int):
            for i in range(base, base + per_client):
                future = scheduler.submit(_request(i))
                with lock:
                    futures[i] = future
                # Try to cancel a deterministic ~20% slice immediately;
                # cancellation only wins while the flush has not
                # started, so some attempts legitimately fail.
                if i % 5 == 0 and future.cancel():
                    with lock:
                        cancelled.add(i)
                if i % 7 == 0:
                    time.sleep(0)  # jitter the interleaving

        threads = [
            threading.Thread(target=client, args=(k * per_client,))
            for k in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_clients * per_client
        results = {}
        for i, future in futures.items():
            if i in cancelled:
                assert future.cancelled(), i
            else:
                results[i] = future.result(timeout=10.0)
        scheduler.close()

        # No lost futures: every non-cancelled submission resolved.
        assert len(futures) == total
        assert len(results) == total - len(cancelled)
        # No duplicated/crossed responses: each echoes its request id.
        assert all(r.label == i for i, r in results.items())
        # No duplicated execution: the predictor saw each request once.
        assert sum(stub.flush_sizes) == total - len(cancelled)
        assert scheduler.stats.requests == total - len(cancelled)

    def test_close_under_load_strands_nothing(self):
        """Under submit/close contention (close() racing the
        submitters' max-batch flushes) every accepted future must end
        resolved or cancelled."""
        for _ in range(15):
            stub = StubPredictor()
            scheduler = BatchScheduler(stub, max_batch=4, start_worker=False)
            futures: list = []
            lock = threading.Lock()
            errors: list = []

            def client(base: int):
                try:
                    for i in range(base, base + 40):
                        try:
                            future = scheduler.submit(_request(i))
                        except RuntimeError:
                            return  # scheduler closed — the only legal refusal
                        with lock:
                            futures.append((i, future))
                except Exception as error:  # pragma: no cover - the bug
                    errors.append(error)

            threads = [
                threading.Thread(target=client, args=(k * 100,))
                for k in range(4)
            ]
            for t in threads:
                t.start()
            scheduler.close()  # races the submitters' max-batch flushes
            for t in threads:
                t.join()
            scheduler.close()  # idempotent after the storm
            assert not errors
            for i, future in futures:
                if not future.cancelled():
                    assert future.result(timeout=5.0).label == i


class TestWithRealPredictor:
    def test_scheduled_results_match_direct_calls(self, tiny_suite):
        system = tiny_suite.tasks[1]
        batch = system.test_batch
        predictor = open_predictor(tiny_suite, 1, mips_backend="threshold", rho=1.0)
        requests = [
            QueryRequest(batch.stories[i], batch.questions[i], int(batch.story_lengths[i]))
            for i in range(len(batch))
        ]
        direct = [predictor.predict(r) for r in requests]
        with BatchScheduler(predictor, max_batch=4, max_wait_s=0.01) as scheduler:
            futures = [scheduler.submit(r) for r in requests]
            scheduled = [f.result(timeout=10.0) for f in futures]
        assert [r.label for r in scheduled] == [r.label for r in direct]
        assert [r.comparisons for r in scheduled] == [r.comparisons for r in direct]
        assert scheduler.stats.requests == len(batch)
        assert scheduler.stats.mean_batch_size > 1.0


class SixMsFlushes(SoftwarePredictor):
    """A real story-cached software predictor whose every flush takes
    6 ms on a :class:`ManualClock`."""

    def __init__(self, engine, clock: ManualClock):
        super().__init__(engine)
        self.clock = clock

    def predict_batch(self, requests):
        responses = super().predict_batch(requests)
        self.clock.advance(0.006)
        return responses


class TestDeadlineOnCachedRoute:
    def test_cache_hits_do_not_flush_a_deadline_late(self, tiny_suite):
        """The recorded 6 ms flushes already include the story-cache
        hits, so a 25 ms budget must flush at least 6 ms before its
        deadline (here p95 x 1.25 + 0.5 ms = 8 ms: answered at 23 ms).
        Discounting the p95 again by a 90% hit rate flushed it 3.95 ms
        early, and answered it at 27.05 ms."""
        clock = ManualClock()
        engine = open_predictor(tiny_suite, 1, cache_entries=16).engine
        predictor = SixMsFlushes(engine, clock)
        batch = tiny_suite.tasks[1].test_batch
        requests = [
            QueryRequest(
                batch.stories[i], batch.questions[i], int(batch.story_lengths[i])
            )
            for i in range(4)
        ]
        scheduler = BatchScheduler(
            predictor, max_wait_s=1.0, start_worker=False, clock=clock
        )
        for _ in range(10):  # one cold flush, then every story replays
            futures = [scheduler.submit(r) for r in requests]
            scheduler.flush()
            assert all(f.exception() is None for f in futures)
        assert predictor.cache.stats.hit_rate >= 0.85
        urgent = scheduler.submit(replace(requests[0], deadline_s=0.025))
        with scheduler._cond:
            due = scheduler._due_at_locked()  # what the deadline thread waits for
        clock.advance(due - clock.now())
        scheduler.flush()
        assert urgent.result().latency_s <= 0.025
        assert scheduler.stats.deadline_met == 1
        assert scheduler.stats.deadline_missed == 0
        scheduler.close()


class OrderRecordingStub:
    """Records every flushed batch's request ids, in completion order."""

    def __init__(self, dwell_s: float = 0.0005):
        self.batches: list[list[int]] = []
        self._lock = threading.Lock()
        self._dwell_s = dwell_s

    def predict_batch(self, requests):
        time.sleep(self._dwell_s)  # widen the race window between flushers
        with self._lock:
            self.batches.append([int(r.request_id) for r in requests])
        return [
            QueryResponse(
                label=int(r.request_id),
                logit=0.0,
                comparisons=1,
                early_exit=False,
                request_id=r.request_id,
            )
            for r in requests
        ]


class TestFifoOrdering:
    """Regression for the flush()/deadline-thread/max-batch race.

    The documented guarantee: dequeue is strictly FIFO (every flush is
    a contiguous head slice of the pending queue), and flushes also
    *complete* in dequeue order.
    Before the dequeue-time ticketing fix, two concurrent ``_execute``
    calls could acquire the execution lock out of order and complete
    newer requests before older ones.
    """

    N = 200

    def _hammer(self, scheduler, stub):
        stop = threading.Event()

        def flusher():
            while not stop.is_set():
                scheduler.flush()

        flushers = [threading.Thread(target=flusher) for _ in range(4)]
        for thread in flushers:
            thread.start()
        try:
            futures = [scheduler.submit(_request(i)) for i in range(self.N)]
            results = [f.result(timeout=30.0) for f in futures]
        finally:
            stop.set()
            for thread in flushers:
                thread.join(timeout=10.0)
            scheduler.close()
        assert [r.label for r in results] == list(range(self.N))
        return stub.batches

    def test_inline_completion_order_is_submission_order(self):
        stub = OrderRecordingStub()
        scheduler = BatchScheduler(
            stub, max_batch=4, max_wait_s=0.0, start_worker=True
        )
        batches = self._hammer(scheduler, stub)
        completed = [i for batch in batches for i in batch]
        # Ticket order pins completion order to submission order even
        # with 6 racing flushers.
        assert completed == list(range(self.N))


class TestAdmissionControl:
    """Bounded queue + overload policies, scheduler-level semantics."""

    @pytest.mark.parametrize("start_worker", [True, False], ids=["worker", "manual"])
    def test_full_queue_sheds_by_default(self, start_worker):
        scheduler = BatchScheduler(
            StubPredictor(), max_wait_s=30.0, start_worker=start_worker, queue_cap=1
        )
        queued = scheduler.submit(_request(0))
        for submit in (scheduler.submit, scheduler.submit_nowait):
            with pytest.raises(OverloadError, match="'shed'"):
                submit(_request(1))
        assert scheduler.stats.shed == 2 and scheduler.pending == 1
        scheduler.close()
        assert queued.result(timeout=5.0).label == 0

    def test_shed_policy_rejects_and_counts(self):
        scheduler = BatchScheduler(
            StubPredictor(), max_batch=10, start_worker=False,
            queue_cap=1, overload_policy="shed",
        )
        scheduler.submit(_request(0))
        with pytest.raises(OverloadError):
            scheduler.submit(_request(1))
        assert scheduler.stats.shed == 1
        scheduler.close()  # flushes the admitted request
        assert scheduler.stats.offered == 2  # 1 served + 1 shed

    @pytest.mark.parametrize("advance", [1.0, 2.0])
    def test_shed_expired_evicts_at_admission(self, advance):
        """An advance of exactly the 1 s budget expires it too: a spent
        budget counts as expired."""
        clock = ManualClock()
        stub = StubPredictor()
        scheduler = BatchScheduler(
            stub, max_batch=10, start_worker=False, clock=clock,
            queue_cap=2, overload_policy="shed-expired",
        )
        doomed = [
            scheduler.submit(_request(i, deadline_s=1.0)) for i in range(2)
        ]
        clock.advance(advance)
        live = scheduler.submit(_request(2))  # full queue, but all expired
        for future in doomed:
            assert isinstance(future.exception(), DeadlineExceededError)
        assert scheduler.pending == 1
        assert scheduler.stats.expired == 2
        scheduler.close()
        assert live.result(timeout=5.0).label == 2
        assert stub.flush_sizes == [1]

    def test_shed_expired_with_no_expired_entries_sheds(self):
        scheduler = BatchScheduler(
            StubPredictor(), max_batch=10, start_worker=False,
            queue_cap=1, overload_policy="shed-expired",
        )
        scheduler.submit(_request(0, deadline_s=60.0))
        with pytest.raises(OverloadError):
            scheduler.submit(_request(1))
        assert scheduler.stats.shed == 1
        scheduler.close()

    def test_manual_clock_latencies_are_exact(self):
        clock = ManualClock()
        scheduler = BatchScheduler(
            StubPredictor(), max_batch=10, start_worker=False, clock=clock
        )
        future = scheduler.submit(_request(0))
        clock.advance(0.5)
        scheduler.flush()
        assert future.result().latency_s == 0.5  # exact, not approximate
        assert scheduler.stats.latencies_s == [0.5]
        scheduler.close()

    def test_validation(self):
        with pytest.raises(ValueError, match="queue_cap"):
            BatchScheduler(StubPredictor(), queue_cap=0, start_worker=False)
        with pytest.raises(ValueError, match="overload_policy"):
            BatchScheduler(
                StubPredictor(), overload_policy="panic", start_worker=False
            )
        # A full queue never waits for room.
        with pytest.raises(ValueError, match=r"\('shed', 'shed-expired'\), got 'block'"):
            BatchScheduler(
                StubPredictor(), overload_policy="block", start_worker=False
            )


def _within(seconds: float, target) -> None:
    """Run ``target`` in a thread that must finish within ``seconds``:
    a hang fails the test instead of stalling the suite."""
    errors: list = []

    def run():
        try:
            target()
        except BaseException as error:  # surfaced below
            errors.append(error)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), "hung"
    if errors:
        raise errors[0]


class TestCallbackReentry:
    """Done-callbacks that call back into the scheduler. They run in
    the thread resolving a flush, which holds that flush's ticket."""

    def _serve_with_callbacks(self, scheduler, requests, callback) -> list:
        """Submit ``requests`` with ``callback`` on each future, and have
        the deadline thread (worker mode) or a ``flush()`` (manual mode)
        resolve them. Holding the queue lock keeps the deadline thread
        from flushing before every callback is in place."""
        with scheduler._lock:
            futures = [scheduler.submit(request) for request in requests]
            for future in futures:
                future.add_done_callback(callback)
        if scheduler._worker is None:
            scheduler.flush()
        return futures

    @pytest.mark.parametrize("start_worker", [True, False], ids=["worker", "manual"])
    def test_follow_ups_from_callbacks_are_answered_in_order(self, start_worker):
        """Each answer submits two follow-ups, and the fourth fills a
        batch inside the flush that resolved it: that batch goes to the
        deadline thread or the next flush(), never inline."""
        stub = OrderRecordingStub(dwell_s=0.0)
        scheduler = BatchScheduler(
            stub, max_batch=4, max_wait_s=0.001, start_worker=start_worker
        )
        follow_ups: list = []
        submitted = threading.Event()

        def follow_up(future):
            i = future.result().label
            follow_ups.extend(scheduler.submit(_request(10 + 2 * i + k)) for k in (0, 1))
            if len(follow_ups) == 6:
                submitted.set()

        def run():
            originals = self._serve_with_callbacks(
                scheduler, [_request(i) for i in range(3)], follow_up
            )
            assert [f.result(timeout=5.0).label for f in originals] == [0, 1, 2]
            assert submitted.wait(timeout=5.0)
            scheduler.flush()
            assert [f.result(timeout=5.0).label for f in follow_ups] == list(range(10, 16))
            scheduler.close()

        _within(10.0, run)
        completed = [i for batch in stub.batches for i in batch]
        assert completed == [0, 1, 2, *range(10, 16)]

    @pytest.mark.parametrize("start_worker", [True, False], ids=["worker", "manual"])
    def test_flush_and_close_from_a_callback_raise(self, start_worker):
        """Draining a follow-up from a callback would wait for the flush
        running the callback: flush() and close() raise instead, and the
        follow-up is answered later."""
        scheduler = BatchScheduler(
            StubPredictor(), max_wait_s=0.001, start_worker=start_worker
        )
        follow_ups: list = []
        raised: list = []
        called = threading.Event()

        def call_back(future):
            follow_ups.append(scheduler.submit(_request(1)))
            for method in (scheduler.flush, scheduler.close):
                try:
                    method()
                except RuntimeError as error:
                    raised.append((method.__name__, str(error)))
            called.set()

        def run():
            (future,) = self._serve_with_callbacks(scheduler, [_request(0)], call_back)
            assert future.result(timeout=5.0).label == 0
            assert called.wait(timeout=5.0)
            scheduler.close()
            assert follow_ups[0].result(timeout=5.0).label == 1

        _within(10.0, run)
        assert [name for name, _ in raised] == ["flush", "close"]
        assert all("done-callback" in message for _, message in raised)

    def test_resubmit_from_an_expiry_callback_at_a_full_queue_sheds(self):
        """Admission evicts the expired entry and admits the new one,
        which fills the queue again; only then does the evicted future
        resolve, so its callback's resubmit meets a full queue."""
        clock = ManualClock()
        scheduler = BatchScheduler(
            StubPredictor(), max_batch=10, start_worker=False, clock=clock,
            queue_cap=1, overload_policy="shed-expired",
        )
        resubmits: list = []

        def resubmit(future):
            try:
                resubmits.append(scheduler.submit(_request(0)))
            except Exception as error:  # surfaced below
                resubmits.append(error)

        def run():
            doomed = scheduler.submit(_request(0, deadline_s=1.0))
            doomed.add_done_callback(resubmit)
            clock.advance(2.0)
            live = scheduler.submit(_request(1))
            assert isinstance(doomed.exception(timeout=0), DeadlineExceededError)
            scheduler.close()
            assert live.result(timeout=5.0).label == 1

        _within(10.0, run)
        assert len(resubmits) == 1 and isinstance(resubmits[0], OverloadError)
        assert (scheduler.stats.expired, scheduler.stats.shed) == (1, 1)
        assert scheduler.stats.requests == 1
