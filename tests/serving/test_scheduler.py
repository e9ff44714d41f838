"""Micro-batching scheduler semantics, against a stub predictor.

A stub keeps these tests fast and deterministic: the scheduler only
needs the ``predict_batch`` protocol, and real-engine equivalence is
covered at the end against the tiny trained suite.
"""

from __future__ import annotations

import threading
import time

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
        assert scheduler.stats.batch_sizes == [4]
        assert scheduler.stats.mean_batch_size == 4.0
        assert len(scheduler.stats.latencies_s) == 4
        assert scheduler.stats.max_latency_s >= scheduler.stats.mean_latency_s

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

        class RejectsOdd(StubPredictor):
            def predict_batch(self, requests):
                answers = super().predict_batch(requests)
                return [
                    InvalidRequestError(f"row {r.request_id}")
                    if r.request_id % 2
                    else answer
                    for r, answer in zip(requests, answers)
                ]

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
        assert (stats.requests, stats.latency_count) == (4, 2)
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

    def test_block_policy_manual_mode_drains_inline(self):
        stub = StubPredictor()
        scheduler = BatchScheduler(
            stub, max_batch=10, start_worker=False, queue_cap=2
        )
        futures = [scheduler.submit(_request(i)) for i in range(3)]
        # No deadline thread to wait on: the blocked submitter made its
        # own room by draining one batch before enqueueing.
        assert stub.flush_sizes == [2]
        assert scheduler.pending == 1
        assert [futures[i].result().label for i in range(2)] == [0, 1]
        assert not futures[2].done()
        assert scheduler.stats.shed == 0
        scheduler.close()

    def test_submit_nowait_under_block_is_not_a_shed(self):
        scheduler = BatchScheduler(
            StubPredictor(), max_batch=10, start_worker=False, queue_cap=2
        )
        for i in range(2):
            scheduler.submit_nowait(_request(i))
        with pytest.raises(OverloadError):
            scheduler.submit_nowait(_request(2))
        # Under "block" a nowait rejection is a retry signal for the
        # async frontend, not load shedding — the counter stays 0.
        assert scheduler.stats.shed == 0
        assert scheduler.pending == 2
        scheduler.close()

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

    def test_shed_expired_evicts_at_admission(self):
        clock = ManualClock()
        stub = StubPredictor()
        scheduler = BatchScheduler(
            stub, max_batch=10, start_worker=False, clock=clock,
            queue_cap=2, overload_policy="shed-expired",
        )
        doomed = [
            scheduler.submit(_request(i, deadline_s=1.0)) for i in range(2)
        ]
        clock.advance(2.0)
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
