"""AsyncFrontend: the asyncio facade, admission control and deadlines.

pytest-asyncio is an optional dependency (declared in the ``test``
extra), so every async test here drives its own loop with
``asyncio.run`` — plain sync test functions, no plugin required.

The parity matrix at the end is the acceptance gate: responses served
through ``AsyncFrontend`` must be bit-identical to synchronous
``submit()`` across all four MIPS backends. Both paths use
``max_batch == len(requests)`` so each run is exactly one flush over
the identical request order.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.serving import (
    AsyncFrontend,
    BatchScheduler,
    DeadlineExceededError,
    ManualClock,
    ModelRouter,
    OverloadError,
    QueryRequest,
    QueryResponse,
)


def _request(i: int, deadline_s: float | None = None) -> QueryRequest:
    return QueryRequest(
        story=np.full((2, 3), i + 1, dtype=np.int64),
        question=np.array([i + 1, 0, 0], dtype=np.int64),
        request_id=i,
        deadline_s=deadline_s,
    )


class StubPredictor:
    """Echoes ids as labels; records flush sizes and seen deadlines."""

    def __init__(self):
        self.flush_sizes: list[int] = []
        self.deadlines: list[float | None] = []

    def predict_batch(self, requests):
        self.flush_sizes.append(len(requests))
        self.deadlines.extend(r.deadline_s for r in requests)
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


class GatedPredictor(StubPredictor):
    """Blocks every flush on a gate — pins work in-flight for races."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Event()

    def predict_batch(self, requests):
        self.entered.set()
        assert self.gate.wait(timeout=10.0), "test forgot to open the gate"
        return super().predict_batch(requests)


class TestAsyncBridge:
    """The concurrent.futures → asyncio bridge itself."""

    def test_query_resolves_without_threads_per_request(self):
        async def run():
            stub = StubPredictor()
            scheduler = BatchScheduler(stub, max_batch=4, max_wait_s=0.001)
            async with AsyncFrontend(scheduler) as frontend:
                before = threading.active_count()
                responses = await frontend.query_many(
                    [_request(i) for i in range(16)]
                )
                # The bridge parks coroutines on the loop, not threads.
                assert threading.active_count() <= before + 1
            return responses

        responses = asyncio.run(run())
        assert [r.label for r in responses] == list(range(16))
        assert all(r.latency_s is not None for r in responses)

    def test_flush_errors_propagate_to_awaiters(self):
        class Failing:
            def predict_batch(self, requests):
                raise RuntimeError("backend down")

        async def run():
            async with AsyncFrontend(
                BatchScheduler(Failing(), max_batch=2, max_wait_s=0.001)
            ) as frontend:
                with pytest.raises(RuntimeError, match="backend down"):
                    await frontend.query(_request(0))

        asyncio.run(run())

    def test_deadline_stamping_precedence(self):
        """Per-call beats per-request beats frontend default."""
        async def run():
            stub = StubPredictor()
            scheduler = BatchScheduler(stub, max_batch=1, max_wait_s=0.001)
            async with AsyncFrontend(
                scheduler, default_deadline_s=9.0
            ) as frontend:
                await frontend.query(_request(0))                    # default
                await frontend.query(_request(1, deadline_s=7.0))    # request
                await frontend.query(_request(2), deadline_s=5.0)    # call
            return stub.deadlines

        assert asyncio.run(run()) == [9.0, 7.0, 5.0]

    def test_close_is_idempotent_and_query_after_close_raises(self):
        async def run():
            frontend = AsyncFrontend(
                BatchScheduler(StubPredictor(), max_batch=1)
            )
            response = await frontend.query(_request(0))
            await frontend.aclose()
            await frontend.aclose()
            with pytest.raises(RuntimeError, match="closed"):
                await frontend.query(_request(1))
            return response

        assert asyncio.run(run()).label == 0

    def test_default_deadline_validation(self):
        with pytest.raises(ValueError, match="positive"):
            AsyncFrontend(object(), default_deadline_s=0.0)
        with pytest.raises(ValueError, match="positive"):
            QueryRequest(
                story=np.zeros((1, 1), dtype=np.int64),
                question=np.zeros(1, dtype=np.int64),
                deadline_s=-1.0,
            )


class TestAsyncAdmission:
    """Bounded-queue admission as seen from the event loop."""

    def test_shed_policy_raises_typed_overload(self):
        stub = GatedPredictor()
        scheduler = BatchScheduler(
            stub, max_batch=4, max_wait_s=0.0, queue_cap=1,
            overload_policy="shed",
        )

        async def run():
            loop = asyncio.get_running_loop()
            async with AsyncFrontend(scheduler) as frontend:
                first = asyncio.ensure_future(frontend.query(_request(0)))
                await loop.run_in_executor(None, stub.entered.wait, 5.0)
                second = asyncio.ensure_future(frontend.query(_request(1)))
                await asyncio.sleep(0.05)
                with pytest.raises(OverloadError):
                    await frontend.query(_request(2))
                stub.gate.set()
                return await asyncio.gather(first, second)

        responses = asyncio.run(run())
        assert [r.label for r in responses] == [0, 1]
        assert scheduler.stats.shed == 1
        assert scheduler.stats.offered == 3

    def test_full_queue_of_live_entries_sheds_at_once(self):
        """Under "shed-expired" with no queued entry expired, nothing
        makes room: the query raises at the door and counts as shed."""
        scheduler = BatchScheduler(
            StubPredictor(), max_batch=4, start_worker=False,
            queue_cap=1, overload_policy="shed-expired",
        )
        queued = scheduler.submit(_request(0, deadline_s=60.0))

        async def run():
            async with AsyncFrontend(scheduler) as frontend:
                with pytest.raises(OverloadError, match="capacity"):
                    await asyncio.wait_for(frontend.query(_request(1)), timeout=5.0)

        asyncio.run(run())
        assert queued.result(timeout=5.0).label == 0  # close() flushed it
        assert (scheduler.stats.shed, scheduler.stats.expired) == (1, 0)
        assert scheduler.stats.offered == 2

    def test_storm_never_strands_a_future(self):
        """Acceptance: every submitted request resolves — response or
        typed error — under sustained overload with shedding."""
        n = 200

        class Slow(StubPredictor):
            def predict_batch(self, requests):
                time.sleep(0.001)
                return super().predict_batch(requests)

        scheduler = BatchScheduler(
            Slow(), max_batch=8, max_wait_s=0.0005, queue_cap=4,
            overload_policy="shed",
        )

        async def run():
            async with AsyncFrontend(scheduler) as frontend:
                return await frontend.query_many(
                    [_request(i) for i in range(n)], return_exceptions=True
                )

        results = asyncio.run(run())
        assert len(results) == n
        served = [r for r in results if isinstance(r, QueryResponse)]
        shed = [r for r in results if isinstance(r, OverloadError)]
        assert len(served) + len(shed) == n  # nothing stranded, nothing else
        assert served, "overload test served nothing at all"
        assert scheduler.stats.requests == len(served)
        assert scheduler.stats.shed == len(shed)
        assert scheduler.stats.offered == n


class TestDeadlineAwareFlush:
    """The SLO-aware early flush: deadlines beat max_wait_s."""

    def test_deadline_flushes_long_before_max_wait(self):
        stub = StubPredictor()
        scheduler = BatchScheduler(stub, max_batch=32, max_wait_s=10.0)

        async def run():
            async with AsyncFrontend(scheduler) as frontend:
                # A deadline-free request alone would sit for 10 s...
                idle = asyncio.ensure_future(frontend.query(_request(0)))
                await asyncio.sleep(0.05)
                assert not idle.done()
                # ...but a deadline-carrying arrival drags the whole
                # queue into an early flush inside its SLO budget.
                started = time.perf_counter()
                await frontend.query(_request(1), deadline_s=0.25)
                elapsed = time.perf_counter() - started
                await idle
                return elapsed

        elapsed = asyncio.run(run())
        assert elapsed < 5.0  # way under max_wait_s; typically ~0.25 s
        assert stub.flush_sizes == [2]  # one batch: both rode the flush
        assert scheduler.stats.deadline_met == 1
        assert scheduler.stats.deadline_missed == 0
        assert scheduler.stats.goodput_rate == 1.0

    def test_flush_lead_cold_and_warm(self):
        """A deadline-carrying queue flushes a lead before its tightest
        deadline: a cold 2 ms until 3 flushes are recorded, then the
        p95 flush time x 1.25; plus a 0.5 ms margin either way."""
        scheduler = BatchScheduler(
            StubPredictor(), max_wait_s=10.0, start_worker=False,
            clock=ManualClock(),
        )
        scheduler.submit(_request(0, deadline_s=1.0))

        def lead_s() -> float:
            with scheduler._cond:
                return 1.0 - scheduler._due_at_locked()

        assert lead_s() == pytest.approx(0.002 + 0.0005)  # no flushes: cold
        for _ in range(2):
            scheduler.stats.record_flush(4, service_s=0.010)
        assert lead_s() == pytest.approx(0.002 + 0.0005)  # still cold
        scheduler.stats.record_flush(4, service_s=0.010)
        assert lead_s() == pytest.approx(0.010 * 1.25 + 0.0005)
        scheduler.close()

    def test_flush_lead_prices_the_p95_once_between_flushes(self, monkeypatch):
        """The deadline thread reads the p95 flush time on every wake
        while holding the queue lock; it is computed again only after a
        new flush time is recorded."""
        computed = []
        percentile = np.percentile

        def counting(values, q):
            computed.append(q)
            return percentile(values, q)

        monkeypatch.setattr(np, "percentile", counting)
        scheduler = BatchScheduler(
            StubPredictor(), max_wait_s=10.0, start_worker=False,
            clock=ManualClock(),
        )
        for service_s in (0.010, 0.020, 0.030):
            scheduler.stats.record_flush(4, service_s=service_s)
        scheduler.submit(_request(0, deadline_s=1.0))
        with scheduler._lock:
            due = [scheduler._due_at_locked() for _ in range(2)]
        assert computed == [95.0]
        expected = percentile([0.010, 0.020, 0.030], 95) * 1.25 + 0.0005
        assert due == [pytest.approx(1.0 - expected)] * 2
        scheduler.stats.record_flush(4, service_s=0.040)
        with scheduler._lock:
            scheduler._due_at_locked()
        assert computed == [95.0, 95.0]
        scheduler.close()

    def test_shed_expired_resolves_with_typed_error(self):
        """Budget spent in the queue → DeadlineExceededError, and the
        live requests in the same flush still get answers."""
        clock = ManualClock()
        stub = StubPredictor()
        scheduler = BatchScheduler(
            stub, max_batch=8, start_worker=False, clock=clock,
            queue_cap=8, overload_policy="shed-expired",
        )
        doomed = scheduler.submit(_request(0, deadline_s=1.0))
        live = scheduler.submit(_request(1))
        clock.advance(2.0)
        scheduler.flush()
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=5.0)
        assert live.result(timeout=5.0).label == 1
        assert stub.flush_sizes == [1]  # the expired one never ran
        assert scheduler.stats.expired == 1
        assert scheduler.stats.requests == 1
        scheduler.close()


def _matrix_requests(suite):
    requests = []
    for task in (1, 6):
        batch = suite.tasks[task].test_batch
        for i in range(len(batch)):
            requests.append(
                QueryRequest(
                    batch.stories[i],
                    batch.questions[i],
                    n_sentences=int(batch.story_lengths[i]),
                    request_id=f"{task}-{i}",
                    task=task,
                )
            )
    return requests


def _open_router(artifacts_dir, n_requests, backend):
    # max_batch == n_requests: the run is exactly one flush, triggered
    # inline by the final submission on both the sync and async paths.
    return ModelRouter.open(
        artifacts_dir,
        mips_backend=backend,
        seed=0,
        max_batch=n_requests,
        start_worker=False,
    )


class TestAsyncParityMatrix:
    """Acceptance: AsyncFrontend == BatchScheduler.submit, bitwise,
    across all four MIPS backends."""

    @pytest.mark.parametrize("backend", ["alsh", "clustering", "exact", "threshold"])
    def test_bit_identical_to_sync_submit(self, tiny_suite, artifacts_dir, backend):
        requests = _matrix_requests(tiny_suite)

        with _open_router(artifacts_dir, len(requests), backend) as router:
            futures = [router.submit(r) for r in requests]
            sync = [f.result(timeout=60.0) for f in futures]

        async def run():
            router = _open_router(artifacts_dir, len(requests), backend)
            async with AsyncFrontend(router) as frontend:
                return await frontend.query_many(requests)

        against = asyncio.run(run())
        assert len(sync) == len(against)
        for a, b in zip(sync, against):
            assert a.label == b.label
            assert a.logit == b.logit  # bitwise, not approx
            assert a.comparisons == b.comparisons
            assert a.early_exit == b.early_exit
            assert a.answer == b.answer
            assert a.request_id == b.request_id
