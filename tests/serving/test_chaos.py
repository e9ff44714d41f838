"""The deterministic chaos harness, and recovery parity under it.

Unit half: :class:`FaultPlan` decisions are a pure function of
``(seed, index)`` (schedule overrides included) and
:class:`ChaosPredictor` injects exactly the drawn fault per execution.

Acceptance half (the matrix at the end): with faults injected *and
recovered from*, the served responses are bit-identical to a
fault-free run, across all four MIPS backends. Recovery replays the
exact flush, so chaos must be observable only in the stats.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import (
    FAULT_KINDS,
    ChaosPredictor,
    FaultPlan,
    InjectedFaultError,
    ManualClock,
    ModelRouter,
    PayloadCorruptionError,
    QueryRequest,
    QueryResponse,
    RetryPolicy,
)


def _suite_requests(suite, tasks=(1, 6)):
    requests = []
    for task in tasks:
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


def _assert_identical_responses(baseline, recovered):
    assert len(baseline) == len(recovered)
    for a, b in zip(baseline, recovered):
        assert a.label == b.label
        assert a.logit == b.logit  # bitwise float equality, not approx
        assert a.comparisons == b.comparisons
        assert a.early_exit == b.early_exit
        assert a.answer == b.answer
        assert a.request_id == b.request_id


class EchoPredictor:
    """Stub the chaos wrapper can wrap."""

    marker = "echo"  # visible through __getattr__ delegation

    def predict_batch(self, requests):
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


def _request(i: int) -> QueryRequest:
    return QueryRequest(
        story=np.full((2, 3), i + 1, dtype=np.int64),
        question=np.array([i + 1, 0, 0], dtype=np.int64),
        request_id=i,
    )


class TestFaultPlan:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(raise_rate=-0.1),
            dict(raise_rate=0.6, delay_rate=0.6),  # sum > 1
            dict(delay_s=-1.0),
            dict(schedule=((-1, "raise-in-predict"),)),
            dict(schedule=((0, "segfault"),)),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_decisions_are_pure(self):
        plan = FaultPlan(
            raise_rate=0.2, delay_rate=0.2, corrupt_rate=0.2, seed=42
        )
        first = [plan.kind_at(i) for i in range(100)]
        # Same plan, same decisions — call order and instance identity
        # are irrelevant.
        again = [
            FaultPlan(
                raise_rate=0.2, delay_rate=0.2, corrupt_rate=0.2, seed=42
            ).kind_at(i)
            for i in range(100)
        ]
        assert first == again
        assert any(kind is not None for kind in first)
        assert any(kind is None for kind in first)

    def test_rates_are_roughly_respected(self):
        plan = FaultPlan(raise_rate=0.5, seed=7)
        hits = sum(plan.kind_at(i) == "raise-in-predict" for i in range(400))
        assert 140 <= hits <= 260  # ~200 expected; loose, deterministic

    def test_zero_rate_plan_never_faults(self):
        plan = FaultPlan()
        assert all(plan.kind_at(i) is None for i in range(50))
        assert plan.total_rate == 0.0

    def test_schedule_overrides_the_draw(self):
        plan = FaultPlan(schedule=((3, "corrupt-payload"),))
        assert plan.kind_at(3) == "corrupt-payload"
        assert all(plan.kind_at(i) is None for i in (0, 1, 2, 4))

    def test_fork_is_deterministic_and_key_sensitive(self):
        plan = FaultPlan(raise_rate=0.3, seed=9, schedule=((1, "delay-flush"),))
        assert plan.fork(1) == plan.fork(1)
        assert plan.fork(1).seed != plan.fork(6).seed
        assert plan.fork(1).raise_rate == 0.3
        assert plan.fork(1).schedule == plan.schedule  # kept per route
        faults = lambda p: [p.kind_at(i) for i in range(64)]
        assert faults(plan.fork(1)) != faults(plan.fork(6))


class TestChaosPredictor:
    def test_zero_rate_plan_is_transparent(self):
        inner = EchoPredictor()
        chaos = ChaosPredictor(inner, FaultPlan())
        requests = [_request(i) for i in range(4)]
        assert chaos.predict_batch(requests) == inner.predict_batch(requests)
        assert chaos.marker == "echo"  # __getattr__ delegation
        assert chaos.calls == 1
        assert all(count == 0 for count in chaos.injected.values())

    def test_raise_in_predict_is_transient(self):
        chaos = ChaosPredictor(
            EchoPredictor(), FaultPlan(schedule=((0, "raise-in-predict"),))
        )
        with pytest.raises(InjectedFaultError):
            chaos.predict_batch([_request(0)])
        assert chaos.injected["raise-in-predict"] == 1
        # The next execution draws a fresh, healthy index.
        assert chaos.predict_batch([_request(1)])[0].label == 1

    def test_corrupt_payload_is_permanent(self):
        plan = FaultPlan(schedule=((0, "corrupt-payload"), (1, "corrupt-payload")))
        chaos = ChaosPredictor(EchoPredictor(), plan)
        for i in range(2):
            with pytest.raises(PayloadCorruptionError):
                chaos.predict_batch([_request(i)])
        assert chaos.injected["corrupt-payload"] == 2

    def test_delay_fault_sleeps_on_the_injected_clock(self):
        clock = ManualClock()
        plan = FaultPlan(schedule=((0, "delay-flush"),), delay_s=0.25)
        chaos = ChaosPredictor(EchoPredictor(), plan, clock=clock)
        chaos.predict_batch([_request(0)])
        assert clock.now() == 0.25  # slept exactly delay_s, no wall time


class TestRecoveryParityMatrix:
    """Chaos + recovery == fault-free, bit for bit, whole matrix.

    Faults are scheduled (not rate-drawn) so every route takes a
    transient predict failure on its first and third call — recovery
    replays through every backend's exact numerics.
    """

    SCHEDULE = ((0, "raise-in-predict"), (2, "raise-in-predict"))

    def _serve(self, artifacts_dir, requests, **kwargs):
        with ModelRouter.open(
            artifacts_dir, max_batch=8, start_worker=False, **kwargs
        ) as router:
            futures = [router.submit(r) for r in requests]
            router.flush()
            responses = [f.result(timeout=60.0) for f in futures]
            stats = router.stats
        return responses, stats

    @pytest.mark.parametrize(
        "backend", ["alsh", "clustering", "exact", "threshold"]
    )
    def test_recovered_responses_bit_identical(
        self, tiny_suite, artifacts_dir, backend
    ):
        requests = _suite_requests(tiny_suite)
        kwargs = dict(mips_backend=backend, seed=0)
        baseline, _ = self._serve(artifacts_dir, requests, **kwargs)
        recovered, stats = self._serve(
            artifacts_dir,
            requests,
            chaos_plan=FaultPlan(schedule=self.SCHEDULE),
            retry_policy=RetryPolicy(max_attempts=4, backoff_base_s=0.0),
            **kwargs,
        )
        _assert_identical_responses(baseline, recovered)
        # The faults really fired: recovery is in the stats, invisible
        # in the responses.
        assert stats.retries >= 1
        assert stats.recovered >= 1
