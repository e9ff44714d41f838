"""Deterministic fault injection for the serving stack.

``repro.hw.faults`` studies *hardware* fault tolerance (SEU bit-flip
sweeps through the accelerator's datapath); this module gives the
*serving* layer the same treatment. Every recovery path the resilience
layer ships — retry/backoff and circuit breaking — needs to be
exercised without waiting for a real failure, and reproducibly enough
to assert bit-identical recovery. The harness has three pieces:

* :class:`FaultPlan` — *which executions fault, and how*. A frozen
  value object: per-kind rates whose decisions are a pure function of
  ``(seed, call index)`` (independent of thread interleaving), plus an
  explicit ``schedule`` of ``(index, kind)`` pairs for tests that need
  a fault at exactly the third call. ``fork(key)`` derives an
  independent per-route plan from one seed.
* :class:`ChaosPredictor` — a transparent :class:`Predictor` wrapper
  that consults the plan once per ``predict_batch`` call and injects
  the drawn fault.
* :class:`InjectedFaultError` — the transient error
  ``raise-in-predict`` raises (a
  :class:`~repro.serving.errors.WorkerCrashError` subclass, so the
  retry taxonomy replays it).

Fault kinds (:data:`FAULT_KINDS`):

``raise-in-predict``
    Raises :class:`InjectedFaultError` from the predict path —
    a transient model-side crash.
``delay-flush``
    Sleeps ``delay_s`` (via the injected clock) before predicting,
    simulating a straggler.
``corrupt-payload``
    Raises :class:`~repro.serving.errors.PayloadCorruptionError` —
    a *permanent* fault, exercising the no-retry path.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, replace
from typing import Sequence

from repro.serving.clock import MONOTONIC, Clock
from repro.serving.errors import PayloadCorruptionError, WorkerCrashError

FAULT_KINDS = (
    "raise-in-predict",
    "delay-flush",
    "corrupt-payload",
)


class InjectedFaultError(WorkerCrashError):
    """A chaos-injected transient fault (retry-safe by taxonomy)."""


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic schedule of injected faults.

    Rates are per *execution* (one ``predict_batch`` call): execution
    ``i`` draws a uniform number from ``Random((seed, i))`` — a pure
    function of the plan, never of thread timing — and walks the cumulative rate intervals in
    :data:`FAULT_KINDS` order. ``schedule`` entries override the draw
    at their exact index (use them when a test needs fault *k* at
    call *i*, not merely "about r·n faults somewhere").
    """

    raise_rate: float = 0.0
    delay_rate: float = 0.0
    corrupt_rate: float = 0.0
    delay_s: float = 0.001
    seed: int = 0
    schedule: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        rates = (self.raise_rate, self.delay_rate, self.corrupt_rate)
        if any(r < 0 for r in rates) or sum(rates) > 1.0:
            raise ValueError(
                "fault rates must be >= 0 and sum to <= 1, got "
                f"{rates}"
            )
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        for index, kind in self.schedule:
            if index < 0:
                raise ValueError(f"schedule index {index} must be >= 0")
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r}; expected one of "
                    f"{FAULT_KINDS}"
                )

    @property
    def total_rate(self) -> float:
        return self.raise_rate + self.delay_rate + self.corrupt_rate

    def kind_at(self, index: int) -> str | None:
        """The fault injected at execution ``index`` (None = healthy).

        Pure: the same plan always faults the same indices, whatever
        the thread interleaving looks like.
        """
        for at, kind in self.schedule:
            if at == index:
                return kind
        if self.total_rate <= 0.0:
            return None
        # String seeding hashes with SHA-512 (stable across processes
        # and runs, unlike hash() which PYTHONHASHSEED perturbs).
        draw = random.Random(f"{self.seed}:{index}").random()
        edge = 0.0
        for kind, rate in zip(
            FAULT_KINDS, (self.raise_rate, self.delay_rate, self.corrupt_rate)
        ):
            edge += rate
            if draw < edge:
                return kind
        return None

    def fork(self, key) -> "FaultPlan":
        """An independent plan for one route: same rates, derived seed.

        The derivation is deterministic in ``(seed, key)`` — forked
        plans are reproducible run to run but fault different indices
        per route. Explicit ``schedule`` entries are kept (every route
        sees them; tests that want a scheduled fault on one route only
        should build that route's plan directly).
        """
        derived = random.Random(f"{self.seed}/{key!r}").getrandbits(31)
        return replace(self, seed=derived)


class ChaosPredictor:
    """Wraps a predictor; injects the plan's faults, forwards the rest.

    One fault decision per ``predict_batch`` call. A retried flush
    draws a *fresh* index — recovery runs under the same fault pressure
    as the first attempt, which is what makes chaos soaks honest.
    Everything the plan does not fault is forwarded verbatim
    (``__getattr__`` delegates the cache hooks), so a rate-0 plan is
    bit-identical to the bare predictor.

    ``injected`` counts faults by kind (thread-safe) so tests and the
    chaos bench can assert pressure was actually applied.
    """

    def __init__(
        self, inner, plan: FaultPlan, clock: Clock = MONOTONIC
    ):
        self.inner = inner
        self.plan = plan
        self.clock = clock
        self.injected: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self._lock = threading.Lock()
        self._calls = 0

    def _next_fault(self) -> str | None:
        with self._lock:
            index = self._calls
            self._calls += 1
            kind = self.plan.kind_at(index)
            if kind is not None:
                self.injected[kind] += 1
        return kind

    @property
    def calls(self) -> int:
        with self._lock:
            return self._calls

    def predict(self, request):
        return self.predict_batch([request])[0]

    def predict_batch(self, requests: Sequence):
        kind = self._next_fault()
        if kind == "raise-in-predict":
            raise InjectedFaultError(f"chaos: injected {kind}")
        if kind == "corrupt-payload":
            raise PayloadCorruptionError(
                "chaos: injected payload corruption"
            )
        if kind == "delay-flush":
            self.clock.sleep(self.plan.delay_s)
        return self.inner.predict_batch(requests)

    # -- transparent delegation ----------------------------------------
    def __getattr__(self, name: str):
        # Only reached for attributes not defined above: cache hooks,
        # engine, vocab...
        return getattr(self.inner, name)
