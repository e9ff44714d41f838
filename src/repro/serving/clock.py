"""One monotonic clock for the whole serving stack.

Before this module, scheduler timestamps were raw ``time.perf_counter()``
floats scattered through ``_Pending``/``_worker_loop``, which made three
things impossible to line up: frontend deadlines, the scheduler's flush
timing, and the latencies recorded in
:class:`~repro.serving.api.ServingStats` each read the wall clock at
slightly different places, and none of them could be mocked in a test.
:class:`Clock` is the single time source all three share — submission
timestamps, deadline arithmetic and latency measurements are all
``clock.now()`` differences on the same monotonic axis — and
:class:`ManualClock` swaps in for deterministic tests (expiry, latency
accounting, flush-due arithmetic) without a single ``sleep``.

The clock governs *timestamps*, not *sleeps*: the scheduler's deadline
thread still parks on ``Condition.wait(timeout=...)``, which is real
time regardless of the clock — deterministic tests therefore drive the
scheduler in manual mode (``start_worker=False``) and advance a
:class:`ManualClock` by hand.
"""

from __future__ import annotations

import math
import time


class Clock:
    """Monotonic time source (seconds since an arbitrary epoch).

    ``now()`` wraps :func:`time.perf_counter`; the helpers express the
    deadline arithmetic the scheduler and frontend need so the
    conversions live in exactly one place.
    """

    def now(self) -> float:
        return time.perf_counter()

    def deadline_at(
        self, timeout_s: float | None, start: float | None = None
    ) -> float | None:
        """Absolute deadline for a relative budget (None stays None)."""
        if timeout_s is None:
            return None
        return (self.now() if start is None else start) + timeout_s

    def remaining_s(self, deadline_at: float | None) -> float:
        """Slack until an absolute deadline (+inf for no deadline)."""
        if deadline_at is None:
            return math.inf
        return deadline_at - self.now()

    def expired(self, deadline_at: float | None) -> bool:
        """Whether an absolute deadline has already passed."""
        return deadline_at is not None and self.now() >= deadline_at


#: The process-wide default clock every serving component shares.
MONOTONIC = Clock()


class ManualClock(Clock):
    """Test clock: time stands still until ``advance()`` moves it."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("time only moves forward")
        self._now += seconds
