"""Retry/backoff and per-route circuit breaking for the serving stack.

Two small, deterministic machines the fault-tolerant runtime composes:

* :class:`RetryPolicy` — how many times a *transient* failure (see
  :func:`repro.serving.errors.is_transient`) may be replayed, and how
  long to back off between attempts. Backoff is exponential with
  deterministic jitter: the jitter factors come from an injected
  ``random.Random`` seed, so a fixed seed yields a fixed backoff
  sequence and tests (and chaos soaks) are bit-reproducible. Sleeps go
  through the injected :class:`~repro.serving.clock.Clock`, so tests on
  a :class:`~repro.serving.clock.ManualClock` never actually wait.
* :class:`CircuitBreaker` — the per-route failure isolator. A route
  that fails ``failure_threshold`` consecutive flushes transitions
  closed → **open**: requests fail fast with
  :class:`~repro.serving.errors.RouteUnavailableError` (or divert to a
  degraded fallback) instead of burning scheduler capacity on a model
  that cannot answer. After ``reset_timeout_s`` the breaker goes
  **half-open** and admits up to ``half_open_probes`` probe requests;
  one probe success closes it, one probe failure reopens it (and
  restarts the timer). All timing reads the injected clock; all
  transitions are lock-protected and counted.

The :class:`~repro.serving.BatchScheduler` owns the retry loop (it is
the layer that can replay a flush bit-identically); the
:class:`~repro.serving.ModelRouter` owns one breaker per route.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

from repro.serving.clock import MONOTONIC, Clock
from repro.serving.errors import is_transient

BREAKER_STATES = ("closed", "open", "half-open")


@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    ``max_attempts`` counts every execution, including the first — the
    default ``3`` means one try plus up to two replays. Backoff before
    attempt ``k+1`` is ``backoff_base_s * backoff_multiplier**(k-1)``,
    capped at ``backoff_max_s``, then scaled by a jitter factor drawn
    uniformly from ``[1, 1 + jitter]`` — from a ``Random(seed)`` stream,
    so the whole sequence is a pure function of the seed. Only errors
    :func:`~repro.serving.errors.is_transient` blesses are retried;
    permanent errors propagate on the first attempt.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.001
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 0.050
    jitter: float = 0.1
    seed: int = 0xB0FF

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff bounds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether a failure on execution ``attempt`` (1-based) may be
        replayed: the error must be transient and budget must remain."""
        return attempt < self.max_attempts and is_transient(error)

    def backoff_s(self, attempt: int) -> float:
        """Seconds to wait before replaying after failed ``attempt``.

        Deterministic given the seed: concurrent callers draw from one
        locked jitter stream, so a single-threaded replay of the same
        failure history reproduces the same waits.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = min(
            self.backoff_base_s * self.backoff_multiplier ** (attempt - 1),
            self.backoff_max_s,
        )
        with self._lock:
            factor = 1.0 + self.jitter * self._rng.random()
        return base * factor


@dataclass
class CircuitBreaker:
    """Consecutive-failure circuit breaker (closed → open → half-open).

    ``record_failure()``/``record_success()`` feed it flush outcomes;
    ``allow()`` asks whether an execution may proceed *and* consumes a
    probe slot while half-open. ``would_allow()`` is the side-effect-free
    variant admission control uses to fail doomed requests fast without
    eating the probe budget. ``on_open`` (when set) fires on every
    transition into the open state — the router uses it to mirror
    ``breaker_opens`` into the scheduler's stats.
    """

    failure_threshold: int = 5
    reset_timeout_s: float = 0.5
    half_open_probes: int = 1
    clock: Clock = MONOTONIC
    on_open: object = None
    state: str = field(default="closed", init=False)
    opens: int = field(default=0, init=False)

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.reset_timeout_s < 0:
            raise ValueError("reset_timeout_s must be >= 0")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0

    # -- queries -------------------------------------------------------
    def allow(self) -> bool:
        """May an execution for this route proceed right now?

        Closed: yes. Open: only once ``reset_timeout_s`` has elapsed —
        the breaker turns half-open and this call claims one probe
        slot. Half-open: yes while unclaimed probe slots remain.
        """
        with self._lock:
            if self.state == "closed":
                return True
            if self.state == "open":
                if (
                    self.clock.now() - self._opened_at
                    < self.reset_timeout_s
                ):
                    return False
                self.state = "half-open"
                self._probes_in_flight = 0
            if self._probes_in_flight < self.half_open_probes:
                self._probes_in_flight += 1
                return True
            return False

    def would_allow(self) -> bool:
        """Like :meth:`allow` but read-only: no state transition, no
        probe slot consumed — the admission-time fast-fail check."""
        with self._lock:
            if self.state == "closed":
                return True
            if self.state == "open":
                return (
                    self.clock.now() - self._opened_at
                    >= self.reset_timeout_s
                )
            return self._probes_in_flight < self.half_open_probes

    # -- outcome recording ---------------------------------------------
    def record_success(self) -> None:
        """A flush for this route completed: close (from half-open) and
        reset the consecutive-failure count."""
        with self._lock:
            self._consecutive_failures = 0
            self._probes_in_flight = 0
            self.state = "closed"

    def record_failure(self) -> None:
        """A flush for this route failed (post-retry): count it, open
        at the threshold, and reopen immediately from half-open."""
        fire = False
        with self._lock:
            self._consecutive_failures += 1
            reopen = self.state == "half-open"
            if reopen or (
                self.state == "closed"
                and self._consecutive_failures >= self.failure_threshold
            ):
                self.state = "open"
                self._opened_at = self.clock.now()
                self._probes_in_flight = 0
                self.opens += 1
                fire = True
        if fire and self.on_open is not None:
            self.on_open()
