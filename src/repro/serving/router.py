"""Multi-task routing: many named predictors behind one scheduler.

A deployment serves all twenty bAbI tasks, not one. ``ModelRouter``
holds one :class:`~repro.serving.api.Predictor` per route (a bAbI task
id / artifact task directory), routes each request's
``QueryRequest.task`` to its model, and funnels every route through a
single shared :class:`~repro.serving.BatchScheduler` — so micro-batching
amortises across tasks instead of per-task::

    with ModelRouter.open("artifacts/") as router:
        future = router.submit(QueryRequest(story, question, task=6))
        print(future.result().answer)

**Stacked routes.** When the router opens, it groups the routes that
share a :class:`~repro.serving.predictor.PredictorStack` key — software
predictors with the same vocabulary size, embedding width, hop count,
weight dtypes and exact or threshold backend, and no story cache — and
a mixed-task flush answers all of a group's routes with one engine
call (:class:`~repro.mann.batch.EngineStack`), bit for bit as each
route's own ``predict_batch``. Every other route keeps one
``predict_batch`` per flush: the hw device, wrapped (chaos) or custom
predictors, story-cached routes, other backends, degraded fallbacks,
and a route alone in its group or in the flush. Each threshold
backend's ``theta`` is snapshotted when the router opens.

Per-route traffic is accounted in ``router.route_stats[task]`` — one
flush per route present, stacked or not, counted only once every call
of the flush has returned; scheduler-level flush statistics stay in
``router.stats``. A flush is one unit: when any of its calls raises,
every request in it fails and every route present is blamed.

**Per-route circuit breaking** (``breaker_threshold=N``): a route that
fails ``N`` consecutive flushes is isolated — its
:class:`~repro.serving.resilience.CircuitBreaker` opens, and requests
for it fail fast with
:class:`~repro.serving.errors.RouteUnavailableError` (checked at
submission, before a doomed request can occupy queue room) instead of
burning shared scheduler capacity on a model that cannot answer. After
``breaker_reset_s`` the breaker half-opens and probe flushes test the
route; one success closes it. A route with a configured *fallback*
predictor (``fallbacks=`` / ``ModelRouter.open(breaker_fallback=True)``)
keeps answering while open — degraded (cache-bypassing) but live —
with ``degraded`` counted in the stats. Healthy routes are untouched
either way: breaker state is strictly per route.
"""

from __future__ import annotations

import threading
from typing import Mapping, Sequence

from repro.serving.api import (
    DeadlineExceededError,
    OverloadError,
    Predictor,
    QueryRequest,
    QueryResponse,
    ServingStats,
)
from repro.serving.clock import MONOTONIC
from repro.serving.errors import RouteUnavailableError, SchedulerClosedError
from repro.serving.predictor import PredictorStack
from repro.serving.resilience import CircuitBreaker
from repro.serving.scheduler import BatchScheduler

#: Failures that say nothing about the *route*'s health: admission and
#: lifecycle outcomes must not trip a circuit breaker.
_BREAKER_EXEMPT = (
    RouteUnavailableError,
    SchedulerClosedError,
    OverloadError,
    DeadlineExceededError,
)


class _RoutingPredictor:
    """Predictor facade dispatching mixed-task batches to their routes."""

    def __init__(self, routes, route_stats, resolve, breakers, fallbacks):
        self._routes = routes
        self._route_stats = route_stats
        self._resolve = resolve
        self._breakers = breakers
        self._fallbacks = fallbacks
        #: task -> (PredictorStack, member index) for every route that
        #: shares its stack key with another route (see predict_batch).
        self._stacks: dict = {}
        by_key: dict = {}
        for task, predictor in routes.items():
            key = PredictorStack.key(predictor)
            if key is not None:
                by_key.setdefault(key, []).append(task)
        for tasks in by_key.values():
            if len(tasks) > 1:
                stack = PredictorStack([routes[task] for task in tasks])
                for member, task in enumerate(tasks):
                    self._stacks[task] = (stack, member)
        self._stats_lock = threading.Lock()
        #: The shared scheduler, set by the router once it exists
        #: (degraded counts mirror into its stats).
        self._scheduler = None

    def _pick(self, task):
        """The predictor serving ``task`` right now: ``(predictor,
        primary)``. Consults the breaker (consuming a half-open probe
        slot when applicable); an open breaker diverts to the route's
        fallback or raises
        :class:`~repro.serving.errors.RouteUnavailableError`."""
        breaker = self._breakers.get(task)
        if breaker is None or breaker.allow():
            return self._routes[task], True
        fallback = self._fallbacks.get(task)
        if fallback is not None:
            return fallback, False
        raise RouteUnavailableError(
            f"route {task!r} circuit breaker is {breaker.state} and no "
            "fallback is configured; retry after the reset timeout"
        )

    def _note_degraded(self, task, n: int) -> None:
        with self._stats_lock:
            self._route_stats[task].record_degraded(n)
        if self._scheduler is not None:
            self._scheduler.note_degraded(n)

    def record_failure(self, requests: Sequence[QueryRequest], error) -> None:
        """Scheduler failure hook: a failed flush blames every route
        present (it failed for all of them). Admission/lifecycle errors
        are exempt — they say nothing about route health."""
        if isinstance(error, _BREAKER_EXEMPT):
            return
        for task in {self._resolve(request) for request in requests}:
            breaker = self._breakers.get(task)
            if breaker is not None:
                breaker.record_failure()

    def _grouped(self, requests: Sequence[QueryRequest]):
        """Indices grouped by resolved task, in submission order."""
        groups: dict = {}
        for i, request in enumerate(requests):
            groups.setdefault(self._resolve(request), []).append(i)
        return groups

    def predict(self, request: QueryRequest) -> QueryResponse:
        return self.predict_batch([request])[0]

    def predict_batch(
        self, requests: Sequence[QueryRequest]
    ) -> list[QueryResponse]:
        """Answer a mixed-task batch.

        Primary routes that share a :class:`PredictorStack` answer
        together in one engine call; every other route — one alone in
        its stack, a fallback, or a predictor that cannot stack — gets
        its own ``predict_batch``. Either way the answers are each
        route's own, bit for bit, and per-route accounting counts one
        flush per route present — after every call has returned, so a
        route whose call ran before a failing one counts nothing.
        """
        responses: list[QueryResponse | None] = [None] * len(requests)
        own_calls = []
        stacked: dict = {}
        for task, indices in self._grouped(requests).items():
            predictor, primary = self._pick(task)
            if primary and task in self._stacks:
                stack, member = self._stacks[task]
                stacked.setdefault(stack, []).append((task, member, indices))
            else:
                own_calls.append((task, indices, predictor, primary))
        answered = []
        for stack, groups in stacked.items():
            if len(groups) == 1:
                task, _, indices = groups[0]
                own_calls.append((task, indices, self._routes[task], True))
                continue
            results = stack.predict_groups(
                [
                    (member, [requests[i] for i in indices])
                    for _, member, indices in groups
                ]
            )
            for (task, _, indices), group in zip(groups, results):
                answered.append((task, indices, group, True))
        for task, indices, predictor, primary in own_calls:
            group = predictor.predict_batch([requests[i] for i in indices])
            answered.append((task, indices, group, primary))
        for task, indices, group, primary in answered:
            self._answered(task, indices, group, responses, primary)
        return responses

    def _answered(self, task, indices, answered, responses, primary) -> None:
        """Account one route's answered rows and slot them into place."""
        breaker = self._breakers.get(task)
        if primary:
            if breaker is not None:
                breaker.record_success()
        else:
            self._note_degraded(task, len(indices))
        with self._stats_lock:
            self._route_stats[task].record_flush(len(indices))
            self._sync_route_cache(task)
        for i, response in zip(indices, answered):
            responses[i] = response

    def _sync_route_cache(self, task) -> None:
        """Mirror one route's story-cache counters into its per-route
        stats (caller holds ``_stats_lock``; no-op without a cache)."""
        hook = getattr(self._routes[task], "cache_counters", None)
        counters = hook() if hook is not None else None
        if counters is not None:
            self._route_stats[task].set_cache_counters(*counters)

    def cache_counters(self) -> tuple[int, int, int] | None:
        """Cumulative ``(hits, misses, evictions)`` over every route's
        story cache, or None when no route caches — the scheduler's
        ``ServingStats`` mirror aggregates all routes."""
        totals = None
        for predictor in self._routes.values():
            hook = getattr(predictor, "cache_counters", None)
            counters = hook() if hook is not None else None
            if counters is None:
                continue
            if totals is None:
                totals = [0, 0, 0]
            for k in range(3):
                totals[k] += counters[k]
        return tuple(totals) if totals is not None else None


class ModelRouter:
    """Many named predictors, one scheduler, per-route statistics.

    ``predictors`` maps route keys (bAbI task ids) to built
    :class:`Predictor` objects; :meth:`open` builds the whole map from
    an artifact directory or suite in one call. ``submit`` validates
    ``request.task`` eagerly (an unknown task raises in the caller, it
    never poisons a flush); a router with exactly one route accepts
    requests with ``task=None``.
    """

    def __init__(
        self,
        predictors: Mapping[int | str, Predictor],
        *,
        max_batch: int = 32,
        max_wait_s: float = 0.005,
        start_worker: bool = True,
        breaker_threshold: int | None = None,
        breaker_reset_s: float = 0.5,
        breaker_probes: int = 1,
        fallbacks: Mapping[int | str, Predictor] | None = None,
        **scheduler_kwargs,
    ):
        if not predictors:
            raise ValueError("need at least one route")
        self._routes = dict(predictors)
        self._fallbacks = dict(fallbacks) if fallbacks else {}
        unknown = set(self._fallbacks) - set(self._routes)
        if unknown:
            raise KeyError(
                f"fallbacks for unknown routes {sorted(unknown, key=repr)}"
            )
        self.route_stats: dict = {
            task: ServingStats() for task in self._routes
        }
        # Breakers share the scheduler's clock (ManualClock tests drive
        # reset timeouts by hand); on_open fires through the router so
        # both the per-route and the scheduler stats count it.
        clock = scheduler_kwargs.get("clock", MONOTONIC)
        self.breakers: dict = {}
        if breaker_threshold is not None:
            self.breakers = {
                task: CircuitBreaker(
                    failure_threshold=breaker_threshold,
                    reset_timeout_s=breaker_reset_s,
                    half_open_probes=breaker_probes,
                    clock=clock,
                    on_open=(lambda task=task: self._note_breaker_open(task)),
                )
                for task in self._routes
            }
        self._dispatch = _RoutingPredictor(
            self._routes,
            self.route_stats,
            self.resolve_task,
            self.breakers,
            self._fallbacks,
        )
        # scheduler_kwargs forwards the admission-control / SLO /
        # resilience knobs (queue_cap, overload_policy, inline_flush,
        # cost_model, clock, deadline_margin_s, retry_policy) without
        # re-declaring them.
        self.scheduler = BatchScheduler(
            self._dispatch,
            max_batch=max_batch,
            max_wait_s=max_wait_s,
            start_worker=start_worker,
            **scheduler_kwargs,
        )
        self._dispatch._scheduler = self.scheduler

    def _note_breaker_open(self, task) -> None:
        """CircuitBreaker ``on_open`` hook: count the transition in the
        route's stats and the shared scheduler's."""
        with self._dispatch._stats_lock:
            self.route_stats[task].record_breaker_open()
        self.scheduler.note_breaker_open()

    # -- construction ----------------------------------------------------
    @classmethod
    def open(
        cls,
        artifacts,
        tasks: Sequence[int] | None = None,
        *,
        device: str = "sw",
        mips_backend: str = "exact",
        quantized: bool = False,
        cache_entries: int | None = None,
        max_batch: int = 32,
        max_wait_s: float = 0.005,
        start_worker: bool = True,
        queue_cap: int | None = None,
        overload_policy: str = "block",
        inline_flush: bool = True,
        retry_policy=None,
        breaker_threshold: int | None = None,
        breaker_reset_s: float = 0.5,
        breaker_probes: int = 1,
        breaker_fallback: bool = False,
        chaos_plan=None,
        **params,
    ) -> "ModelRouter":
        """One route per task of a saved artifact directory or suite.

        ``artifacts`` is anything :func:`~repro.serving.open_predictor`
        accepts (the suite is loaded once and shared across routes);
        ``tasks`` restricts the routes (default: every task present).
        The remaining keywords go to ``open_predictor`` per route —
        including ``quantized`` serving and the story-encoding cache
        bound ``cache_entries`` (one
        :class:`~repro.serving.cache.MemoryCache` **per route**: each
        model writes its own memories, so a story's key names its tokens
        and the route names its model).
        ``queue_cap``/``overload_policy``/``inline_flush`` are the
        shared scheduler's admission-control knobs (see
        :class:`~repro.serving.BatchScheduler`).

        Resilience knobs: ``retry_policy`` forwards to the shared
        scheduler; ``breaker_threshold``/``breaker_reset_s``/
        ``breaker_probes`` arm one
        :class:`~repro.serving.resilience.CircuitBreaker` per route.
        ``breaker_fallback=True`` additionally opens a degraded twin of
        every route — same model and backend, but cache-bypassing —
        that keeps answering while the route's breaker is open. ``chaos_plan``
        (a :class:`~repro.serving.chaos.FaultPlan`) wraps every primary
        route in a :class:`~repro.serving.chaos.ChaosPredictor` with a
        per-route forked seed — the deterministic fault-injection mode
        the chaos soaks use; fallbacks stay fault-free.
        """
        from pathlib import Path

        from repro.eval.suite import BabiSuite, TaskSystem
        from repro.serving.predictor import open_predictor

        if isinstance(artifacts, (str, Path)):
            from repro.artifacts import load_suite

            artifacts = load_suite(artifacts)
        if isinstance(artifacts, TaskSystem):
            artifacts_tasks = [artifacts.task_id]
        elif isinstance(artifacts, BabiSuite):
            artifacts_tasks = artifacts.task_ids
        else:
            raise TypeError(
                "artifacts must be an artifact directory path, a BabiSuite "
                f"or a TaskSystem, got {type(artifacts).__name__}"
            )
        tasks = list(tasks) if tasks is not None else list(artifacts_tasks)
        missing = set(tasks) - set(artifacts_tasks)
        if missing:
            raise KeyError(
                f"tasks {sorted(missing)} not in artifacts "
                f"(available: {list(artifacts_tasks)})"
            )
        predictors = {
            task: open_predictor(
                artifacts,
                task,
                device=device,
                mips_backend=mips_backend,
                quantized=quantized,
                cache_entries=cache_entries,
                **params,
            )
            for task in tasks
        }
        if chaos_plan is not None:
            from repro.serving.chaos import ChaosPredictor

            predictors = {
                task: ChaosPredictor(predictor, chaos_plan.fork(task))
                for task, predictor in predictors.items()
            }
        fallbacks = None
        if breaker_fallback:
            fallbacks = {
                task: open_predictor(
                    artifacts,
                    task,
                    device=device,
                    mips_backend=mips_backend,
                    quantized=quantized,
                    **params,
                )
                for task in tasks
            }
        return cls(
            predictors,
            max_batch=max_batch,
            max_wait_s=max_wait_s,
            start_worker=start_worker,
            queue_cap=queue_cap,
            overload_policy=overload_policy,
            inline_flush=inline_flush,
            retry_policy=retry_policy,
            breaker_threshold=breaker_threshold,
            breaker_reset_s=breaker_reset_s,
            breaker_probes=breaker_probes,
            fallbacks=fallbacks,
        )

    # -- routing ----------------------------------------------------------
    @property
    def tasks(self) -> list:
        return sorted(self._routes)

    @property
    def stats(self) -> ServingStats:
        """Scheduler-level flush statistics (all routes combined)."""
        return self.scheduler.stats

    def resolve_task(self, request: QueryRequest):
        """The route key answering ``request`` (strict, raises early)."""
        task = request.task
        if task is None:
            if len(self._routes) == 1:
                return next(iter(self._routes))
            raise ValueError(
                f"request has no task; routes: {self.tasks} — set "
                "QueryRequest.task"
            )
        if task not in self._routes:
            raise KeyError(
                f"unknown task {task!r}; routes: {self.tasks}"
            )
        return task

    def predictor(self, task) -> Predictor:
        """The underlying predictor of one route."""
        if task not in self._routes:
            raise KeyError(f"unknown task {task!r}; routes: {self.tasks}")
        return self._routes[task]

    def _check_route_available(self, task) -> None:
        """Admission fast-fail: a request for an open-breaker route with
        no fallback is doomed — raise
        :class:`~repro.serving.errors.RouteUnavailableError` *now*
        instead of letting it occupy queue room and poison a flush.
        Read-only (:meth:`CircuitBreaker.would_allow`): half-open probe
        slots are consumed at flush time, not here."""
        breaker = self.breakers.get(task)
        if (
            breaker is not None
            and task not in self._fallbacks
            and not breaker.would_allow()
        ):
            raise RouteUnavailableError(
                f"route {task!r} circuit breaker is {breaker.state}; "
                "retry after the reset timeout"
            )

    def submit(self, request: QueryRequest):
        """Enqueue one request on the shared scheduler (validated now,
        including the route's breaker state)."""
        self._check_route_available(self.resolve_task(request))
        return self.scheduler.submit(request)

    def submit_nowait(self, request: QueryRequest):
        """Like :meth:`submit`, but a full bounded queue raises
        :class:`~repro.serving.api.OverloadError` instead of blocking
        (the :class:`~repro.serving.frontend.AsyncFrontend` admission
        path)."""
        self._check_route_available(self.resolve_task(request))
        return self.scheduler.submit_nowait(request)

    def add_room_callback(self, callback) -> None:
        """Forward a queue-room wakeup registration to the scheduler."""
        self.scheduler.add_room_callback(callback)

    def predict(self, request: QueryRequest) -> QueryResponse:
        """Answer one request directly (no scheduling), with accounting."""
        return self._dispatch.predict(request)

    def predict_batch(
        self, requests: Sequence[QueryRequest]
    ) -> list[QueryResponse]:
        """Answer a mixed-task batch directly (no scheduling)."""
        return self._dispatch.predict_batch(requests)

    # -- lifecycle ----------------------------------------------------------
    def flush(self) -> None:
        self.scheduler.flush()

    def close(self) -> None:
        self.scheduler.close()

    def __enter__(self) -> "ModelRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
