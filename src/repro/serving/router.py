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
route's own ``predict_batch``. A flush is one pass: each row's route is
resolved once, the stack takes its rows in submission order with a
per-row member index (a flush that is one stacked call passes its
request list straight through), and one decode answers every row in
its own route's vocabulary. Every other route keeps one
``predict_batch`` per flush: the hw device, custom predictors,
story-cached routes, other backends, and a route alone in its group or
in the flush. Each threshold backend's ``theta`` is snapshotted when
the router opens.

Per-route traffic is accounted in ``router.route_stats[task]`` — one
flush per route present, stacked or not, counted only once every call
of the flush has returned; scheduler-level flush statistics stay in
``router.stats``, and a story-cached route counts its hits in
``router.predictor(task).cache.stats``. Each route's predictor checks
its own rows: a malformed request resolves with
:class:`~repro.serving.errors.InvalidRequestError` and every other
request of the flush is answered. A route call that raises anyway is a
bug, and fails every request of the flush.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Mapping, Sequence

from repro.serving.api import Predictor, QueryRequest, QueryResponse, ServingStats
from repro.serving.errors import InvalidRequestError
from repro.serving.predictor import PredictorStack, first_answer
from repro.serving.scheduler import BatchScheduler


class _RoutingPredictor:
    """Predictor facade dispatching mixed-task batches to their routes."""

    def __init__(self, routes, route_stats, resolve):
        self._routes = routes
        self._route_stats = route_stats
        self._resolve = resolve
        #: task -> its PredictorStack and task -> its member index there,
        #: for every route that shares its stack key with another route.
        self._stack_of: dict = {}
        self._member: dict = {}
        by_key: dict = {}
        for task, predictor in routes.items():
            key = PredictorStack.key(predictor)
            if key is not None:
                by_key.setdefault(key, []).append(task)
        for tasks in by_key.values():
            if len(tasks) > 1:
                stack = PredictorStack([routes[task] for task in tasks])
                for member, task in enumerate(tasks):
                    self._stack_of[task] = stack
                    self._member[task] = member
        self._stats_lock = threading.Lock()

    def predict(self, request: QueryRequest) -> QueryResponse:
        return first_answer(self.predict_batch([request]))

    def predict_batch(
        self, requests: Sequence[QueryRequest]
    ) -> list[QueryResponse | InvalidRequestError]:
        """Answer a mixed-task batch.

        Routes of one :class:`PredictorStack` answer together in one
        engine call when two or more of them are in the batch; every
        other route — one alone in its stack or in the batch, or a
        predictor that cannot stack — gets its own ``predict_batch``.
        Each call takes its rows in submission order, and a batch that
        is one call passes its request list straight through. Either
        way the answers are each route's own, bit for bit, and per-route
        accounting counts one flush per route present — after every
        call has returned, so a route whose call ran before a failing
        one counts nothing.
        """
        tasks = [self._resolve(request) for request in requests]
        counts = Counter(tasks)
        stack_of = self._stack_of
        present = Counter(stack_of[task] for task in counts if task in stack_of)
        # Each route's call: its stack when another route of the stack
        # is present (``present[None]`` is 0), else the route itself.
        calls = {
            task: stack_of[task] if present[stack_of.get(task)] > 1 else task
            for task in counts
        }
        if len(set(calls.values())) == 1:
            responses = self._call(calls[tasks[0]], requests, tasks)
        else:
            rows: dict = {}
            for i, task in enumerate(tasks):
                rows.setdefault(calls[task], []).append(i)
            responses = [None] * len(requests)
            for call, indices in rows.items():
                answered = self._call(
                    call, [requests[i] for i in indices], [tasks[i] for i in indices]
                )
                for i, response in zip(indices, answered):
                    responses[i] = response
        with self._stats_lock:
            for task, rows_answered in counts.items():
                self._route_stats[task].record_flush(rows_answered)
        return responses

    def _call(self, call, requests, tasks) -> list:
        """One stacked call (rows on their routes' members) or one
        route's own ``predict_batch``."""
        if isinstance(call, PredictorStack):
            return call.predict_rows(requests, [self._member[task] for task in tasks])
        return self._routes[call].predict_batch(requests)


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
        **scheduler_kwargs,
    ):
        if not predictors:
            raise ValueError("need at least one route")
        self._routes = dict(predictors)
        self.route_stats: dict = {
            task: ServingStats() for task in self._routes
        }
        self._dispatch = _RoutingPredictor(
            self._routes, self.route_stats, self.resolve_task
        )
        # scheduler_kwargs forwards the admission-control knobs
        # (queue_cap, overload_policy, inline_flush) and the clock
        # without re-declaring them.
        self.scheduler = BatchScheduler(
            self._dispatch,
            max_batch=max_batch,
            max_wait_s=max_wait_s,
            start_worker=start_worker,
            **scheduler_kwargs,
        )

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
        overload_policy: str = "shed",
        inline_flush: bool = True,
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
        return cls(
            predictors,
            max_batch=max_batch,
            max_wait_s=max_wait_s,
            start_worker=start_worker,
            queue_cap=queue_cap,
            overload_policy=overload_policy,
            inline_flush=inline_flush,
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

    def submit(self, request: QueryRequest):
        """Enqueue one request on the shared scheduler (its task is
        validated now). A full bounded queue raises
        :class:`~repro.serving.api.OverloadError`."""
        self.resolve_task(request)
        return self.scheduler.submit(request)

    # AsyncFrontend calls it by this name.
    submit_nowait = submit

    def predict(self, request: QueryRequest) -> QueryResponse:
        """Answer one request directly (no scheduling), with accounting."""
        return self._dispatch.predict(request)

    def predict_batch(
        self, requests: Sequence[QueryRequest]
    ) -> list[QueryResponse | InvalidRequestError]:
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
