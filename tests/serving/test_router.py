"""ModelRouter: many task routes, one scheduler, per-route accounting."""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.babi.vocab import Vocab
from repro.eval.suite import BabiSuite, SuiteConfig
from repro.serving import (
    InvalidRequestError,
    ModelRouter,
    OverloadError,
    QueryRequest,
    QueryResponse,
    SoftwarePredictor,
    open_predictor,
)


@pytest.fixture(scope="module")
def mixed_suite() -> BabiSuite:
    """Three tasks with different memory sizes and sentence widths, so
    a stacked flush pads every route's rows."""
    return BabiSuite.build(
        SuiteConfig(task_ids=(1, 3, 17), n_train=20, n_test=12, epochs=2, seed=5)
    )


def _request(suite, task, i, route=None):
    batch = suite.tasks[task].test_batch
    j = i % len(batch)
    return QueryRequest(
        batch.stories[j],
        batch.questions[j],
        n_sentences=int(batch.story_lengths[j]),
        request_id=(task, i),
        task=task if route is None else route,
    )


class TestOpen:
    def test_routes_cover_artifacts(self, artifacts_dir):
        with ModelRouter.open(str(artifacts_dir), start_worker=False) as router:
            assert router.tasks == [1, 6]

    def test_task_subset(self, tiny_suite):
        with ModelRouter.open(tiny_suite, tasks=[6], start_worker=False) as router:
            assert router.tasks == [6]

    def test_unknown_task_rejected_at_open(self, tiny_suite):
        with pytest.raises(KeyError, match="13"):
            ModelRouter.open(tiny_suite, tasks=[13])

    def test_single_task_system_route(self, tiny_suite):
        with ModelRouter.open(
            tiny_suite.tasks[1], start_worker=False
        ) as router:
            assert router.tasks == [1]

    def test_rejects_empty_and_garbage(self):
        with pytest.raises(ValueError, match="route"):
            ModelRouter({})
        with pytest.raises(TypeError, match="artifacts"):
            ModelRouter.open(42)

    def test_closed_router_is_freed_without_the_cycle_collector(
        self, tiny_suite, artifacts_dir
    ):
        """A closed router, its engines and the suite it loaded go with
        its last reference: nothing in it waits for the cyclic garbage
        collector."""
        gc.collect()
        gc.disable()
        try:
            router = ModelRouter.open(str(artifacts_dir))
            router.submit(_request(tiny_suite, 1, 0)).result(timeout=10)
            refs = [weakref.ref(router), weakref.ref(router.predictor(1).engine)]
            router.close()
            del router
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class TestRouting:
    def test_scheduled_matches_direct_predictors(self, tiny_suite):
        """Mixed-task submissions through the shared scheduler equal
        per-task direct predictor calls, bit for bit."""
        requests = [
            _request(tiny_suite, (1, 6)[i % 2], i) for i in range(30)
        ]
        direct = {
            task: open_predictor(tiny_suite, task) for task in (1, 6)
        }
        expected = [direct[r.task].predict(r) for r in requests]
        with ModelRouter.open(
            tiny_suite, max_batch=8, max_wait_s=0.005
        ) as router:
            futures = [router.submit(r) for r in requests]
            answered = [f.result(timeout=10.0) for f in futures]
        assert [r.label for r in answered] == [r.label for r in expected]
        # The engine's kernels are batch-independent, so co-batching
        # leaves every logit bit unchanged.
        assert [r.logit for r in answered] == [r.logit for r in expected]
        assert [r.comparisons for r in answered] == [
            r.comparisons for r in expected
        ]
        assert [r.request_id for r in answered] == [
            r.request_id for r in expected
        ]

    def test_per_route_stats(self, tiny_suite):
        with ModelRouter.open(
            tiny_suite, start_worker=False, max_batch=64
        ) as router:
            futures = [
                router.submit(_request(tiny_suite, task, i))
                for i, task in enumerate([1, 1, 1, 6, 6])
            ]
            router.flush()
            assert all(f.done() for f in futures)
            assert router.route_stats[1].requests == 3
            assert router.route_stats[6].requests == 2
            assert router.stats.requests == 5

    def test_unknown_task_raises_in_caller(self, tiny_suite):
        with ModelRouter.open(tiny_suite, start_worker=False) as router:
            with pytest.raises(KeyError, match="routes"):
                router.submit(_request(tiny_suite, 1, 0, route=99))
            assert router.scheduler.pending == 0  # nothing enqueued

    def test_taskless_request_needs_single_route(self, tiny_suite):
        multi = ModelRouter.open(tiny_suite, start_worker=False)
        single = ModelRouter.open(tiny_suite, tasks=[1], start_worker=False)
        batch = tiny_suite.tasks[1].test_batch
        request = QueryRequest(batch.stories[0], batch.questions[0])
        with multi, single:
            with pytest.raises(ValueError, match="task"):
                multi.submit(request)
            future = single.submit(request)
            single.flush()
            reference = open_predictor(tiny_suite, 1).predict(request)
            assert future.result().label == reference.label

    def test_direct_predict_batch_mixed_tasks(self, tiny_suite):
        requests = [_request(tiny_suite, (1, 6)[i % 2], i) for i in range(8)]
        with ModelRouter.open(tiny_suite, start_worker=False) as router:
            answered = router.predict_batch(requests)
        expected = [
            open_predictor(tiny_suite, r.task).predict(r) for r in requests
        ]
        assert [r.label for r in answered] == [r.label for r in expected]

    def test_full_queue_sheds_by_default(self, tiny_suite):
        with ModelRouter.open(tiny_suite, start_worker=False, queue_cap=1) as router:
            queued = router.submit(_request(tiny_suite, 1, 0))
            with pytest.raises(OverloadError, match="capacity"):
                router.submit_nowait(_request(tiny_suite, 6, 1))
            assert router.stats.shed == 1 and router.scheduler.pending == 1
        assert queued.result(timeout=5.0).request_id == (1, 0)

    def test_submit_after_close_rejected(self, tiny_suite):
        router = ModelRouter.open(tiny_suite, start_worker=False)
        router.close()
        with pytest.raises(RuntimeError, match="closed"):
            router.submit(_request(tiny_suite, 1, 0))


class _Answers:
    """A route that answers every request with label 0."""

    def predict_batch(self, requests):
        return [
            QueryResponse(
                label=0,
                logit=0.0,
                comparisons=1,
                early_exit=False,
                request_id=r.request_id,
            )
            for r in requests
        ]


class _Fails:
    def predict_batch(self, requests):
        raise ValueError("route down")


class TestFailedFlush:
    def test_accounting_does_not_depend_on_route_order(self):
        """A mixed flush whose later route raises fails every request in
        it, so no route may count it as served — whichever route the
        flush happened to run first."""
        story = np.ones((2, 3), dtype=np.int64)
        question = np.ones(3, dtype=np.int64)
        outcomes = {}
        for order in (("ok", "bad"), ("bad", "ok")):
            router = ModelRouter(
                {"ok": _Answers(), "bad": _Fails()}, start_worker=False
            )
            with router:
                for _ in range(3):
                    futures = [
                        router.submit(QueryRequest(story, question, task=task))
                        for task in order
                    ]
                    router.flush()
                    for future in futures:
                        assert isinstance(future.exception(timeout=1.0), ValueError)
                outcomes[order] = (
                    router.route_stats["ok"].requests,
                    router.route_stats["ok"].flushes,
                    router.stats.flushes,
                )
        assert outcomes[("ok", "bad")] == outcomes[("bad", "ok")] == (0, 0, 3)


class TestStackedFlush:
    """Routes that share vocabulary, embedding width, hops and backend
    answer a mixed-task flush with one engine call."""

    @staticmethod
    def _same(a, b) -> bool:
        return a == b and a.logit.hex() == b.logit.hex()

    @pytest.mark.parametrize("backend", ["exact", "threshold"])
    def test_stacked_flush_equals_each_routes_own_call(self, mixed_suite, backend):
        """Random task mixes, single-row tasks included: every answer of
        a stacked flush equals its route's own ``predict_batch`` bit for
        bit — on the same rows and on the row alone — and per-route
        stats count what the per-route loop counts."""
        tasks = mixed_suite.task_ids
        rng = np.random.default_rng(11)
        requests_per_task = dict.fromkeys(tasks, 0)
        flushes_per_task = dict.fromkeys(tasks, 0)
        with ModelRouter.open(
            mixed_suite, mips_backend=backend, max_batch=64, start_worker=False
        ) as router:
            routes = {task: router.predictor(task) for task in tasks}
            own_calls = []
            for task, route in routes.items():
                inner = route.predict_batch
                route.predict_batch = (
                    lambda requests, inner=inner, task=task: (
                        own_calls.append(task) or inner(requests)
                    )
                )
            for trial in range(12):
                sizes = rng.integers(0, 4, len(tasks))
                sizes[rng.choice(len(tasks), 2, replace=False)] = [1, 1 + trial % 3]
                requests = [
                    _request(mixed_suite, task, int(rng.integers(0, 12)))
                    for task, n in zip(tasks, sizes)
                    for _ in range(n)
                ]
                requests = [requests[i] for i in rng.permutation(len(requests))]
                futures = [router.submit(r) for r in requests]
                router.flush()
                answered = [f.result(timeout=10.0) for f in futures]
                assert own_calls == []  # one stacked call, no per-route call
                assert all(r.latency_s is not None for r in answered)
                answered = [replace(r, latency_s=None) for r in answered]
                for task in tasks:
                    rows = [i for i, r in enumerate(requests) if r.task == task]
                    if not rows:
                        continue
                    requests_per_task[task] += len(rows)
                    flushes_per_task[task] += 1
                    own = routes[task].predict_batch([requests[i] for i in rows])
                    for i, expected in zip(rows, own):
                        assert self._same(answered[i], expected)
                        (alone,) = routes[task].predict_batch([requests[i]])
                        assert self._same(answered[i], alone)
                own_calls.clear()
            for task in tasks:
                assert router.route_stats[task].requests == requests_per_task[task]
                assert router.route_stats[task].flushes == flushes_per_task[task]

    def test_out_of_vocabulary_word_fails_only_its_row(self, mixed_suite):
        """A word index outside [0, V) fails its own row with
        InvalidRequestError stacked with another route, alone in a flush
        and on the route's own call: it neither reads another route's
        embedding rows nor wraps a negative index around to the end of
        the vocabulary. The stacked good row is still answered, and a
        direct engine caller still gets the engine's IndexError."""
        good = _request(mixed_suite, 1, 0)
        batch = mixed_suite.tasks[3].test_batch
        vocab = mixed_suite.tasks[3].weights.config.vocab_size
        bad = []
        for word in (vocab, -1, -100):
            story = batch.stories[0].copy()
            story[0, 0] = word
            bad.append(QueryRequest(story, batch.questions[0], task=3))
        question = batch.questions[0].copy()
        question[0] = -1
        bad.append(QueryRequest(batch.stories[0], question, task=3))
        with ModelRouter.open(
            mixed_suite, mips_backend="threshold", start_worker=False
        ) as router:
            (expected,) = router.predict_batch([good])
            for request in bad:
                answer, error = router.predict_batch([good, request])
                assert self._same(answer, expected)
                assert isinstance(error, InvalidRequestError)
                assert "word index" in str(error)
                with pytest.raises(InvalidRequestError, match="word index"):
                    router.predict(request)
                with pytest.raises(InvalidRequestError, match="word index"):
                    router.predictor(3).predict(request)
                with pytest.raises(IndexError):
                    router.predictor(3).engine.search(
                        request.story[None], request.question[None], None
                    )

    def test_unstackable_routes_keep_their_own_call(self, mixed_suite):
        """Story-cached routes are not stacked: a mixed flush calls each
        route's own ``predict_batch`` once, with the same answers."""
        requests = [
            _request(mixed_suite, task, i) for i, task in enumerate([1, 3, 17, 1])
        ]
        with ModelRouter.open(
            mixed_suite, cache_entries=8, start_worker=False
        ) as router:
            expected = [router.predictor(r.task).predict(r) for r in requests]
            calls = []
            for task in router.tasks:
                route = router.predictor(task)
                inner = route.predict_batch
                route.predict_batch = (
                    lambda requests, inner=inner, task=task: (
                        calls.append(task) or inner(requests)
                    )
                )
            answered = router.predict_batch(requests)
        assert sorted(calls) == [1, 3, 17]
        assert all(self._same(a, b) for a, b in zip(answered, expected))


class TestStackedDecode:
    def test_each_row_decodes_in_its_own_routes_vocabulary(self, mixed_suite):
        """Two stacked routes whose vocabularies have the same size but
        different words, shuffled into one flush: each row's ``answer``
        comes from its own route's vocabulary, as on the route's own
        call."""
        vocab = mixed_suite.vocab
        renamed = Vocab(f"word{i}" for i in range(1, len(vocab)))
        assert len(renamed) == len(vocab)
        routes = {
            1: open_predictor(mixed_suite, 1),
            3: SoftwarePredictor(
                open_predictor(mixed_suite, 3).engine, vocab=renamed, task_id=3
            ),
        }
        requests = [_request(mixed_suite, task, i) for task in (1, 3) for i in range(12)]
        order = np.random.default_rng(3).permutation(len(requests))
        requests = [requests[i] for i in order]
        with ModelRouter(routes, start_worker=False) as router:
            own_calls = []
            for task, route in routes.items():
                inner = route.predict_batch
                route.predict_batch = (
                    lambda requests, inner=inner, task=task: (
                        own_calls.append(task) or inner(requests)
                    )
                )
            answered = router.predict_batch(requests)
            assert own_calls == []  # one stacked call
            expected = [routes[r.task].predict_batch([r])[0] for r in requests]
        assert answered == expected
        words = {1: vocab, 3: renamed}
        for request, response in zip(requests, answered):
            assert response.answer == words[request.task].word(response.label)
        assert any(r.label > 0 for r in answered)  # real words, not the pad


#: Every way a request can fail to fit its model, and a word its
#: InvalidRequestError message must name.
MALFORMED = {
    "story word >= V": "word index",
    "story word < 0": "word index",
    "question word": "word index",
    "no slots": "slots",
    "more slots than memory": "slots",
    "n_sentences < 1": "n_sentences",
    "n_sentences > slots": "n_sentences",
}
#: Every task stacked, plus task 1's model behind a story cache.
ROUTES = (1, 3, 17, "cached")


def _model_task(route) -> int:
    return 1 if route == "cached" else route


def _malformed(suite, route, kind, i) -> QueryRequest:
    """Row ``i`` of the route's test set, broken in the way ``kind``
    names (``i`` also varies the offending value)."""
    request = _request(suite, _model_task(route), i, route=route)
    config = suite.tasks[_model_task(route)].weights.config
    story, question = request.story.copy(), request.question.copy()
    n_sentences = request.n_sentences
    if kind == "story word >= V":
        story[i % len(story), 0] = config.vocab_size + i % 3
    elif kind == "story word < 0":
        story[-1, -1] = -1 - i % 3  # a pad slot counts too
    elif kind == "question word":
        question[0] = config.vocab_size if i % 2 else -1
    elif kind == "no slots":
        story, n_sentences = story[:0], None
    elif kind == "more slots than memory":
        story = np.ones((config.memory_size + 1 + i % 2, story.shape[1]), np.int64)
        n_sentences = None
    elif kind == "n_sentences < 1":
        n_sentences = -(i % 2)
    else:
        n_sentences = len(story) + 1 + i % 2
    return replace(request, story=story, question=question, n_sentences=n_sentences)


@pytest.fixture(scope="module")
def router_pairs(mixed_suite):
    """Per backend: a router serving mixed flushes and a twin serving the
    same flushes without their malformed requests."""
    pairs = {
        backend: tuple(
            ModelRouter(
                {
                    **{
                        task: open_predictor(mixed_suite, task, mips_backend=backend)
                        for task in mixed_suite.task_ids
                    },
                    "cached": open_predictor(
                        mixed_suite, 1, mips_backend=backend, cache_entries=8
                    ),
                },
                max_batch=64,
                start_worker=False,
            )
            for _ in range(2)
        )
        for backend in ("exact", "threshold")
    }
    yield pairs
    for routers in pairs.values():
        for router in routers:
            router.close()


_ROW = st.tuples(
    st.sampled_from(ROUTES),
    # None is a well-formed request: about half the rows.
    st.sampled_from([None] * len(MALFORMED) + list(MALFORMED)),
    st.integers(min_value=0, max_value=11),
)


class TestMalformedRequests:
    @pytest.mark.parametrize("backend", ["exact", "threshold"])
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(_ROW, min_size=1, max_size=24))
    def test_bad_rows_fail_alone(self, mixed_suite, router_pairs, backend, rows):
        """Random mixed flushes over stacked routes and a story-cached
        route: each malformed request resolves with InvalidRequestError,
        and each good one is bit-identical to the same flush submitted
        without the malformed ones."""
        mixed, reference = router_pairs[backend]
        requests = [
            _malformed(mixed_suite, route, kind, i)
            if kind
            else _request(mixed_suite, _model_task(route), i, route=route)
            for route, kind, i in rows
        ]
        futures = [mixed.submit(r) for r in requests]
        mixed.flush()
        good = [r for r, (_, kind, _) in zip(requests, rows) if kind is None]
        expected = [reference.submit(r) for r in good]
        reference.flush()
        expected = iter([f.result(timeout=10.0) for f in expected])
        for future, (_, kind, _) in zip(futures, rows):
            if kind is None:
                got, want = future.result(timeout=10.0), next(expected)
                assert (got.label, got.logit.hex(), got.comparisons, got.early_exit) == (
                    want.label,
                    want.logit.hex(),
                    want.comparisons,
                    want.early_exit,
                )
            else:
                error = future.exception(timeout=10.0)
                assert isinstance(error, InvalidRequestError), (kind, error)
                assert MALFORMED[kind] in str(error), (kind, error)
