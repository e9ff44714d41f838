"""Traced run: spans around public calls, per-layer metrics, phase table.

The program is not modified. :class:`Tracer` replaces public methods on
the *instances* of one serving stack with wrappers that record a span
(id, name, start, end, parent, extra) per call; the parent is the
innermost traced call still open on the same thread. Spans stay in
memory and are written once, at the end, as one ``.npz``.

A layer's self time is its spans' durations minus the part covered by
their child spans. Per-query figures divide by the requests answered in
the traced segment, and ``serving.unattributed_us_per_query`` is the
traced wall time per query minus every layer's self time (futures,
locks, the event loop and the load generator itself).
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict, deque
from time import perf_counter

import numpy as np

from repro.babi.dataset import EncodedBatch
from repro.hw.accelerator import MannAccelerator
from repro.hw.config import HwConfig

# span name -> layer whose self time it counts toward
SPAN_LAYER = {
    "scheduler.submit": "scheduler",
    "scheduler.flush": "router",
    "predictor.predict_batch": "predictor",
    "engine.search": "engine.hops_other",
    "engine.write": "engine.write",
    "engine.write_memory": "engine.write",
    "engine.attention": "engine.attention",
    "mips.search_batch": "mips.search",
    "cache.get": "cache.get",
    "cache.put": "cache.put",
}
LAYERS = (
    "frontend",
    "scheduler",
    "router",
    "predictor",
    "engine.write",
    "engine.attention",
    "engine.hops_other",
    "mips.search",
    "cache.get",
    "cache.put",
)
# Stage names of repro.hw.report.phase_breakdown_table.
HW_STAGES = (
    ("control", "control decode"),
    ("write", "write (embed + memory)"),
    ("question", "question embed"),
    ("hops", "hops (addressing/read/controller)"),
    ("output", "output scan (MIPS)"),
)
HW_EXAMPLES_PER_TASK = 8


class Tracer:
    def __init__(self):
        self.spans: list = []  # (id, name, start, end, parent, extra)
        self.resolved: list = []  # (request_id, time the future resolved)
        self._ids = itertools.count()
        self._local = threading.local()

    # -- recording -----------------------------------------------------
    def wrap(self, obj, attr: str, name: str, extra=None) -> None:
        """Replace ``obj.attr`` with a span-recording wrapper.

        ``extra(args, result)`` runs after the span closes and its value
        is stored with the span (row counts, request ids, ...).
        """
        inner = getattr(obj, attr)
        spans, ids, local, clock = self.spans, self._ids, self._local, perf_counter

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            spans.append(
                (sid, name, t0, t1, parent, extra(args, result) if extra else None)
            )
            return result

        setattr(obj, attr, traced)

    def wrap_async_query(self, frontend) -> None:
        """Span around each ``AsyncFrontend.query``. Coroutines interleave
        on one thread, so these spans are kept off the parent stack."""
        inner = frontend.query
        spans, ids = self.spans, self._ids

        async def traced(request, **kwargs):
            sid = next(ids)
            t0 = perf_counter()
            try:
                return await inner(request, **kwargs)
            finally:
                spans.append(
                    (sid, "frontend.query", t0, perf_counter(), -1, request.request_id)
                )

        frontend.query = traced

    def note_resolution(self, request, future) -> None:
        resolved = self.resolved
        rid = request.request_id
        future.add_done_callback(lambda _: resolved.append((rid, perf_counter())))

    def instrument(self, submitter, submit_attrs, scheduler, routes) -> None:
        """Wrap one serving stack: ``submitter``'s submit methods, the
        scheduler's flush entry (its predictor's ``predict_batch``), and
        every route predictor with its engine, MIPS backend and cache."""
        for attr in submit_attrs:
            resolve = attr == "submit_nowait"

            def submit_extra(args, future, resolve=resolve):
                if resolve:
                    self.note_resolution(args[0], future)
                return (args[0].request_id, id(args[0]))

            self.wrap(submitter, attr, "scheduler.submit", submit_extra)
        for route in routes:
            engine = route.engine
            self.wrap(route, "predict_batch", "predictor.predict_batch", _rows)
            self.wrap(engine, "search", "engine.search")
            self.wrap(engine, "write_memory_cached", "engine.write")
            self.wrap(
                engine,
                "write_memory",
                "engine.write_memory",
                lambda args, _, e=engine: _gather_bytes(e, args[0]),
            )
            self.wrap(engine, "attention", "engine.attention")
            self.wrap(
                engine.mips,
                "search_batch",
                "mips.search_batch",
                lambda args, r, e=engine: _search_counts(e, r),
            )
            if route.cache is not None:
                self.wrap(route.cache, "get", "cache.get")
                self.wrap(route.cache, "put", "cache.put")
        # Wrapped last, so on a single-route server (scheduler.predictor
        # is the route itself) the flush span encloses the route span.
        self.wrap(
            scheduler.predictor,
            "predict_batch",
            "scheduler.flush",
            lambda args, _: (len(args[0]), [id(r) for r in args[0]]),
        )

    # -- output --------------------------------------------------------
    def save(self, path) -> None:
        names = sorted({s[1] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        rid = [
            s[5][0] if s[1] == "scheduler.submit" else (s[5] if s[1] == "frontend.query" else -1)
            for s in self.spans
        ]
        np.savez(
            path,
            names=np.array(names),
            id=np.array([s[0] for s in self.spans], dtype=np.int64),
            name=np.array([code[s[1]] for s in self.spans], dtype=np.int32),
            start=np.array([s[2] for s in self.spans]),
            end=np.array([s[3] for s in self.spans]),
            parent=np.array([s[4] for s in self.spans], dtype=np.int64),
            request_id=np.array(rid, dtype=np.int64),
        )


def _rows(args, _):
    return len(args[0])


def _gather_bytes(engine, stories) -> int:
    """Bytes of write_memory's (B, L, W, 2E) gather temporary, computed
    from the call's shapes rather than measured."""
    b, l, w = np.shape(stories)
    return b * l * w * 2 * engine.config.embed_dim * engine.weights.w_emb_a.itemsize


def _search_counts(engine, result):
    rows = len(result.labels)
    comparisons = int(result.comparisons.sum())
    return rows, comparisons, int(result.early_exits.sum()), comparisons * engine.config.embed_dim


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------
def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, answered: int) -> dict:
    """Per-layer figures of one traced segment (values only, no units)."""
    spans = tracer.spans
    covered = defaultdict(float)
    for sid, name, t0, t1, parent, _ in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    self_s = defaultdict(float)
    by_name = defaultdict(list)
    for span in spans:
        sid, name, t0, t1 = span[:4]
        by_name[name].append(span)
        if name in SPAN_LAYER:
            self_s[SPAN_LAYER[name]] += (t1 - t0) - covered[sid]

    # Frontend self time: from entering query() to handing the request
    # to the scheduler (admission); the rest of a query span is waiting.
    submit_at = {s[5][0]: s[2] for s in by_name["scheduler.submit"]}
    query_end = {}
    for _, _, t0, t1, _, rid in by_name["frontend.query"]:
        if rid in submit_at:
            self_s["frontend"] += submit_at[rid] - t0
        query_end[rid] = t1
    resume_ms = [
        (query_end[rid] - t) * 1e3 for rid, t in tracer.resolved if rid in query_end
    ]

    # Queue wait: replay submits and flushes in time order; the queue is
    # FIFO, so a flushed request is its object's oldest open submission.
    events = [(s[2], 0, s[5][1]) for s in by_name["scheduler.submit"]]
    events += [(s[2], 1, s[5][1]) for s in by_name["scheduler.flush"]]
    events.sort(key=lambda e: (e[0], e[1]))
    open_submits = defaultdict(deque)
    waits_ms = []
    for t, kind, payload in events:
        if kind == 0:
            open_submits[payload].append(t)
        else:
            for oid in payload:
                if open_submits[oid]:
                    waits_ms.append((t - open_submits[oid].popleft()) * 1e3)

    flushes = by_name["scheduler.flush"]
    calls = by_name["predictor.predict_batch"]
    searches = [s[5] for s in by_name["mips.search_batch"]]
    search_rows = max(1, sum(s[0] for s in searches))
    n = max(1, answered)
    submit_self_us = [
        ((s[3] - s[2]) - covered[s[0]]) * 1e6 for s in by_name["scheduler.submit"]
    ]
    flush_ms = [(s[3] - s[2]) * 1e3 for s in flushes]
    per_query_us = {layer: self_s[layer] / n * 1e6 for layer in LAYERS}
    wall_us = wall_s / n * 1e6
    metrics = {
        "trace.wall_us_per_query": wall_us,
        "frontend.self_us_per_query": per_query_us["frontend"],
        "frontend.resume_p50_ms": _pct(resume_ms, 50),
        "scheduler.self_us_per_query": per_query_us["scheduler"],
        "scheduler.submit_us_p50": _pct(submit_self_us, 50),
        "scheduler.queue_wait_p50_ms": _pct(waits_ms, 50),
        "scheduler.queue_wait_p99_ms": _pct(waits_ms, 99),
        "scheduler.rows_per_flush": sum(s[5][0] for s in flushes) / max(1, len(flushes)),
        "scheduler.flush_ms_p50": _pct(flush_ms, 50),
        "scheduler.flush_ms_p99": _pct(flush_ms, 99),
        "router.self_us_per_query": per_query_us["router"],
        "router.rows_per_call": sum(s[5] for s in calls) / max(1, len(calls)),
        "router.calls_per_flush": len(calls) / max(1, len(flushes)),
        "predictor.self_us_per_query": per_query_us["predictor"],
        "engine.write_us_per_query": per_query_us["engine.write"],
        "engine.attention_us_per_query": per_query_us["engine.attention"],
        "engine.hops_other_us_per_query": per_query_us["engine.hops_other"],
        "engine.write_temp_bytes_per_query": sum(
            s[5] for s in by_name["engine.write_memory"]
        )
        / n,
        "cache.get_us_per_query": per_query_us["cache.get"],
        "cache.put_us_per_query": per_query_us["cache.put"],
        "mips.search_us_per_query": per_query_us["mips.search"],
        "mips.comparisons_per_query": sum(s[1] for s in searches) / search_rows,
        "mips.early_exit_frac": sum(s[2] for s in searches) / search_rows,
        "mips.macs_per_query": sum(s[3] for s in searches) / search_rows,
        "serving.unattributed_us_per_query": wall_us - sum(per_query_us.values()),
    }
    engine_groups = {
        "control": per_query_us["predictor"],
        "write": per_query_us["engine.write"]
        + per_query_us["cache.get"]
        + per_query_us["cache.put"],
        "hops": per_query_us["engine.hops_other"] + per_query_us["engine.attention"],
        "output": per_query_us["mips.search"],
    }
    total = sum(engine_groups.values()) or 1.0
    for group, us in engine_groups.items():
        metrics[f"sw.phase_share.{group}"] = us / total
    return metrics


# ---------------------------------------------------------------------------
# accelerator co-simulation
# ---------------------------------------------------------------------------
def hw_metrics(suite) -> dict:
    """``MannAccelerator.run`` over a fixed slice of the bAbI request mix
    (the first test examples of every task), with ITH (rho=1.0) and
    without. Independent of the seed: a pure function of the design."""
    totals = {ith: defaultdict(float) for ith in (True, False)}
    n = 0
    for task in suite.task_ids:
        system = suite.tasks[task]
        batch = system.test_batch
        k = min(HW_EXAMPLES_PER_TASK, len(batch))
        mix = EncodedBatch(
            batch.stories[:k], batch.questions[:k], batch.answers[:k], batch.story_lengths[:k]
        )
        n += k
        for ith, acc in totals.items():
            config = HwConfig().with_embed_dim(system.weights.config.embed_dim).with_ith(
                ith, rho=1.0
            )
            report = MannAccelerator(
                system.weights, config, threshold_model=system.threshold_model
            ).run(mix, include_model_transfer=False)
            acc["cycles"] += report.total_cycles
            acc["comparisons"] += report.mean_comparisons * k
            acc["energy_j"] += report.energy_joules
            acc["flops"] += report.flops
            for phase, _ in HW_STAGES:
                acc[phase] += getattr(report.phases, phase)
    ith = totals[True]
    phase_total = sum(ith[phase] for phase, _ in HW_STAGES)
    metrics = {
        "hw.cycles_per_query": ith["cycles"] / n,
        "hw.cycles_per_query_noith": totals[False]["cycles"] / n,
        "hw.comparisons_per_query": ith["comparisons"] / n,
        "hw.energy_uj_per_query": ith["energy_j"] / n * 1e6,
        "hw.flops_per_kj": ith["flops"] / (ith["energy_j"] / 1e3),
    }
    for phase, _ in HW_STAGES:
        metrics[f"hw.phase_share.{phase}"] = ith[phase] / phase_total
    return metrics


def phase_table(metrics: dict, workload: str) -> str:
    """Software self-time shares beside the co-sim's cycle shares."""
    sw = {
        "control": metrics["sw.phase_share.control"],
        "write": metrics["sw.phase_share.write"],
        "question": None,
        "hops": metrics["sw.phase_share.hops"],
        "output": metrics["sw.phase_share.output"],
    }
    lines = [
        f"Per-phase shares: software self time ({workload}) vs accelerator "
        "cycles (co-sim, bAbI mix, ITH rho=1.0)",
        f"{'phase':<36}{'sw share':>10}{'hw share':>10}",
    ]
    for phase, label in HW_STAGES:
        share = sw[phase]
        sw_text = "(in hops)" if share is None else f"{100 * share:.1f}%"
        lines.append(
            f"{label:<36}{sw_text:>10}{100 * metrics[f'hw.phase_share.{phase}']:>9.1f}%"
        )
    lines.append(
        "sw control = request stacking + response building (predict_batch "
        "self time); sw hops include the question embed."
    )
    return "\n".join(lines)
