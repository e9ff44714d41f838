"""Open-loop goodput ladder: the async SLO front end under overload.

Closed-loop benchmarks (submit, wait, repeat) can never overload a
server — the client self-throttles to the service rate. Production
traffic doesn't: arrivals follow the *offered* rate, and when that
exceeds capacity the pending queue grows without bound, every request
ages past its deadline while queued, and measured "throughput" stays
flat while **goodput** (answers that land inside their SLO budget)
collapses. Admission control exists for exactly this regime: shedding
the excess at the door keeps the queue — and therefore the latency of
every *admitted* request — bounded, trading rejected requests for
answers that still arrive in time.

This benchmark measures that trade directly. It calibrates the
predictor's closed-loop capacity R, then drives an open-loop qps
ladder (0.5x, 2x, 6x R) through :class:`AsyncFrontend` twice per
rung — no admission control (unbounded queue) vs a bounded queue with
``overload_policy="shed"`` — with every request carrying the same
deadline. Persisted artifacts:

* ``benchmarks/output/frontend.txt`` — the human-readable ladder, and
* the ``serving_frontend`` summary in
  ``benchmarks/output/BENCH_serving.json`` (goodput, shed/expired
  counts, admitted-latency percentiles per rung) that CI archives and
  asserts on.

The acceptance floor this PR ships on: at the top rung the shed
policy's goodput is strictly above the no-admission-control baseline,
and its admitted p99 stays below the baseline's (which scales with the
backlog, not the batch). The model is a production-shaped synthetic
MANN (vocab 400, embed 64) with 128 memory slots — deliberately heavy,
~1k req/s, so flush times (tens of ms) dwarf thread-wakeup jitter and
the contrast is queueing theory, not scheduler noise. Single-core
safe; the deadline and request count both scale with the measured
capacity to keep the margins machine-independent.
"""

from __future__ import annotations

import asyncio
import math
import time

import numpy as np

from benchmarks.conftest import persist, persist_bench_summary

from repro.mann.batch import BatchInferenceEngine
from repro.mann.config import MannConfig
from repro.mann.weights import MannWeights
from repro.serving import (
    AsyncFrontend,
    BatchScheduler,
    DeadlineExceededError,
    OverloadError,
    QueryRequest,
)
from repro.serving.predictor import SoftwarePredictor
from repro.utils.tables import TextTable

VOCAB = 400
EMBED = 64
MEMORY = 128
WORDS = 10
MAX_BATCH = 32
QUEUE_CAP = 32
N_CALIBRATE = 256
#: Offered load as multiples of the calibrated closed-loop capacity.
LADDER = (0.5, 2.0, 6.0)
OVERLOAD_X = 6.0
#: Deadline budget in flush-times (MAX_BATCH / capacity), floored in
#: seconds so scheduler wakeup jitter never dominates the budget.
DEADLINE_FLUSHES = 4.0
DEADLINE_FLOOR_S = 0.05
#: Requests at the overload rung: sized so the baseline's unbounded
#: backlog outgrows the deadline with ~2x margin over the shed path's
#: goodput (see the derivation in _ladder_plan).
OVERLOAD_DEMAND = 15.0


def _production_weights() -> MannWeights:
    rng = np.random.default_rng(11)
    config = MannConfig(
        vocab_size=VOCAB, embed_dim=EMBED, memory_size=MEMORY, hops=3
    )

    def w(*shape):
        return rng.normal(0.0, 0.1, shape)

    return MannWeights(
        config,
        w(VOCAB, EMBED),
        w(VOCAB, EMBED),
        w(VOCAB, EMBED),
        w(EMBED, EMBED),
        w(VOCAB, EMBED),
        w(MEMORY, EMBED),
        w(MEMORY, EMBED),
    )


def _requests(n: int, deadline_s: float | None, seed: int) -> list[QueryRequest]:
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(n):
        length = int(rng.integers(MEMORY // 2, MEMORY + 1))
        story = np.zeros((MEMORY, WORDS), dtype=np.int64)
        story[:length] = rng.integers(1, VOCAB, (length, WORDS))
        requests.append(
            QueryRequest(
                story,
                rng.integers(1, VOCAB, WORDS).astype(np.int64),
                n_sentences=length,
                request_id=i,
                deadline_s=deadline_s,
            )
        )
    return requests


def _calibrate_capacity(predictor) -> float:
    """Closed-loop service rate (requests/s) at full batches — the
    ceiling any open-loop rung is offered against."""
    requests = _requests(N_CALIBRATE, None, seed=3)
    best = math.inf
    for _ in range(2):  # first pass doubles as BLAS warm-up
        with BatchScheduler(
            predictor, max_batch=MAX_BATCH, start_worker=False
        ) as scheduler:
            start = time.perf_counter()
            futures = [scheduler.submit(r) for r in requests]
            scheduler.flush()
            for future in futures:
                future.result()
            best = min(best, time.perf_counter() - start)
    return N_CALIBRATE / best


def _drive_open_loop(predictor, requests, offered_qps, queue_cap, policy):
    """One open-loop pass: arrivals paced at ``offered_qps`` regardless
    of completions. Returns (wall_seconds, outcome counts, stats)."""
    scheduler = BatchScheduler(
        predictor,
        max_batch=MAX_BATCH,
        max_wait_s=0.002,
        queue_cap=queue_cap,
        overload_policy=policy,
        inline_flush=False,
    )

    async def drive():
        async with AsyncFrontend(scheduler) as frontend:
            loop = asyncio.get_running_loop()
            epoch = loop.time()
            waves = []
            for i, request in enumerate(requests):
                delay = epoch + i / offered_qps - loop.time()
                if delay > 0.0005:  # sub-ms pacing is wakeup noise
                    await asyncio.sleep(delay)
                waves.append(asyncio.ensure_future(frontend.query(request)))
            return await asyncio.gather(*waves, return_exceptions=True)

    start = time.perf_counter()
    results = asyncio.run(drive())
    seconds = time.perf_counter() - start

    served = sum(not isinstance(r, BaseException) for r in results)
    shed = sum(isinstance(r, OverloadError) for r in results)
    expired = sum(isinstance(r, DeadlineExceededError) for r in results)
    # The never-strand contract: every result is an answer or typed.
    assert served + shed + expired == len(results)
    return seconds, served, shed, expired, scheduler.stats


def _ladder_plan(capacity_qps: float) -> tuple[float, int]:
    """(deadline_s, n_overload): both scale with measured capacity.

    At overload factor k the unbounded baseline's backlog grows at
    (k-1)/k of arrivals, so only ~capacity * deadline * k/(k-1)
    requests complete inside the budget regardless of n; the shed
    path's goodput is ~n/k. n = OVERLOAD_DEMAND * capacity * deadline
    makes the shed path ~2x the baseline with machine-independent
    margins.
    """
    deadline_s = max(DEADLINE_FLUSHES * MAX_BATCH / capacity_qps,
                     DEADLINE_FLOOR_S)
    n_overload = int(math.ceil(OVERLOAD_DEMAND * capacity_qps * deadline_s))
    return deadline_s, n_overload


def test_bench_open_loop_goodput_ladder(bench_floor):
    predictor = SoftwarePredictor(
        BatchInferenceEngine(_production_weights(), "exact")
    )
    capacity_qps = _calibrate_capacity(predictor)
    deadline_s, n_overload = _ladder_plan(capacity_qps)

    table = TextTable(
        [
            "offered",
            "policy",
            "requests",
            "served/s",
            "goodput",
            "shed",
            "expired",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
        ],
        title=(
            f"Async front end, open loop — capacity {capacity_qps:.0f} "
            f"req/s, deadline {deadline_s * 1e3:.1f} ms, "
            f"max_batch={MAX_BATCH}, queue cap {QUEUE_CAP}, exact backend"
        ),
    )
    rows = []
    goodput_at_overload = {}
    p99_at_overload = {}
    for factor in LADDER:
        offered_qps = factor * capacity_qps
        # Sub-capacity rungs only demonstrate health — keep them short.
        n = n_overload if factor > 1.0 else max(256, n_overload // 4)
        for policy_label, queue_cap, policy in (
            ("baseline", None, "block"),
            ("shed", QUEUE_CAP, "shed"),
        ):
            requests = _requests(n, deadline_s, seed=int(factor * 10))
            seconds, served, shed, expired, stats = _drive_open_loop(
                predictor, requests, offered_qps, queue_cap, policy
            )
            goodput = stats.goodput_rate
            row = {
                "offered_x": factor,
                "offered_qps": offered_qps,
                "policy": policy_label,
                "requests": n,
                "served": served,
                "shed": shed,
                "expired": expired,
                "served_per_s": served / seconds,
                "goodput": goodput,
                "p50_ms": stats.p50_latency_s * 1e3,
                "p95_ms": stats.p95_latency_s * 1e3,
                "p99_ms": stats.p99_latency_s * 1e3,
            }
            rows.append(row)
            if factor == OVERLOAD_X:
                goodput_at_overload[policy_label] = goodput
                p99_at_overload[policy_label] = stats.p99_latency_s
            table.add_row(
                [
                    f"{factor:.1f}x",
                    policy_label,
                    str(n),
                    f"{row['served_per_s']:.0f}",
                    f"{goodput:.1%}",
                    str(shed),
                    str(expired),
                    f"{row['p50_ms']:.2f}",
                    f"{row['p95_ms']:.2f}",
                    f"{row['p99_ms']:.2f}",
                ]
            )
            # Consistency between frontend-observed and stats counters.
            assert stats.shed == shed and stats.expired == expired
            assert stats.offered == n

    # The acceptance floor: under overload, shedding buys goodput and
    # a bounded admitted-latency tail; without admission control the
    # backlog eats the deadline.
    bench_floor(
        goodput_at_overload["shed"] > goodput_at_overload["baseline"],
        f"shed goodput {goodput_at_overload['shed']:.1%} not above "
        f"baseline {goodput_at_overload['baseline']:.1%} at "
        f"{OVERLOAD_X}x offered load",
    )
    bench_floor(
        p99_at_overload["shed"] < p99_at_overload["baseline"],
        "admission control failed to bound the admitted p99 under "
        f"overload: shed {p99_at_overload['shed'] * 1e3:.1f} ms vs "
        f"baseline {p99_at_overload['baseline'] * 1e3:.1f} ms",
    )

    text = table.render()
    persist("frontend", text)
    persist_bench_summary(
        "serving_frontend",
        {
            "benchmark": "serving_frontend",
            "capacity_qps": capacity_qps,
            "deadline_ms": deadline_s * 1e3,
            "max_batch": MAX_BATCH,
            "queue_cap": QUEUE_CAP,
            "overload_x": OVERLOAD_X,
            "goodput_overload_shed": goodput_at_overload["shed"],
            "goodput_overload_baseline": goodput_at_overload["baseline"],
            "p99_overload_shed_ms": p99_at_overload["shed"] * 1e3,
            "p99_overload_baseline_ms": p99_at_overload["baseline"] * 1e3,
            "rows": rows,
        },
    )
