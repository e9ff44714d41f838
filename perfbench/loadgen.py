"""Closed- and open-loop load from one process, with answer checking.

Both loops time each request from outside the serving stack and check
every answer against the workload's reference (``Pool.check``). The
figures cover every request answered (or failed) inside the measured
window.

* :func:`closed_loop` drives ``callers`` simulated callers from the
  calling thread: a caller sends its next request as soon as its
  previous one resolves. Latency runs from ``submit`` to the future's
  resolution. Its times are scaled to a reference host speed measured
  between windows of the run (:func:`_summarize_windows`); these are
  the benchmark's end-to-end figures.
* :func:`open_loop` sends on a fixed-rate schedule through an
  ``AsyncFrontend`` on one asyncio loop, whatever the backlog. Latency
  runs from when a request was *due*, so a stall also charges the
  requests it delayed; the generator's own lateness is reported.
"""

from __future__ import annotations

import asyncio
import threading
from array import array
from collections import deque
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from repro.serving.errors import DeadlineExceededError, ServingError

import hostspeed

# Typed outcomes a served request may end in besides an answer: shed,
# expired, refused or failed. Anything else is a bug and aborts the run.
SERVING_ERRORS = (ServingError, DeadlineExceededError)

# Closed-loop windows: a host-speed calibration every WINDOW_S, taken
# where no request is in flight (see closed_loop).
WINDOW_S = 0.25
FORCE_AFTER_S = 0.05


@dataclass
class LoopResult:
    """Outcome of one loop run.

    ``attempted``/``failed``/``mismatches`` cover every request of the
    run (warm-up and drain included); the figures below cover only the
    measured window (see :func:`_summarize` and
    :func:`_summarize_windows`). ``raw_throughput_rps`` and ``slowdown``
    (the median host slowdown) are set by the closed loop only.
    """

    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    wall_s: float = 0.0
    throughput_rps: float = 0.0
    latency_p50_ms: float = 0.0
    latency_p90_ms: float = 0.0
    goodput_frac: float = 0.0
    raw_throughput_rps: float = 0.0
    slowdown: float = 1.0
    late_ms: np.ndarray | None = None


def _series():
    """Per-request (time, latency, ok) columns. Typed arrays, not lists:
    the garbage collector never walks them, so a long run does not slow
    itself down as they grow."""
    return array("d"), array("d"), array("b")


def _summarize(result, seconds, latency, ok, deadline_s):
    """Figures of an open loop's measured window, over all its requests,
    in wall time (unscaled).

    Throughput is the answers in the window over its length; p50 and
    p90 are read over every answer in it. The tail is read at p90: p99
    is set by host scheduling stalls and spread 0.15-0.6 (IQR/median)
    over five seeds where p90 stayed under 0.15, and goodput already
    counts every answer past the deadline. Goodput covers every
    request, failed ones included.
    """
    served = latency[ok]
    result.throughput_rps = float(len(served) / seconds)
    if len(served):
        p50, p90 = np.percentile(served, [50, 90]) * 1e3
        result.latency_p50_ms, result.latency_p90_ms = float(p50), float(p90)
    result.goodput_frac = float((ok & (latency <= deadline_s)).sum() / max(1, len(ok)))


def closed_loop(
    submit, pool, stream, *, callers, warmup_s, seconds, deadline_s, stream_weight=0.0
):
    """Run ``callers`` closed-loop callers for ``warmup_s + seconds``.

    ``submit(request) -> concurrent.futures.Future`` is the serving
    entry point. A submit that raises, or a future that resolves to, a
    typed serving error counts as a failed request and the caller moves
    on to its next one; any other exception aborts the run.

    The run is cut into windows of about ``WINDOW_S``. Between two
    windows, with every request resolved, the host's slowdown is
    measured (:func:`hostspeed.slowdown` with ``stream_weight``); a
    window's times are scaled to the reference speed by the mean of the
    two readings around it (see :func:`_summarize_windows`). The cut
    falls where the callers' requests have all been answered, so it
    changes no request's latency; if that moment has not come
    ``FORCE_AFTER_S`` after the cut is due, the callers hold off until
    the queue drains.
    """
    requests = pool.requests
    done: deque = deque()
    wake = threading.Event()

    def on_done(future):
        future.t_done = perf_counter()
        done.append(future)
        wake.set()

    result = LoopResult()
    times, latencies, oks = _series()
    cuts = []  # (start, end, slowdown) of each calibration

    def cut():
        t0 = perf_counter()
        speed = hostspeed.slowdown(stream_weight)
        cuts.append((t0, perf_counter(), speed))

    start = perf_counter()
    m0 = start + warmup_s
    m1 = m0 + seconds
    cut()
    next_cut = cuts[-1][1] + WINDOW_S
    ready, outstanding, stopping = callers, 0, False
    while True:
        now = perf_counter()
        if now >= next_cut and not stopping and outstanding == len(done):
            cut()
            next_cut = cuts[-1][1] + WINDOW_S
            stopping = cuts[-1][0] >= m1
            continue
        holding = stopping or now >= next_cut + FORCE_AFTER_S
        if ready and not holding:
            item = next(stream)
            result.attempted += 1
            t0 = perf_counter()
            try:
                future = submit(requests[item])
            except SERVING_ERRORS:
                result.failed += 1
                times.append(t0)
                latencies.append(0.0)
                oks.append(False)
                continue
            future.item = item
            future.t0 = t0
            ready -= 1
            outstanding += 1
            future.add_done_callback(on_done)
            continue
        if not done:
            if stopping and not outstanding:
                break
            wake.clear()
            if not done:
                wake.wait(0.05 if outstanding else max(0.0, next_cut - now))
            continue
        future = done.popleft()
        outstanding -= 1
        ready += 1
        error = future.exception()
        if error is None:
            response = future.result()
            if not pool.check(future.item, response.label, response.logit):
                result.mismatches += 1
        elif isinstance(error, SERVING_ERRORS):
            result.failed += 1
        else:
            raise error
        times.append(future.t_done)
        latencies.append(future.t_done - future.t0)
        oks.append(error is None)
    result.wall_s = perf_counter() - start - sum(c[1] - c[0] for c in cuts)
    _summarize_windows(
        result, np.array(cuts), m0, np.array(times), np.array(latencies),
        np.array(oks, dtype=bool), deadline_s,
    )
    return result


def _summarize_windows(result, cuts, m0, times, latency, ok, deadline_s):
    """End-to-end figures of a closed loop, at the reference host speed.

    Window ``k`` runs from the end of calibration ``k`` to the start of
    calibration ``k + 1``; its slowdown ``s`` is the mean of those two
    readings. The measured windows are those that start at or after
    ``m0``. Throughput is the median over them of ``answers * s /
    length``; p50 and p90 are read over every answer in them, each
    latency divided by its window's ``s``; goodput covers every request
    in them, failed ones included, against the deadline at that scale.
    ``raw_throughput_rps`` is answers over wall time, unscaled.
    """
    starts, ends = cuts[:-1, 1], cuts[1:, 0]
    speed = (cuts[:-1, 2] + cuts[1:, 2]) / 2
    window = np.searchsorted(starts, times, side="right") - 1
    measured = np.flatnonzero(starts >= m0)
    if not len(measured):  # a run shorter than one window
        measured = np.array([len(starts) - 1])
    keep = window >= measured[0]
    scaled = latency[keep] / speed[window[keep]]
    ok, served = ok[keep], window[keep][ok[keep]]
    answers = np.bincount(served, minlength=len(starts))[measured]
    length = (ends - starts)[measured]
    result.throughput_rps = float(np.median(answers * speed[measured] / length))
    result.raw_throughput_rps = float(answers.sum() / length.sum())
    result.slowdown = float(np.median(speed[measured]))
    if ok.any():
        p50, p90 = np.percentile(scaled[ok], [50, 90]) * 1e3
        result.latency_p50_ms, result.latency_p90_ms = float(p50), float(p90)
    result.goodput_frac = float((ok & (scaled <= deadline_s)).sum() / max(1, len(ok)))


def open_loop(query, pool, stream, *, rate, warmup_s, seconds, deadline_s):
    """Send at ``rate`` req/s through ``query`` (an async callable such
    as ``AsyncFrontend.query``) for ``warmup_s + seconds``, then drain.

    Every request carries ``deadline_s``. Shed, expired and failed
    requests count as failed and as goodput misses.
    """
    return asyncio.run(
        _open_loop(query, pool, stream, rate, warmup_s, seconds, deadline_s)
    )


async def _open_loop(query, pool, stream, rate, warmup_s, seconds, deadline_s):
    requests = pool.requests
    loop = asyncio.get_running_loop()
    result = LoopResult()
    in_flight: set = set()
    times, latencies, oks = _series()
    late = array("d")

    async def one(request, item, due):
        try:
            response = await query(request)
        except SERVING_ERRORS:
            result.failed += 1
            times.append(perf_counter())
            latencies.append(0.0)
            oks.append(False)
            return
        done = perf_counter()
        times.append(done)
        latencies.append(done - due)
        oks.append(True)
        if not pool.check(item, response.label, response.logit):
            result.mismatches += 1

    start = perf_counter() + 0.01
    m0 = start + warmup_s
    m1 = m0 + seconds
    interval = 1.0 / rate
    i = 0
    while True:
        due = start + i * interval
        if due >= m1:
            break
        now = perf_counter()
        if due > now:
            await asyncio.sleep(due - now)
            continue
        if due >= m0:
            late.append(now - due)
        item = next(stream)
        request = replace(requests[item], request_id=i, deadline_s=deadline_s)
        task = loop.create_task(one(request, item, due))
        in_flight.add(task)
        task.add_done_callback(in_flight.discard)
        result.attempted += 1
        i += 1
    while in_flight:
        await asyncio.gather(*list(in_flight))
    result.wall_s = perf_counter() - start
    times_arr = np.array(times)
    keep = (times_arr >= m0) & (times_arr < m1)
    result.late_ms = np.array(late) * 1e3
    _summarize(
        result,
        seconds,
        np.array(latencies)[keep],
        np.array(oks, dtype=bool)[keep],
        deadline_s,
    )
    return result
