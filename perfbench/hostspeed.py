"""Host-speed calibration: fixed kernels timed between serving windows.

The benchmark's host shares its physical cores with other machines, and
the same code runs up to ~1.8x slower or faster from one second to the
next with the process on-CPU the whole time (no steal, so CPU time does
not help). Timing the serving stack alone therefore measures the
neighbours as much as the program.

:func:`slowdown` times kernels that share no code with the program and
divides by their time on an uncontended host:

* the **interpreter** kernel: Python loops, dicts and small numpy
  arrays, the mix of a serving flush on bAbI-sized models;
* the **stream** kernel: one pass over 16 MB arrays, the memory traffic
  of the large gathers a production-sized write phase makes.

A workload weighs the two (geometric mean) by how its serving time is
made: on a shared 2-vCPU Intel Xeon VM the bAbI closed loop's window
throughput follows the interpreter kernel alone (log-log slope -1.1 over 160 windows), the
synthetic model's follows the even mix (slope -0.8 to -1.15, where the
interpreter kernel alone gave -0.5 to -0.7).

The load generator calls it between serving windows, with no request
in flight, and reports every timing at the reference speed: a window's
time is divided by the slowdown measured around it. A change to the
program moves the serving time but not the kernels, so it shows in
full; a change of host speed moves both and largely cancels out.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# Kernel times on a 2-vCPU Intel Xeon VM (numpy 2.4, one OpenBLAS
# thread) in its fast state; only the ratios to them matter.
INTERPRETER_REF_S = 2.0e-3
STREAM_REF_S = 2.2e-3
REPEATS = 3

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(16, 24, 20))
_W = _rng.normal(size=(20, 48))
_stream = []  # (source, destination), made on first use


def _interpreter_kernel() -> None:
    acc = 0.0
    for i in range(120):
        y = _X[i % 16] @ _W
        z = np.exp(y - y.max(axis=1, keepdims=True))
        acc += float(z.sum()) + int(z.argmax())
        table = {k: k * 3 for k in range(24)}
        acc += len([v for v in table.values() if v & 4])


def _stream_kernel() -> None:
    if not _stream:
        source = _rng.normal(size=2_000_000)
        _stream.append((source, np.empty_like(source)))
    source, destination = _stream[0]
    np.multiply(source, 1.0001, out=destination)


def _best_seconds(kernel) -> float:
    """The kernel's time now: the fastest of a few back-to-back runs, so
    an interrupt in one run does not count as a slow host."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


def slowdown(stream_weight: float = 0.0) -> float:
    """How much slower than the reference the host runs now (>1 slower):
    the interpreter and stream kernels' slowdowns, geometric mean with
    weight ``stream_weight`` on the stream kernel."""
    log_s = math.log(_best_seconds(_interpreter_kernel) / INTERPRETER_REF_S)
    if stream_weight:
        log_stream = math.log(_best_seconds(_stream_kernel) / STREAM_REF_S)
        log_s += stream_weight * (log_stream - log_s)
    return math.exp(log_s)
