"""Repository-wide pytest options (shared by ``tests/`` and ``benchmarks/``)."""

from __future__ import annotations


def pytest_addoption(parser):
    parser.addoption(
        "--bench-floors",
        action="store_true",
        default=False,
        help=(
            "enforce the benchmarks' wall-clock speedup floors. Off by "
            "default: a timing floor measures the host as much as the "
            "code, so the default run checks only parity and contracts."
        ),
    )
