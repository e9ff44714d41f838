"""Deterministic random-number-generator helpers.

Everything in the reproduction that draws random numbers goes through
``numpy.random.Generator`` objects created here, so that experiments are
reproducible from a single integer seed.
"""

from __future__ import annotations

import numpy as np


def new_rng(seed: int | None = 0) -> np.random.Generator:
    """Return a fresh, independent ``numpy`` generator for ``seed``."""
    return np.random.default_rng(seed)


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Return ``count`` statistically independent generators.

    Uses ``SeedSequence.spawn`` so the streams do not overlap even for
    adjacent seeds; used to give each bAbI task its own stream.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]
