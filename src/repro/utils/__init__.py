"""Shared utilities: seeded RNG helpers and text-table formatting."""

from repro.utils.rng import new_rng, spawn_rngs
from repro.utils.tables import TextTable, format_float, format_ratio

__all__ = [
    "new_rng",
    "spawn_rngs",
    "TextTable",
    "format_float",
    "format_ratio",
]
