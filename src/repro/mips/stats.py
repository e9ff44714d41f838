"""Result containers shared by all MIPS engines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SearchResult:
    """Outcome of one MIPS query.

    ``comparisons`` counts logit evaluations (each is one |E|-wide dot
    product in the OUTPUT module plus one compare), the paper's Fig. 3
    y-axis. ``early_exit`` is True when inference thresholding returned
    speculatively before scanning every index.
    """

    label: int
    logit: float
    comparisons: int
    early_exit: bool = False


@dataclass
class BatchSearchResult:
    """Stacked outcome of a whole batch of MIPS queries.

    Every registered backend's ``search_batch`` returns this container:
    one numpy array per field instead of a Python list of
    :class:`SearchResult`, so downstream consumers (the batch inference
    engine, the Fig. 3 sweep, benchmarks) can aggregate comparison and
    early-exit statistics without a per-query loop. ``result(i)`` gives
    one query's outcome as a scalar :class:`SearchResult`; the batch
    itself cannot be iterated or indexed.
    """

    labels: np.ndarray  # (B,) int64 argmax index per query
    logits: np.ndarray  # (B,) float64 winning logit per query
    comparisons: np.ndarray  # (B,) int64 logit evaluations per query
    early_exits: np.ndarray  # (B,) bool speculative-exit flag per query

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.logits = np.asarray(self.logits, dtype=np.float64)
        self.comparisons = np.asarray(self.comparisons, dtype=np.int64)
        self.early_exits = np.asarray(self.early_exits, dtype=bool)
        n = self.labels.shape
        for name in ("logits", "comparisons", "early_exits"):
            if getattr(self, name).shape != n:
                raise ValueError(
                    f"{name} has shape {getattr(self, name).shape}, "
                    f"expected {n} to match labels"
                )
        if self.labels.ndim != 1:
            raise ValueError("batch result fields must be 1-D arrays")

    def __len__(self) -> int:
        return self.labels.shape[0]

    # -- aggregate views -------------------------------------------------
    @property
    def mean_comparisons(self) -> float:
        return float(self.comparisons.mean()) if len(self) else 0.0

    @property
    def early_exit_rate(self) -> float:
        return float(self.early_exits.mean()) if len(self) else 0.0

    def accuracy(self, answers: np.ndarray) -> float:
        """Fraction of queries whose label matches ``answers``."""
        answers = np.asarray(answers)
        if answers.shape != self.labels.shape:
            raise ValueError(
                f"answers has shape {answers.shape}, expected {self.labels.shape}"
            )
        return float((self.labels == answers).mean()) if len(self) else 0.0

    # -- scalar access ---------------------------------------------------
    def result(self, i: int) -> SearchResult:
        """The i-th query's outcome as a scalar :class:`SearchResult`."""
        return SearchResult(
            int(self.labels[i]),
            float(self.logits[i]),
            int(self.comparisons[i]),
            bool(self.early_exits[i]),
        )
