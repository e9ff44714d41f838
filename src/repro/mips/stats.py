"""Result/statistics containers shared by all MIPS engines."""

from __future__ import annotations

from dataclasses import dataclass, field

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
    early-exit statistics without a per-query loop. Use ``to_list()``
    (or ``result(i)``) where scalar results are genuinely needed; the
    deprecated list-of-``SearchResult`` iteration/indexing shims were
    removed after one release.
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

    def to_list(self) -> list[SearchResult]:
        """Materialise the batch as scalar results (no deprecation)."""
        return [self.result(i) for i in range(len(self))]

    @classmethod
    def from_results(cls, results: list[SearchResult]) -> "BatchSearchResult":
        """Stack scalar results (for backends without a batched kernel)."""
        return cls(
            labels=np.array([r.label for r in results], dtype=np.int64),
            logits=np.array([r.logit for r in results], dtype=np.float64),
            comparisons=np.array([r.comparisons for r in results], dtype=np.int64),
            early_exits=np.array([r.early_exit for r in results], dtype=bool),
        )

@dataclass
class SearchStats:
    """Aggregate counters over many queries."""

    queries: int = 0
    comparisons: int = 0
    early_exits: int = 0
    correct: int = 0
    labels: list[int] = field(default_factory=list)

    def record(self, result: SearchResult, true_label: int | None = None) -> None:
        self.queries += 1
        self.comparisons += result.comparisons
        self.early_exits += int(result.early_exit)
        self.labels.append(result.label)
        if true_label is not None and result.label == int(true_label):
            self.correct += 1

    def record_batch(
        self, results: BatchSearchResult, true_labels: np.ndarray | None = None
    ) -> None:
        """Fold a whole stacked batch into the counters at once."""
        self.queries += len(results)
        self.comparisons += int(results.comparisons.sum())
        self.early_exits += int(results.early_exits.sum())
        self.labels.extend(int(label) for label in results.labels)
        if true_labels is not None:
            self.correct += int(
                (results.labels == np.asarray(true_labels)).sum()
            )

    @property
    def mean_comparisons(self) -> float:
        return self.comparisons / self.queries if self.queries else 0.0

    @property
    def accuracy(self) -> float:
        return self.correct / self.queries if self.queries else 0.0

    @property
    def early_exit_rate(self) -> float:
        return self.early_exits / self.queries if self.queries else 0.0
