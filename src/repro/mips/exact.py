"""Conventional full sequential MIPS (Fig. 2a)."""

from __future__ import annotations

import numpy as np

from repro.mips.backend import (
    as_query_matrix,
    inner_products,
    ordered_scan,
    register_backend,
)
from repro.mips.stats import BatchSearchResult, SearchResult


@register_backend("exact", "full", "brute")
class ExactMips:
    """Scan over every output row — the baseline the OUTPUT module
    implements without inference thresholding.

    The scan order is configurable so the hardware simulator can reuse
    this engine with the silhouette ordering while remaining exact. The
    scan itself is vectorized (one matvec/matmul plus an argmax in scan
    order) but reports the same result and the same ``comparisons``
    count as the sequential reference loop: ties on the maximum logit
    resolve to the first index in ``order``, because the running-maximum
    comparator uses a strict ``>``.
    """

    #: Documented agreement with the brute-force argmax (this IS it).
    min_recall = 1.0

    def __init__(self, weight: np.ndarray, order: np.ndarray | None = None):
        self.weight = np.asarray(weight, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ValueError("weight must be (num_indices, dim)")
        if order is None:
            order = np.arange(self.weight.shape[0])
        self.order = np.asarray(order, dtype=np.int64)
        if sorted(self.order.tolist()) != list(range(self.weight.shape[0])):
            raise ValueError("order must be a permutation of all indices")
        # Rows pre-gathered into scan order: the whole search is then
        # one contiguous matvec + first-occurrence argmax.
        self._ordered_weight = self.weight[self.order]

    @classmethod
    def build(
        cls,
        weight: np.ndarray,
        order: np.ndarray | None = None,
        *,
        threshold_model=None,
        rho: float = 1.0,
        index_ordering: bool = True,
        seed: int = 0,
    ) -> "ExactMips":
        """Registry hook; the thresholding context is accepted unused."""
        return cls(weight, order)

    @property
    def num_indices(self) -> int:
        return self.weight.shape[0]

    def search(self, query: np.ndarray) -> SearchResult:
        """Scan all indices; returns the exact argmax."""
        logits = inner_products(as_query_matrix(query), self._ordered_weight)[0]
        pos = int(np.argmax(logits))  # first max in scan order wins ties
        return SearchResult(int(self.order[pos]), float(logits[pos]), logits.shape[0])

    def _search_loop(self, query: np.ndarray) -> SearchResult:
        """Seed per-row reference loop, kept to pin the vectorized scan
        (tie-breaking and comparison count) in regression tests."""
        query = np.asarray(query, dtype=np.float64)
        best_index = -1
        best_logit = -np.inf
        comparisons = 0
        for index in self.order:
            logit = float(self.weight[index] @ query)
            comparisons += 1
            if logit > best_logit:
                best_logit = logit
                best_index = int(index)
        return SearchResult(best_index, best_logit, comparisons)

    def search_batch(self, queries: np.ndarray) -> BatchSearchResult:
        """Whole-batch exact scan: one (B, V) logit matrix + row argmax."""
        return ordered_scan(as_query_matrix(queries), self._ordered_weight, self.order)
