"""Inference thresholding — the paper's Algorithm 1.

Step 1  estimate per-index logit distributions on correctly classified
        training examples (histogram HG_i for "i was the argmax",
        HG_ibar for "i was not").
Step 2  turn them into thresholds: theta_i is the smallest logit whose
        Bayes posterior p(y=i | z_i) reaches the thresholding constant
        rho.
Step 3  order indices by descending silhouette coefficient.
Step 4  at inference, scan indices in that order and return index a as
        soon as z_a > theta_a; fall back to the exact argmax when no
        logit clears its threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mips.backend import as_query_matrix, ordered_scan, register_backend
from repro.mips.histograms import GaussianKde, LogitHistogram
from repro.mips.ordering import index_order_by_silhouette, silhouette_coefficient
from repro.mips.stats import BatchSearchResult, SearchResult


@dataclass
class ThresholdModel:
    """Fitted Step 1-3 state, independent of the rho used at inference.

    ``thresholds(rho)`` materialises Step 2 for a given rho so one fit
    can serve the whole Fig. 3 sweep.

    Densities default to the cheap fixed-bin histograms (``HG_i`` in
    Algorithm 1); when fitted with ``density="kde"`` the posteriors use
    Gaussian kernel density estimates instead — the estimator the paper
    names for ``p(z_i | y = i)`` — at higher fitting cost.
    """

    n_indices: int
    positive_hists: dict[int, LogitHistogram]
    negative_hists: dict[int, LogitHistogram]
    priors: np.ndarray  # p(y = i) on the training set
    silhouettes: np.ndarray
    order: np.ndarray  # descending silhouette (Step 3)
    positive_kdes: dict[int, GaussianKde] | None = None
    negative_kdes: dict[int, GaussianKde] | None = None

    @property
    def uses_kde(self) -> bool:
        return self.positive_kdes is not None

    def _densities(self, index: int, value: float) -> tuple[float, float]:
        if self.uses_kde:
            pos = self.positive_kdes.get(index)
            neg = (self.negative_kdes or {}).get(index)
            like_pos = float(pos.pdf(value)) if pos is not None else 0.0
            like_neg = float(neg.pdf(value)) if neg is not None else 0.0
            return like_pos, like_neg
        pos = self.positive_hists.get(index)
        neg = self.negative_hists.get(index)
        like_pos = pos.pdf(value) if pos is not None and pos.total else 0.0
        like_neg = neg.pdf(value) if neg is not None and neg.total else 0.0
        return like_pos, like_neg

    def posterior(self, index: int, value: float) -> float:
        """p(y = i | z_i = value) via Bayes over the two densities."""
        if index not in self.positive_hists or not self.positive_hists[index].total:
            return 0.0
        prior = float(self.priors[index])
        like_pos, like_neg = self._densities(index, value)
        like_pos *= prior
        like_neg *= 1.0 - prior
        denom = like_pos + like_neg
        return like_pos / denom if denom > 0 else 0.0

    def thresholds(self, rho: float) -> np.ndarray:
        """Step 2: theta_i = min{ z : p(y=i|z) >= rho } per index.

        Indices with no positive training mass get +inf (never
        speculated). rho may be 1.0: bins where the negative histogram
        has zero density then define the threshold.
        """
        if not 0.0 < rho <= 1.0:
            raise ValueError(f"rho must be in (0, 1], got {rho}")
        theta = np.full(self.n_indices, np.inf)
        for index, pos in self.positive_hists.items():
            if pos.total == 0:
                continue
            centers = pos.bin_centers()
            candidates = [
                center
                for center, count in zip(centers, pos.counts)
                if count > 0 and self.posterior(index, float(center)) >= rho
            ]
            if candidates:
                theta[index] = float(min(candidates))
        return theta


def fit_threshold_model(
    logits: np.ndarray,
    labels: np.ndarray,
    n_bins: int = 64,
    range_padding: float = 0.1,
    density: str = "histogram",
) -> ThresholdModel:
    """Step 1 + Step 3 of Algorithm 1 from training-set logits.

    ``logits`` is (N, I) from forward passes of the trained model M on
    the training data; ``labels`` the true training labels. Only
    correctly predicted examples update the statistics, exactly as in
    Algorithm 1. ``density`` selects the estimator for the posteriors:
    ``"histogram"`` (cheap, Algorithm 1's HG_i) or ``"kde"`` (Gaussian
    kernels, the estimator the paper names for p(z_i|y=i)).
    """
    if density not in ("histogram", "kde"):
        raise ValueError(f"unknown density estimator {density!r}")
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError("logits must be (N, I)")
    if len(labels) != len(logits):
        raise ValueError("labels and logits must have the same length")
    n, n_indices = logits.shape
    if labels.size and (labels.min() < 0 or labels.max() >= n_indices):
        raise ValueError(f"labels must lie in [0, {n_indices})")

    low = float(logits.min())
    high = float(logits.max())
    pad = (high - low) * range_padding + 1e-9
    low, high = low - pad, high + pad

    positive_hists: dict[int, LogitHistogram] = {}
    negative_hists: dict[int, LogitHistogram] = {}
    positive_samples: dict[int, np.ndarray] = {}
    negative_samples: dict[int, np.ndarray] = {}
    prior_counts = np.bincount(labels, minlength=n_indices).astype(np.float64)

    # Algorithm 1 only learns from correct predictions. The statistics
    # are split per index with boolean masks over the whole (batched)
    # logit matrix rather than a per-row Python loop.
    correct = logits.argmax(axis=1) == labels
    correct_logits = logits[correct]
    correct_labels = labels[correct]
    for index in range(n_indices):
        column = correct_logits[:, index]
        is_positive = correct_labels == index
        positives = column[is_positive]
        negatives = column[~is_positive]
        if positives.size:
            hist = LogitHistogram(low, high, n_bins)
            hist.update_many(positives)
            positive_hists[index] = hist
            positive_samples[index] = positives
        if negatives.size:
            hist = LogitHistogram(low, high, n_bins)
            hist.update_many(negatives)
            negative_hists[index] = hist
            negative_samples[index] = negatives

    priors = prior_counts / max(n, 1)
    silhouettes = np.zeros(n_indices)
    empty = np.empty(0)
    for index in range(n_indices):
        silhouettes[index] = silhouette_coefficient(
            positive_samples.get(index, empty),
            negative_samples.get(index, empty),
        )
    order = index_order_by_silhouette(silhouettes)

    positive_kdes = negative_kdes = None
    if density == "kde":
        positive_kdes = {
            index: GaussianKde(samples)
            for index, samples in positive_samples.items()
        }
        negative_kdes = {
            index: GaussianKde(samples)
            for index, samples in negative_samples.items()
        }
    return ThresholdModel(
        n_indices=n_indices,
        positive_hists=positive_hists,
        negative_hists=negative_hists,
        priors=priors,
        silhouettes=silhouettes,
        order=order,
        positive_kdes=positive_kdes,
        negative_kdes=negative_kdes,
    )


@register_backend("threshold", "ith", "inference_thresholding")
class InferenceThresholding:
    """Step 4 of Algorithm 1: the speculative sequential search engine.

    The batched kernel evaluates all logits of the batch in one matmul
    (in visit order), then recovers the sequential semantics exactly:
    the first index whose logit clears its threshold wins with
    ``comparisons`` equal to its 1-based position, and rows with no
    clearing logit fall back to the full-scan argmax — identical
    labels, comparison counts and early-exit flags to the per-query
    scan, which is what the OUTPUT module's cycle model charges for.
    """

    #: Documented agreement with the exact argmax at rho = 1.0 on a
    #: trained model (paper: < 0.1 % accuracy loss; Fig. 3).
    min_recall = 0.95

    #: Consumers must supply a fitted ThresholdModel at build time.
    requires_threshold_model = True

    #: The scan order may be partitioned across vocab shards: each
    #: shard reports its first clearing position and the merge takes
    #: the earliest in global scan order, reproducing Step 4 exactly
    #: (see repro.mips.sharding). The shards snapshot ``theta`` at
    #: build time, unlike this class's per-call lookup.
    vocab_shardable = True

    def __init__(
        self,
        weight: np.ndarray,
        model: ThresholdModel,
        rho: float = 1.0,
        use_index_ordering: bool = True,
    ):
        self.weight = np.asarray(weight, dtype=np.float64)
        if self.weight.shape[0] != model.n_indices:
            raise ValueError(
                f"weight has {self.weight.shape[0]} rows, threshold model "
                f"covers {model.n_indices} indices"
            )
        self.model = model
        self.rho = float(rho)
        self.use_index_ordering = bool(use_index_ordering)
        self.theta = model.thresholds(rho)
        self.order = (
            model.order.copy()
            if use_index_ordering
            else np.arange(model.n_indices)
        )
        self._ordered_weight = self.weight[self.order]

    @classmethod
    def build(
        cls,
        weight: np.ndarray,
        order: np.ndarray | None = None,
        *,
        threshold_model: ThresholdModel | None = None,
        rho: float = 1.0,
        index_ordering: bool = True,
        seed: int = 0,
    ) -> "InferenceThresholding":
        """Registry hook; the visit order comes from the fitted model."""
        if threshold_model is None:
            raise ValueError(
                "the 'threshold' backend requires a fitted ThresholdModel"
            )
        return cls(weight, threshold_model, rho=rho, use_index_ordering=index_ordering)

    @property
    def num_indices(self) -> int:
        return self.weight.shape[0]

    def search(self, query: np.ndarray) -> SearchResult:
        """Visit indices in order; exit early once z_a > theta_a."""
        return self.search_batch(np.asarray(query, dtype=np.float64)).result(0)

    def search_batch(self, queries: np.ndarray) -> BatchSearchResult:
        """Batched Step 4: all visit-order logits in one kernel call."""
        # theta is looked up per call (not precomputed in visit order)
        # so callers may retune ``self.theta`` between searches.
        return ordered_scan(
            as_query_matrix(queries),
            self._ordered_weight,
            self.order,
            self.theta[self.order],
        )
