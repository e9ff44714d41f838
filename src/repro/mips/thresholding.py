"""Inference thresholding — the paper's Algorithm 1.

Step 1  estimate per-index logit distributions on correctly classified
        training examples: histogram HG_i of z_i where i was the
        argmax, HG_ibar where it was not. Every histogram shares one
        set of bin edges, so the two families are two
        (n_indices, n_bins) count matrices, filled by one
        ``bincount`` each.
Step 2  turn them into thresholds: theta_i is the smallest bin centre
        with positive mass whose Bayes posterior p(y=i | z_i) reaches
        the thresholding constant rho, evaluated for every (index, bin
        centre) pair at once.
Step 3  order indices by descending silhouette coefficient.
Step 4  at inference, scan indices in that order and return index a as
        soon as z_a > theta_a; fall back to the exact argmax when no
        logit clears its threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mips.backend import as_query_matrix, ordered_scan, register_backend
from repro.mips.histograms import GaussianKde
from repro.mips.ordering import index_order_by_silhouette, silhouette_coefficient
from repro.mips.stats import BatchSearchResult, SearchResult


@dataclass
class ThresholdModel:
    """Fitted Step 1-3 state, independent of the rho used at inference.

    ``thresholds(rho)`` materialises Step 2 for a given rho so one fit
    can serve the whole Fig. 3 sweep.

    Row i of ``positive_counts`` is HG_i and row i of
    ``negative_counts`` is HG_ibar, both over the shared ``edges``; an
    index with no sample of a sign has an all-zero row, which has
    density 0 everywhere. Densities default to these cheap fixed-bin
    histograms; when fitted with ``density="kde"`` the posteriors use
    Gaussian kernel density estimates instead — the estimator the paper
    names for ``p(z_i | y = i)`` — at higher fitting cost, and the
    histograms only say which bin centres are candidates.
    """

    edges: np.ndarray  # (n_bins + 1,), shared by every index
    positive_counts: np.ndarray  # (n_indices, n_bins) int64, HG_i
    negative_counts: np.ndarray  # (n_indices, n_bins) int64, HG_ibar
    priors: np.ndarray  # p(y = i) on the training set
    silhouettes: np.ndarray
    order: np.ndarray  # descending silhouette (Step 3)
    positive_kdes: dict[int, GaussianKde] | None = None
    negative_kdes: dict[int, GaussianKde] | None = None

    @property
    def n_indices(self) -> int:
        return len(self.positive_counts)

    @property
    def uses_kde(self) -> bool:
        return self.positive_kdes is not None

    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def _likelihoods(self, indices: np.ndarray, values: np.ndarray):
        """p(z_i = v | y = i) and p(z_i = v | y != i), each with a row per
        index i in ``indices`` and a column per value v in ``values``."""
        if self.uses_kde:
            return (
                _kde_pdfs(self.positive_kdes, indices, values),
                _kde_pdfs(self.negative_kdes or {}, indices, values),
            )
        n_bins = len(self.edges) - 1
        bins = np.searchsorted(self.edges, values, side="right") - 1
        np.clip(bins, 0, n_bins - 1, out=bins)
        width = self.edges[1] - self.edges[0]
        return (
            _histogram_pdfs(self.positive_counts[indices], bins, width),
            _histogram_pdfs(self.negative_counts[indices], bins, width),
        )

    def _posteriors(self, indices: np.ndarray, values: np.ndarray) -> np.ndarray:
        """p(y = i | z_i = v) via Bayes over the two densities, for every
        index i in ``indices`` (rows) and value v in ``values`` (columns);
        0 where both densities vanish."""
        like_pos, like_neg = self._likelihoods(indices, values)
        prior = self.priors[indices, None]
        like_pos = like_pos * prior
        like_neg = like_neg * (1.0 - prior)
        denom = like_pos + like_neg
        posterior = np.zeros_like(denom)
        np.divide(like_pos, denom, out=posterior, where=denom > 0)
        return posterior

    def posterior(self, index: int, value: float) -> float:
        """p(y = i | z_i = value) via Bayes over the two densities."""
        posterior = self._posteriors(np.array([index]), np.array([float(value)]))
        return float(posterior[0, 0])

    def thresholds(self, rho: float) -> np.ndarray:
        """Step 2: theta_i = min{ z : p(y=i|z) >= rho } per index.

        The candidates are the bin centres where HG_i has mass. Indices
        with no positive training mass get +inf (never speculated). rho
        may be 1.0: bins where the negative density is zero then define
        the threshold.
        """
        if not 0.0 < rho <= 1.0:
            raise ValueError(f"rho must be in (0, 1], got {rho}")
        rows = np.flatnonzero(self.positive_counts.any(axis=1))
        centers = self.bin_centers()
        passes = (self.positive_counts[rows] > 0) & (
            self._posteriors(rows, centers) >= rho
        )
        theta = np.full(self.n_indices, np.inf)
        theta[rows] = np.where(
            passes.any(axis=1), centers[passes.argmax(axis=1)], np.inf
        )
        return theta


def _histogram_pdfs(counts: np.ndarray, bins: np.ndarray, width: float) -> np.ndarray:
    """Each count row's density at ``bins``; 0 for an empty row."""
    total = counts.sum(axis=1, keepdims=True)
    pdf = np.zeros((len(counts), len(bins)))
    np.divide(counts[:, bins], total * width, out=pdf, where=total > 0)
    return pdf


def _kde_pdfs(
    kdes: dict[int, GaussianKde], indices: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Each index's KDE density at ``values``, one call per KDE; 0 for an
    index without one."""
    pdf = np.zeros((len(indices), len(values)))
    for row, index in enumerate(indices.tolist()):
        if index in kdes:
            pdf[row] = kdes[index].pdf(values)
    return pdf


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
    if not np.isfinite(low) or not np.isfinite(high) or low >= high:
        raise ValueError(f"invalid histogram range [{low}, {high}]")
    if n_bins < 2:
        raise ValueError("need at least 2 bins")
    edges = np.linspace(low, high, n_bins + 1)

    # Algorithm 1 only learns from correct predictions. Every correct
    # logit z_i falls in one cell (i, bin) of its sign's count matrix;
    # values outside the range land in the edge bins.
    correct = logits.argmax(axis=1) == labels
    correct_logits = logits[correct]
    correct_labels = labels[correct]
    is_positive = correct_labels[:, None] == np.arange(n_indices)
    bins = np.searchsorted(edges, correct_logits, side="right") - 1
    np.clip(bins, 0, n_bins - 1, out=bins)
    cells = bins + np.arange(n_indices) * n_bins
    size = n_indices * n_bins
    positive_counts, negative_counts = (
        np.bincount(cells[mask], minlength=size).reshape(n_indices, n_bins)
        for mask in (is_positive, ~is_positive)
    )

    priors = np.bincount(labels, minlength=n_indices).astype(np.float64) / max(n, 1)
    silhouettes = np.zeros(n_indices)
    positive_kdes = negative_kdes = None
    if density == "kde":
        positive_kdes, negative_kdes = {}, {}
    for index in range(n_indices):
        column = correct_logits[:, index]
        positives = column[is_positive[:, index]]
        negatives = column[~is_positive[:, index]]
        silhouettes[index] = silhouette_coefficient(positives, negatives)
        if density == "kde":
            if positives.size:
                positive_kdes[index] = GaussianKde(positives)
            if negatives.size:
                negative_kdes[index] = GaussianKde(negatives)
    order = index_order_by_silhouette(silhouettes)
    return ThresholdModel(
        edges=edges,
        positive_counts=positive_counts,
        negative_counts=negative_counts,
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
