"""Maximum inner-product search (MIPS) backends for the output layer.

The OUTPUT module computes logits ``z_i = W_o[i] . h`` sequentially and
returns the argmax (Eq. 6). This package provides that search as a
pluggable, string-keyed *backend* layer (:mod:`repro.mips.backend`):

* ``"exact"`` — :class:`ExactMips`, the conventional full sequential
  search (Fig. 2a), counting every dot product and comparison.
* ``"threshold"`` — :class:`InferenceThresholding`, the paper's
  data-based speculative MIPS (Algorithm 1, Fig. 2b): per-index logit
  distributions estimated on the training set, Bayes-posterior
  thresholds, and an efficient visiting order by silhouette coefficient.
* ``"alsh"`` / ``"clustering"`` — related-work baselines: asymmetric
  LSH (Shrivastava & Li 2014) and spherical k-means clustering MIPS
  (Auvolat et al. 2015).

Every backend implements ``search(query) -> SearchResult`` and a
vectorized ``search_batch(queries) -> BatchSearchResult`` (stacked
labels/logits/comparisons/early-exit arrays), and is constructed via
``get_backend(name).build(weight, order=None, **context)``.
"""

from repro.mips.backend import (
    MipsBackend,
    available_backends,
    build_backend,
    get_backend,
    inner_products,
    register_backend,
)
from repro.mips.exact import ExactMips
from repro.mips.histograms import GaussianKde, LogitHistogram
from repro.mips.lsh import AlshMips
from repro.mips.clustering import ClusteringMips
from repro.mips.ordering import index_order_by_silhouette, silhouette_coefficient
from repro.mips.stats import BatchSearchResult, SearchResult, SearchStats
from repro.mips.thresholding import InferenceThresholding, ThresholdModel, fit_threshold_model

__all__ = [
    "MipsBackend",
    "available_backends",
    "build_backend",
    "get_backend",
    "inner_products",
    "register_backend",
    "ExactMips",
    "LogitHistogram",
    "GaussianKde",
    "AlshMips",
    "ClusteringMips",
    "silhouette_coefficient",
    "index_order_by_silhouette",
    "BatchSearchResult",
    "SearchResult",
    "SearchStats",
    "InferenceThresholding",
    "ThresholdModel",
    "fit_threshold_model",
]
