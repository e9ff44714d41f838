"""Density estimation of per-index logit values (Step 1 of Algorithm 1).

Two estimators are provided:

* :class:`LogitHistogram` — fixed-bin histogram, the cheap estimator an
  embedded host can compute (``HG_i`` / ``HG_ibar`` in Algorithm 1).
* :class:`GaussianKde` — kernel density estimation with a Gaussian
  kernel and Silverman bandwidth, the estimator the paper names for
  ``p(z_i | y = i)``.
"""

from __future__ import annotations

import numpy as np


class LogitHistogram:
    """Streaming 1-D histogram with fixed bin edges.

    Edges are set once from an expected value range; samples outside the
    range fall into the edge bins so no mass is lost.
    """

    def __init__(self, low: float, high: float, n_bins: int = 64):
        if not np.isfinite(low) or not np.isfinite(high) or low >= high:
            raise ValueError(f"invalid histogram range [{low}, {high}]")
        if n_bins < 2:
            raise ValueError("need at least 2 bins")
        self.edges = np.linspace(low, high, n_bins + 1)
        self.counts = np.zeros(n_bins, dtype=np.int64)

    @classmethod
    def from_arrays(cls, edges: np.ndarray, counts: np.ndarray) -> "LogitHistogram":
        """A histogram holding copies of stored ``edges`` (n_bins + 1)
        and ``counts`` (n_bins) verbatim: re-deriving the edges with
        ``linspace`` could differ in the last ulp."""
        edges = np.array(edges, dtype=np.float64)
        counts = np.array(counts, dtype=np.int64)
        if edges.ndim != 1 or counts.shape != (len(edges) - 1,) or len(counts) < 2:
            raise ValueError(
                f"histogram arrays of shapes {edges.shape} (edges) and "
                f"{counts.shape} (counts): need n_bins + 1 and n_bins, n_bins >= 2"
            )
        hist = cls.__new__(cls)
        hist.edges = edges
        hist.counts = counts
        return hist

    @property
    def n_bins(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def bin_index(self, value: float) -> int:
        idx = int(np.searchsorted(self.edges, value, side="right")) - 1
        return min(max(idx, 0), self.n_bins - 1)

    def update(self, value: float) -> None:
        self.counts[self.bin_index(value)] += 1

    def update_many(self, values: np.ndarray) -> None:
        """Vectorised bulk update; equivalent to ``update`` per value."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        idx = np.searchsorted(self.edges, values, side="right") - 1
        np.clip(idx, 0, self.n_bins - 1, out=idx)
        self.counts += np.bincount(idx, minlength=self.n_bins)

    def pdf(self, value: float) -> float:
        """Density estimate at ``value`` (0 when the histogram is empty)."""
        if self.total == 0:
            return 0.0
        width = self.edges[1] - self.edges[0]
        return self.counts[self.bin_index(value)] / (self.total * width)

    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def mean(self) -> float:
        if self.total == 0:
            return float("nan")
        return float((self.bin_centers() * self.counts).sum() / self.total)


class GaussianKde:
    """Gaussian kernel density estimate with Silverman's bandwidth."""

    def __init__(self, samples: np.ndarray, bandwidth: float | None = None):
        samples = np.asarray(samples, dtype=np.float64).ravel()
        if samples.size == 0:
            raise ValueError("KDE needs at least one sample")
        self.samples = samples
        if bandwidth is None:
            std = float(samples.std())
            n = samples.size
            # Silverman's rule; fall back to a fixed width for degenerate data.
            bandwidth = 1.06 * std * n ** (-1 / 5) if std > 0 else 0.1
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = float(bandwidth)

    def pdf(self, value: float | np.ndarray) -> np.ndarray | float:
        value = np.asarray(value, dtype=np.float64)
        scalar = value.ndim == 0
        grid = np.atleast_1d(value)
        z = (grid[:, None] - self.samples[None, :]) / self.bandwidth
        dens = np.exp(-0.5 * z**2).sum(axis=1)
        dens /= self.samples.size * self.bandwidth * np.sqrt(2 * np.pi)
        return float(dens[0]) if scalar else dens
