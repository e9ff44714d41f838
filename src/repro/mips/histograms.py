"""Kernel density estimation of per-index logit values (Step 1 of
Algorithm 1).

:class:`GaussianKde` — a Gaussian kernel with Silverman bandwidth, the
estimator the paper names for ``p(z_i | y = i)``. The cheap fixed-bin
histograms an embedded host computes (``HG_i`` / ``HG_ibar``) are the
count matrices of :class:`~repro.mips.thresholding.ThresholdModel`.
"""

from __future__ import annotations

import numpy as np


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
