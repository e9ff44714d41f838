"""Tests for histogram and KDE density estimators."""

import numpy as np
import pytest

from repro.mips import GaussianKde, LogitHistogram


class TestLogitHistogram:
    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            LogitHistogram(1.0, 1.0)
        with pytest.raises(ValueError):
            LogitHistogram(0.0, float("inf"))

    def test_min_bins(self):
        with pytest.raises(ValueError):
            LogitHistogram(0.0, 1.0, n_bins=1)

    def test_update_and_total(self):
        h = LogitHistogram(0.0, 10.0, n_bins=10)
        h.update(2.5)
        h.update(2.6)
        h.update(9.9)
        assert h.total == 3
        assert h.counts[2] == 2

    def test_out_of_range_clamped_to_edges(self):
        h = LogitHistogram(0.0, 1.0, n_bins=4)
        h.update(-5.0)
        h.update(5.0)
        assert h.counts[0] == 1
        assert h.counts[-1] == 1
        assert h.total == 2

    def test_pdf_integrates_to_one(self, rng):
        h = LogitHistogram(-4.0, 4.0, n_bins=32)
        h.update_many(rng.normal(size=500))
        width = h.edges[1] - h.edges[0]
        mass = sum(h.pdf(c) * width for c in h.bin_centers())
        assert np.isclose(mass, 1.0)

    def test_pdf_empty_is_zero(self):
        assert LogitHistogram(0.0, 1.0).pdf(0.5) == 0.0

    def test_mean_estimate(self, rng):
        h = LogitHistogram(-6.0, 6.0, n_bins=64)
        h.update_many(rng.normal(loc=1.5, size=2000))
        assert abs(h.mean() - 1.5) < 0.15

    def test_mean_empty_is_nan(self):
        assert np.isnan(LogitHistogram(0.0, 1.0).mean())

    def test_bin_index_monotone(self):
        h = LogitHistogram(0.0, 1.0, n_bins=10)
        idx = [h.bin_index(v) for v in np.linspace(0.01, 0.99, 20)]
        assert idx == sorted(idx)

    def test_from_arrays_restores_verbatim_copies(self, rng):
        h = LogitHistogram(-3.0, 2.0, n_bins=8)
        h.update_many(rng.normal(size=100))
        restored = LogitHistogram.from_arrays(h.edges, h.counts)
        assert restored.edges.tobytes() == h.edges.tobytes()
        assert restored.counts.tobytes() == h.counts.tobytes()
        assert restored.edges is not h.edges and restored.counts is not h.counts
        assert restored.pdf(0.5) == h.pdf(0.5)

    def test_from_arrays_checks_shapes(self):
        with pytest.raises(ValueError):
            LogitHistogram.from_arrays(np.linspace(0, 1, 5), np.zeros(5))
        with pytest.raises(ValueError):
            LogitHistogram.from_arrays(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            LogitHistogram.from_arrays(np.linspace(0, 1, 2), np.zeros(1))


class TestGaussianKde:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GaussianKde(np.array([]))

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            GaussianKde(np.array([1.0]), bandwidth=-1.0)

    def test_pdf_peaks_at_data(self, rng):
        samples = rng.normal(size=400)
        kde = GaussianKde(samples)
        assert kde.pdf(0.0) > kde.pdf(4.0)

    def test_pdf_integrates_to_one(self, rng):
        kde = GaussianKde(rng.normal(size=200))
        grid = np.linspace(-8, 8, 2001)
        mass = np.trapezoid(kde.pdf(grid), grid)
        assert np.isclose(mass, 1.0, atol=1e-3)

    def test_scalar_and_vector_modes(self):
        kde = GaussianKde(np.array([0.0, 1.0]))
        scalar = kde.pdf(0.5)
        vector = kde.pdf(np.array([0.5]))
        assert isinstance(scalar, float)
        assert np.isclose(vector[0], scalar)

    def test_degenerate_data_fallback_bandwidth(self):
        kde = GaussianKde(np.array([2.0, 2.0, 2.0]))
        assert kde.bandwidth > 0
        assert kde.pdf(2.0) > kde.pdf(3.0)
