"""Tests for the histogram and KDE density estimators."""

import numpy as np
import pytest

from repro.mips import GaussianKde, fit_threshold_model


class TestHistogramCounts:
    """Step 1's histograms HG_i / HG_ibar: two count matrices over one
    shared set of bin edges in a fitted ThresholdModel."""

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError, match="invalid histogram range"):
            fit_threshold_model(np.array([[0.0, np.inf]]), np.array([1]))
        # A constant far from 0: the 1e-9 padding vanishes in rounding.
        with pytest.raises(ValueError, match="invalid histogram range"):
            fit_threshold_model(np.full((2, 2), 1e10), np.array([0, 0]))

    def test_min_bins(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match="at least 2 bins"):
            fit_threshold_model(logits, np.array([0, 1]), n_bins=1)
        tm = fit_threshold_model(logits, np.array([0, 1]), n_bins=2)
        assert tm.edges.shape == (3,)

    def test_counts_and_totals(self):
        # Range [0, 10] padded by 1e-9: bin k of 10 holds [k, k + 1).
        logits = np.array([[10.0, 2.5], [2.6, 0.0], [9.9, 0.0]])
        labels = np.array([0, 0, 0])
        tm = fit_threshold_model(logits, labels, n_bins=10, range_padding=0.0)
        assert tm.positive_counts.shape == tm.negative_counts.shape == (2, 10)
        assert tm.positive_counts.dtype == np.int64
        assert tm.positive_counts[0].tolist() == [0, 0, 1, 0, 0, 0, 0, 0, 0, 2]
        assert tm.negative_counts[1].tolist() == [2, 0, 1, 0, 0, 0, 0, 0, 0, 0]
        assert not tm.positive_counts[1].any() and not tm.negative_counts[0].any()

    def test_out_of_range_clamped_to_edges(self):
        # Negative padding shrinks [-1, 10] to [2.3, 6.7]: values outside
        # it land in the edge bins and no mass is lost.
        logits = np.array([[0.0, -1.0], [10.0, -1.0], [5.0, -1.0]])
        labels = np.array([0, 0, 0])
        tm = fit_threshold_model(logits, labels, n_bins=4, range_padding=-0.3)
        assert tm.edges[0] > 0.0 and tm.edges[-1] < 10.0
        assert tm.positive_counts[0].tolist() == [1, 0, 1, 1]
        assert tm.negative_counts[1].tolist() == [3, 0, 0, 0]
        # The density lookup clamps the same way.
        centers = tm.bin_centers()
        assert tm.posterior(0, -100.0) == tm.posterior(0, float(centers[0]))
        assert tm.posterior(0, 100.0) == tm.posterior(0, float(centers[-1]))

    def test_centres_look_up_their_own_bins(self, rng):
        logits = rng.normal(size=(300, 3))
        tm = fit_threshold_model(logits, logits.argmax(axis=1), n_bins=16)
        like_pos, like_neg = tm._likelihoods(np.arange(3), tm.bin_centers())
        width = tm.edges[1] - tm.edges[0]
        pairs = ((tm.positive_counts, like_pos), (tm.negative_counts, like_neg))
        for counts, pdf in pairs:
            expected = counts / (counts.sum(axis=1, keepdims=True) * width)
            assert np.array_equal(pdf, expected)

    def test_density_integrates_to_one(self, rng):
        logits = rng.normal(size=(500, 2))
        tm = fit_threshold_model(logits, logits.argmax(axis=1), n_bins=32)
        width = tm.edges[1] - tm.edges[0]
        for pdf in tm._likelihoods(np.arange(2), tm.bin_centers()):
            assert np.allclose(pdf.sum(axis=1) * width, 1.0)

    def test_empty_density_is_zero(self):
        # Index 1 is never a label: its positive row is empty.
        tm = fit_threshold_model(np.array([[5.0, 0.0]]), np.array([0]))
        assert not tm.positive_counts[1].any()
        values = np.linspace(-1.0, 6.0, 9)
        like_pos, _ = tm._likelihoods(np.array([1]), values)
        assert not like_pos.any()
        assert tm.posterior(1, 0.0) == 0.0
        assert tm.thresholds(1.0)[1] == np.inf


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
