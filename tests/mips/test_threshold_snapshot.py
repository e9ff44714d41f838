"""Threshold bits: Algorithm 1's fitted state and its thresholds are
pinned **by bits** in a committed .npz, so a change to Step 1, Step 2 or
the artifact codec that moves one count, edge, sample or theta fails
here.

The fixture holds one fixed-seed set of logits and labels, the arrays
``encode_threshold_model`` wrote for a histogram fit and a KDE fit of
them, and theta at every rho in ``RHOS`` for both fits. It was written
while the model still kept one histogram object per index, so it also
pins the array model to that object model's bits.

``reference_thresholds`` is that object model's Step 2: a scalar Bayes
posterior at each bin centre with positive mass, one at a time. A
property test checks that the vectorised Step 2 equals it bit for bit.

Regenerate (only after an intentional numerical change) with:

    PYTHONPATH=src python tests/mips/test_threshold_snapshot.py
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifacts import decode_threshold_model, encode_threshold_model
from repro.mips import fit_threshold_model

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "threshold_snapshot.npz"
RHOS = (1.0, 0.99, 0.95, 0.9)
DENSITIES = ("histogram", "kde")


def make_inputs() -> tuple[np.ndarray, np.ndarray]:
    """Logits where most rows are right, some wrong, and four indices
    (the pad token 0 and the last three) are never a label. Enough rows
    that some histogram bins hold both signs, so theta moves with rho;
    values on a 1/32 grid keep the compressed fixture small."""
    rng = np.random.default_rng(28)
    n, n_indices = 1600, 10
    classes = np.arange(1, n_indices - 3)
    weights = 1.0 / np.arange(1, classes.size + 1)
    labels = rng.choice(classes, size=n, p=weights / weights.sum())
    logits = rng.normal(size=(n, n_indices))
    logits[np.arange(n), labels] += rng.uniform(0.5, 4.0, size=n)
    return np.round(logits * 32) / 32, labels


def compute_snapshot() -> dict[str, np.ndarray]:
    logits, labels = make_inputs()
    arrays = {"logits": logits, "labels": labels}
    for density in DENSITIES:
        model = fit_threshold_model(logits, labels, density=density)
        for key, value in encode_threshold_model(model).items():
            arrays[f"{density}.{key}"] = np.asarray(value)
        arrays[f"{density}.theta"] = np.stack([model.thresholds(rho) for rho in RHOS])
    return arrays


@pytest.fixture(scope="module")
def snapshot():
    if not FIXTURE.exists():
        pytest.fail(
            f"missing fixture {FIXTURE}; regenerate with "
            "`PYTHONPATH=src python tests/mips/test_threshold_snapshot.py`"
        )
    with np.load(FIXTURE) as data:
        return {key: data[key] for key in data.files}


def _encoded(snapshot, density: str) -> dict[str, np.ndarray]:
    prefix = f"{density}."
    return {
        key[len(prefix):]: value
        for key, value in snapshot.items()
        if key.startswith(prefix) and key != f"{density}.theta"
    }


def _assert_theta_matches(model, snapshot, density: str) -> None:
    for row, rho in enumerate(RHOS):
        expected = snapshot[f"{density}.theta"][row]
        assert model.thresholds(rho).tobytes() == expected.tobytes(), (
            f"{density} theta at rho={rho} moved from the snapshot"
        )


@pytest.mark.parametrize("density", DENSITIES)
def test_decoded_model_reproduces_stored_thresholds(snapshot, density):
    model = decode_threshold_model(_encoded(snapshot, density))
    assert model.uses_kde == (density == "kde")
    _assert_theta_matches(model, snapshot, density)


@pytest.mark.parametrize("density", DENSITIES)
def test_fresh_fit_encodes_to_stored_arrays(snapshot, density):
    model = fit_threshold_model(snapshot["logits"], snapshot["labels"], density=density)
    encoded = {
        key: np.asarray(value) for key, value in encode_threshold_model(model).items()
    }
    expected = _encoded(snapshot, density)
    assert set(encoded) == set(expected)
    for key, value in expected.items():
        assert encoded[key].dtype == value.dtype, key
        assert encoded[key].shape == value.shape, key
        assert encoded[key].tobytes() == value.tobytes(), f"{density} {key} moved"
    _assert_theta_matches(model, snapshot, density)


def reference_posterior(model, index: int, value: float) -> float:
    """p(y = i | z_i = value), one scalar at a time."""
    edges = model.edges
    n_bins = len(edges) - 1

    def density(counts, kdes):
        if model.uses_kde:
            kde = (kdes or {}).get(index)
            return float(kde.pdf(value)) if kde is not None else 0.0
        total = int(counts[index].sum())
        if total == 0:
            return 0.0
        bin_index = int(np.searchsorted(edges, value, side="right")) - 1
        bin_index = min(max(bin_index, 0), n_bins - 1)
        return counts[index][bin_index] / (total * (edges[1] - edges[0]))

    prior = float(model.priors[index])
    like_pos = density(model.positive_counts, model.positive_kdes) * prior
    like_neg = density(model.negative_counts, model.negative_kdes) * (1.0 - prior)
    denom = like_pos + like_neg
    return like_pos / denom if denom > 0 else 0.0


def reference_thresholds(model, rho: float) -> np.ndarray:
    """Step 2 bin by bin: the smallest centre with positive mass whose
    posterior reaches rho, +inf when there is none."""
    centers = 0.5 * (model.edges[:-1] + model.edges[1:])
    theta = np.full(model.n_indices, np.inf)
    for index in range(model.n_indices):
        candidates = [
            center
            for center, count in zip(centers, model.positive_counts[index])
            if count > 0 and reference_posterior(model, index, float(center)) >= rho
        ]
        if candidates:
            theta[index] = float(min(candidates))
    return theta


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=1, max_value=120),
    n_indices=st.integers(min_value=1, max_value=12),
    n_bins=st.integers(min_value=2, max_value=80),
    grid=st.sampled_from([0, 2, 16]),
    density=st.sampled_from(DENSITIES),
    rho=st.one_of(
        st.just(1.0), st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
    ),
)
def test_vectorised_step2_equals_per_bin_loop(
    seed, rows, n_indices, n_bins, grid, density, rho
):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_indices, size=rows)
    logits = rng.normal(size=(rows, n_indices)) * rng.uniform(0.1, 5.0)
    logits[np.arange(rows), labels] += rng.uniform(0.0, 4.0, size=rows)
    if grid:  # a coarse lattice makes ties and repeated values
        logits = np.round(logits * grid) / grid
    model = fit_threshold_model(logits, labels, n_bins=n_bins, density=density)
    assert model.thresholds(rho).tobytes() == reference_thresholds(model, rho).tobytes()
    # The public posterior, inside and outside the fitted range.
    span = model.edges[-1] - model.edges[0]
    for value in rng.uniform(model.edges[0] - span, model.edges[-1] + span, size=4):
        index = int(rng.integers(0, n_indices))
        assert model.posterior(index, value) == reference_posterior(model, index, value)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(FIXTURE, **compute_snapshot())
    print(f"wrote {FIXTURE}")
