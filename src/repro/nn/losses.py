"""Loss functions for training the MANN."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Negative log-likelihood given log-probabilities.

    ``log_probs`` has shape (batch, classes); ``targets`` is an integer
    vector of length batch. Returns the mean NLL as a scalar tensor.
    """
    targets = np.asarray(targets, dtype=np.int64)
    batch = log_probs.shape[0]
    if targets.shape != (batch,):
        raise ValueError(
            f"targets shape {targets.shape} does not match batch size {batch}"
        )
    picked = log_probs[np.arange(batch), targets]
    return -picked.mean()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Softmax cross-entropy from raw logits (numerically stable)."""
    return nll_loss(logits.log_softmax(axis=-1), targets)
