"""Tests for losses, optimisers and schedules."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Adam, Parameter, StepDecay, cross_entropy, nll_loss


def softmax_cross_entropy_grad(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Closed-form gradient of mean softmax CE w.r.t. logits: the
    pure-numpy reference the autograd path is checked against."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    probs = exps / exps.sum(axis=-1, keepdims=True)
    grad = probs.copy()
    grad[np.arange(len(targets)), targets] -= 1.0
    return grad / len(targets)


class TestCrossEntropy:
    def test_matches_manual_nll(self, rng):
        logits = rng.normal(size=(4, 5))
        targets = np.array([0, 1, 2, 3])
        loss = cross_entropy(nn.Tensor(logits), targets)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(4), targets].mean()
        assert np.isclose(loss.item(), expected)

    def test_gradient_matches_closed_form(self, rng):
        logits = rng.normal(size=(3, 6))
        targets = np.array([2, 0, 5])
        t = nn.Tensor(logits, requires_grad=True)
        cross_entropy(t, targets).backward()
        assert np.allclose(
            t.grad, softmax_cross_entropy_grad(logits, targets), atol=1e-10
        )

    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss = cross_entropy(nn.Tensor(logits), np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_nll_target_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nll_loss(nn.Tensor(np.zeros((2, 3))), np.array([0]))

    def test_numerical_gradcheck(self, rng):
        targets = np.array([1, 0])
        nn.gradcheck(
            lambda x: cross_entropy(x, targets), rng.normal(size=(2, 4))
        )


class TestAdam:
    def test_minimises_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            p.grad = 2 * p.data
            opt.step()
        assert abs(p.data[0]) < 1e-3

    def test_bias_correction_first_step(self):
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        # With bias correction the first step is ~lr in magnitude.
        assert np.isclose(abs(p.data[0]), 0.1, rtol=1e-3)

    def test_skips_params_without_grad(self):
        p = Parameter(np.array([1.0]))
        Adam([p], lr=0.1).step()
        assert np.allclose(p.data, [1.0])

    def test_invalid_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)


class TestGradClipping:
    def test_clips_to_max_norm(self):
        p = Parameter(np.zeros(4))
        opt = Adam([p], lr=0.1)
        p.grad = np.full(4, 10.0)
        pre_norm = opt.clip_grad_norm(1.0)
        assert pre_norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-6)

    def test_no_clip_below_max(self):
        p = Parameter(np.zeros(2))
        opt = Adam([p], lr=0.1)
        p.grad = np.array([0.3, 0.4])
        opt.clip_grad_norm(1.0)
        assert np.allclose(p.grad, [0.3, 0.4])


class TestSchedules:
    def test_step_decay_halves(self):
        opt = Adam([Parameter(np.zeros(1))], lr=1.0)
        sched = StepDecay(opt, step_size=2, gamma=0.5)
        lrs = [sched.step() for _ in range(4)]
        assert lrs == [1.0, 0.5, 0.5, 0.25]

    def test_step_decay_invalid_step_size(self):
        opt = Adam([Parameter(np.zeros(1))], lr=1.0)
        with pytest.raises(ValueError):
            StepDecay(opt, step_size=0)
