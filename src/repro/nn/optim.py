"""The optimiser and learning-rate schedule that train the MANN.

:mod:`repro.mann.trainer` runs Adam with gradient-norm clipping at 40
and the learning rate halved on a fixed epoch schedule. MemN2N's
published bAbI recipe is plain SGD with the same clipping and
anneal-by-half schedule; this repo does not run that recipe, because
Adam reaches the synthetic tasks' accuracy in far fewer epochs.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Parameter


class Adam:
    """Adam (Kingma & Ba 2015) over a list of parameters."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 0.001,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale all gradients so their global L2 norm is <= max_norm.

        Returns the pre-clip norm (useful for logging).
        """
        total = 0.0
        for p in self.params:
            if p.grad is not None:
                total += float((p.grad**2).sum())
        norm = float(np.sqrt(total))
        if norm > max_norm > 0:
            scale = max_norm / (norm + 1e-12)
            for p in self.params:
                if p.grad is not None:
                    p.grad *= scale
        return norm

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class StepDecay:
    """Halve (or scale) the learning rate every ``step_size`` epochs.

    Mirrors MemN2N's anneal-by-half-every-25-epochs schedule.
    """

    def __init__(self, optimizer: Adam, step_size: int = 25, gamma: float = 0.5):
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> float:
        """Advance one epoch; returns the new learning rate."""
        self.epoch += 1
        power = self.epoch // self.step_size
        self.optimizer.lr = self.base_lr * (self.gamma**power)
        return self.optimizer.lr
