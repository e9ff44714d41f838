"""Minimal numpy reverse-mode autograd used to train the MANN.

The paper's models (End-to-End Memory Networks) were trained with a
mainstream framework; offline we build only what MemN2N training runs:
a small ``Tensor`` with reverse-mode autodiff and the ops the model and
its loss call, ``Parameter``/``Module``, the cross-entropy loss, and
Adam with a step-decay schedule and gradient clipping. ``gradcheck`` is
the numerical reference the tests check the gradients against.
"""

from repro.nn.gradcheck import gradcheck, numerical_gradient
from repro.nn.layers import Module, Parameter
from repro.nn.losses import cross_entropy, nll_loss
from repro.nn.optim import Adam, StepDecay
from repro.nn.tensor import Tensor, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "Module",
    "Parameter",
    "cross_entropy",
    "nll_loss",
    "Adam",
    "StepDecay",
    "gradcheck",
    "numerical_gradient",
]
