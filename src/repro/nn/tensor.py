"""A small reverse-mode automatic-differentiation engine on numpy.

Only the operations that End-to-End Memory Network training calls are
implemented: elementwise arithmetic with broadcasting, matmul, sum and
mean, softmax/log-softmax, row gathering (for the embeddings), indexing
and shape ops.

Design notes
------------
* ``Tensor`` wraps a ``numpy.ndarray`` (always ``float64`` unless stated)
  and records its parents plus a backward closure.
* ``backward()`` runs a topological sort and accumulates gradients into
  ``.grad`` on every tensor with ``requires_grad=True``.
* Broadcasting is undone in the backward pass by ``_unbroadcast``.
* A module-level ``no_grad`` context manager disables graph recording,
  used by ``MemoryNetwork.predict``.
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable, Sequence

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables autograd graph construction."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def grad_enabled() -> bool:
    """Return True when operations should record the autograd graph."""
    return _GRAD_ENABLED


def _as_array(data) -> np.ndarray:
    if isinstance(data, np.ndarray):
        if data.dtype != np.float64:
            return data.astype(np.float64)
        return data
    return np.asarray(data, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum across dimensions that were size-1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        name: str | None = None,
    ):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and grad_enabled()
        self._parents = tuple(_parents) if grad_enabled() else ()
        self._backward = _backward if grad_enabled() else None
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # ------------------------------------------------------------------
    # Graph mechanics
    # ------------------------------------------------------------------
    def _needs_graph(self, *others: "Tensor") -> bool:
        if not grad_enabled():
            return False
        if self.requires_grad:
            return True
        return any(o.requires_grad for o in others)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to 1 for scalar outputs; non-scalar roots
        require an explicit output gradient.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without a gradient is only valid for scalars; "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor shape {self.shape}"
            )

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad:
                node._accumulate(node_grad)
            if node._backward is None:
                continue
            parent_grads = node._backward(node_grad)
            if parent_grads is None:
                continue
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] += pgrad
                else:
                    grads[id(parent)] = pgrad

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = _ensure_tensor(other)
        out_data = self.data + other.data
        if not self._needs_graph(other):
            return Tensor(out_data)

        def backward(grad):
            return (
                _unbroadcast(grad, self.data.shape),
                _unbroadcast(grad, other.data.shape),
            )

        return Tensor(out_data, True, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        if not self._needs_graph():
            return Tensor(-self.data)

        def backward(grad):
            return (-grad,)

        return Tensor(-self.data, True, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = _ensure_tensor(other)
        out_data = self.data - other.data
        if not self._needs_graph(other):
            return Tensor(out_data)

        def backward(grad):
            return (
                _unbroadcast(grad, self.data.shape),
                _unbroadcast(-grad, other.data.shape),
            )

        return Tensor(out_data, True, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return _ensure_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = _ensure_tensor(other)
        out_data = self.data * other.data
        if not self._needs_graph(other):
            return Tensor(out_data)

        def backward(grad):
            return (
                _unbroadcast(grad * other.data, self.data.shape),
                _unbroadcast(grad * self.data, other.data.shape),
            )

        return Tensor(out_data, True, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _ensure_tensor(other)
        out_data = self.data / other.data
        if not self._needs_graph(other):
            return Tensor(out_data)

        def backward(grad):
            return (
                _unbroadcast(grad / other.data, self.data.shape),
                _unbroadcast(-grad * self.data / (other.data**2), other.data.shape),
            )

        return Tensor(out_data, True, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return _ensure_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent
        if not self._needs_graph():
            return Tensor(out_data)

        def backward(grad):
            return (grad * exponent * self.data ** (exponent - 1),)

        return Tensor(out_data, True, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = _ensure_tensor(other)
        out_data = self.data @ other.data
        if not self._needs_graph(other):
            return Tensor(out_data)

        def backward(grad):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                return (grad * b, grad * a)
            if a.ndim == 1:
                # (k,) @ (k, n) -> (n,)
                return (grad @ b.T, np.outer(a, grad))
            if b.ndim == 1:
                # (m, k) @ (k,) -> (m,)
                return (np.outer(grad, b), a.T @ grad)
            ga = grad @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ grad
            return (
                _unbroadcast(ga, a.shape),
                _unbroadcast(gb, b.shape),
            )

        return Tensor(out_data, True, (self, other), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        if not self._needs_graph():
            return Tensor(out_data)

        def backward(grad):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            return (np.broadcast_to(g, self.data.shape).copy(),)

        return Tensor(out_data, True, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        if not self._needs_graph():
            return Tensor(out_data)

        def backward(grad):
            return (grad.reshape(self.data.shape),)

        return Tensor(out_data, True, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def transpose(self, axes: tuple[int, ...] | None = None) -> "Tensor":
        out_data = np.transpose(self.data, axes)
        if not self._needs_graph():
            return Tensor(out_data)

        if axes is None:
            inverse = None
        else:
            inverse = tuple(np.argsort(axes))

        def backward(grad):
            return (np.transpose(grad, inverse),)

        return Tensor(out_data, True, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        if not self._needs_graph():
            return Tensor(out_data)

        def backward(grad):
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            return (full,)

        return Tensor(out_data, True, (self,), backward)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows (used by embedding lookup); grad is scatter-add."""
        idx = np.asarray(indices)
        out_data = self.data[idx]
        if not self._needs_graph():
            return Tensor(out_data)

        def backward(grad):
            full = np.zeros_like(self.data)
            np.add.at(full, idx, grad)
            return (full,)

        return Tensor(out_data, True, (self,), backward)

    # ------------------------------------------------------------------
    # Softmax family (numerically stable, fused backward)
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exps = np.exp(shifted)
        out_data = exps / exps.sum(axis=axis, keepdims=True)
        if not self._needs_graph():
            return Tensor(out_data)

        def backward(grad):
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            return (out_data * (grad - dot),)

        return Tensor(out_data, True, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - log_norm
        if not self._needs_graph():
            return Tensor(out_data)

        softmax = np.exp(out_data)

        def backward(grad):
            return (grad - softmax * grad.sum(axis=axis, keepdims=True),)

        return Tensor(out_data, True, (self,), backward)


def _ensure_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
