"""The parameter containers of :class:`repro.mann.model.MemoryNetwork`.

A ``Module`` holds its weights as :class:`Parameter` attributes; there
are no nested modules, and the model runs its own ``forward``.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor (``requires_grad=True`` by construction)."""

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class whose parameters are its :class:`Parameter` attributes.

    They are listed in assignment order. Gradient clipping sums squares
    in that order, so a different order changes the trained bits.
    """

    def named_parameters(self) -> Iterator[tuple[str, Parameter]]:
        for key, value in self.__dict__.items():
            if isinstance(value, Parameter):
                yield key, value

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]
