"""Trainable parameters with explicit gradient slots."""

from __future__ import annotations

import operator

import numpy as np

from repro.meta import is_meta, nbytes_of
from repro.nn.ops import kernel


class Parameter:
    """A trainable array with an accumulated gradient.

    The data may be a real :class:`numpy.ndarray` or a
    :class:`~repro.meta.MetaArray` (meta mode).  Gradients accumulate
    across :meth:`add_grad` calls until :meth:`zero_grad` — matching
    framework semantics that gradient-accumulation training loops and
    the parallelism engines rely on.
    """

    def __init__(self, data, name: str = "param"):
        self.data = data
        self.grad = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.data.shape)

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        return nbytes_of(self.data)

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def is_meta(self) -> bool:
        return is_meta(self.data)

    def add_grad(self, grad) -> None:
        """Accumulate ``grad`` (must match the parameter's shape)."""
        if tuple(grad.shape) != self.shape:
            raise ValueError(
                f"gradient shape {tuple(grad.shape)} does not match "
                f"parameter {self.name} shape {self.shape}"
            )
        if self.is_meta or is_meta(grad):
            self.grad = grad
        elif self.grad is None:
            self.grad = kernel(np.array, grad, dtype=self.data.dtype, copy=True)
        else:
            # In place, as ``+=``: the accumulator keeps the data's dtype.
            self.grad = kernel(operator.iadd, self.grad, grad)

    def zero_grad(self) -> None:
        """Drop the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:
        mode = "meta" if self.is_meta else "real"
        return f"Parameter({self.name}, shape={self.shape}, {mode})"
