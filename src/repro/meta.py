"""Shape-and-dtype-only array stand-ins for meta (analytic) execution.

Large ORBIT configurations (10B / 113B parameters) cannot be
instantiated as real arrays on one machine.  In *meta mode* the model
and parallelism code paths run with :class:`MetaArray` values: every
module computes output **shapes**, registers **allocations** with the
per-device :class:`~repro.memory.tracker.MemoryTracker`, and reports
**FLOPs** — but never touches numeric data.  Collectives cost-account
meta arrays identically to real ones.

Helper functions (:func:`nbytes_of`, :func:`is_meta`)
let shared code handle ``numpy.ndarray`` and :class:`MetaArray`
uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class MetaArray:
    """An array with a shape and dtype but no data.

    ``size`` and ``nbytes`` are derived once at construction (the
    instance is frozen), so the per-event byte accounting of the
    collectives reads an attribute instead of re-multiplying the shape.
    """

    shape: tuple[int, ...]
    dtype: np.dtype
    size: int = field(init=False, compare=False)
    nbytes: int = field(init=False, compare=False)

    def __init__(self, shape: tuple[int, ...] | list[int], dtype=np.float32):
        shape = tuple(map(int, shape))
        if shape and min(shape) < 0:
            raise ValueError(f"negative dimension in shape {shape}")
        dtype = np.dtype(dtype)
        size = math.prod(shape)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "dtype", dtype)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "nbytes", size * dtype.itemsize)

    # -- ndarray-compatible surface ---------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def T(self) -> "MetaArray":
        return MetaArray(self.shape[::-1], self.dtype)

    def astype(self, dtype) -> "MetaArray":
        return MetaArray(self.shape, dtype)

    def reshape(self, *shape) -> "MetaArray":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        shape = tuple(int(s) for s in shape)
        if -1 in shape:
            known = math.prod(s for s in shape if s != -1)
            if shape.count(-1) != 1 or known == 0 or self.size % known:
                raise ValueError(f"cannot reshape {self.shape} into {shape}")
            shape = tuple(self.size // known if s == -1 else s for s in shape)
        if math.prod(shape) != self.size:
            raise ValueError(f"cannot reshape size {self.size} into {shape}")
        return MetaArray(shape, self.dtype)

    def transpose(self, *axes) -> "MetaArray":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(range(self.ndim))[::-1]
        return MetaArray(tuple(self.shape[a] for a in axes), self.dtype)

    def __repr__(self) -> str:
        return f"MetaArray(shape={self.shape}, dtype={self.dtype.name})"


ArrayLike = "np.ndarray | MetaArray"


def is_meta(x) -> bool:
    """True when ``x`` is a :class:`MetaArray`."""
    return isinstance(x, MetaArray)


def nbytes_of(x) -> int:
    """Byte size of an ndarray or MetaArray."""
    return int(x.nbytes)


def matmul_shape(a_shape: tuple[int, ...], b_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Result shape of ``a @ b`` with NumPy batched-matmul broadcasting."""
    if len(a_shape) < 2 or len(b_shape) < 2:
        raise ValueError("matmul_shape requires >=2-D operands")
    if a_shape[-1] != b_shape[-2]:
        raise ValueError(f"matmul inner-dimension mismatch: {a_shape} @ {b_shape}")
    batch = np.broadcast_shapes(a_shape[:-2], b_shape[:-2])
    return tuple(batch) + (a_shape[-2], b_shape[-1])


def matmul_flops(a_shape: tuple[int, ...], b_shape: tuple[int, ...]) -> int:
    """FLOPs of ``a @ b`` counting one multiply plus one add per MAC."""
    out = matmul_shape(a_shape, b_shape)
    return 2 * math.prod(out) * a_shape[-1]
