"""Array primitives with meta-mode dispatch and FLOP accounting.

Every numeric operation in the :mod:`repro.nn` layers and the
parallelism engines goes through these functions so that

* real-mode (``numpy.ndarray``) and meta-mode
  (:class:`~repro.meta.MetaArray`) execution share one code path,
* FLOPs are reported to the active
  :class:`~repro.nn.context.ExecutionContext` (the basis of the
  DeepSpeed-profiler-equivalent in :mod:`repro.perf`), and
* emulated bfloat16 rounding is applied uniformly at matmuls — the
  operation whose precision the MI250X matrix engines set.

Every function but :func:`kernel` is pure: none mutates its inputs.

While a tape records (:mod:`repro.nn.tape`), every real-mode kernel
below is also appended to it (``tape.record``), so the forward can
later be replayed without this module's dispatch; NumPy work elsewhere
joins the tape through :func:`kernel`.  The recording
sits inside an execution context of its own, so the FLOP funnels look
for it only when the context stack is non-empty.

On an ``ndarray`` operand the reductions and shape moves run the C call
NumPy's Python wrapper would make (``np.add.reduce`` for ``np.sum``,
``np.ndarray.reshape`` for ``np.reshape``, ...), and the tape records
that call; any other operand makes the wrapper call itself.  The two
are the same ufunc or method call with the same operands, so the
results are bitwise equal (DESIGN.md, "The forward tape").
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from repro.meta import MetaArray, matmul_shape
from repro.nn.context import _state, active_precision, record_flops
from repro.nn.precision import round_to_bfloat16

# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def _matmul_bf16(a, b):
    """bf16 operands, fp32 accumulate, bf16 result — as one kernel."""
    return round_to_bfloat16(round_to_bfloat16(a) @ round_to_bfloat16(b))


def matmul(a, b):
    """Batched matrix product with bf16 emulation and FLOP accounting."""
    if isinstance(a, MetaArray) or isinstance(b, MetaArray):
        out_shape = matmul_shape(tuple(a.shape), tuple(b.shape))
        if _state.stack:
            record_flops(2 * math.prod(out_shape) * a.shape[-1], matmul=True)
        policy = active_precision()
        dtype = policy.meta_dtype if policy is not None and policy.is_bf16 else a.dtype
        return MetaArray(out_shape, dtype)
    policy = active_precision()
    fn = _matmul_bf16 if policy is not None and policy.is_bf16 else np.matmul
    out = fn(a, b)
    if _state.stack:
        record_flops(2 * out.size * a.shape[-1], matmul=True)
        if _state.tape is not None:
            _state.tape.record(fn, (a, b), out)
    return out


# ---------------------------------------------------------------------------
# elementwise / broadcasting helpers
# ---------------------------------------------------------------------------


def _binary(a, b, fn, flop_factor: float = 1.0):
    if isinstance(a, MetaArray) or isinstance(b, MetaArray):
        a_shape = tuple(a.shape) if hasattr(a, "shape") else ()
        b_shape = tuple(b.shape) if hasattr(b, "shape") else ()
        # Equal shapes or one scalar — almost every call — need no
        # broadcasting rules.
        if a_shape == b_shape or not b_shape:
            out_shape = a_shape
        elif not a_shape:
            out_shape = b_shape
        else:
            out_shape = np.broadcast_shapes(a_shape, b_shape)
        dtype = a.dtype if isinstance(a, MetaArray) else b.dtype
        if _state.stack:
            record_flops(flop_factor * math.prod(out_shape))
        return MetaArray(out_shape, dtype)
    out = fn(a, b)
    if _state.stack:
        record_flops(flop_factor * out.size)
        if _state.tape is not None:
            _state.tape.record(fn, (a, b), out)
    return out


def add(a, b):
    """Elementwise ``a + b`` with broadcasting."""
    return _binary(a, b, np.add)


def subtract(a, b):
    """Elementwise ``a - b`` with broadcasting."""
    return _binary(a, b, np.subtract)


def multiply(a, b):
    """Elementwise ``a * b`` with broadcasting."""
    return _binary(a, b, np.multiply)


def divide(a, b):
    """Elementwise ``a / b`` with broadcasting."""
    return _binary(a, b, np.divide)


def _unary(x, fn, flop_factor: float = 1.0):
    if isinstance(x, MetaArray):
        if _state.stack:
            record_flops(flop_factor * x.size)
        return MetaArray(x.shape, x.dtype)
    out = fn(x)
    if _state.stack:
        record_flops(flop_factor * out.size)
        if _state.tape is not None:
            _state.tape.record(fn, (x,), out)
    return out


def exp(x):
    """Elementwise exponential."""
    return _unary(x, np.exp)


def sqrt(x):
    """Elementwise square root."""
    return _unary(x, np.sqrt)


def erf(x):
    """Elementwise error function."""
    return _unary(x, special.erf)


def square(x):
    """Elementwise square."""
    return _unary(x, np.square)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _reduced_shape(shape: tuple[int, ...], axis, keepdims: bool) -> tuple[int, ...]:
    if axis is None:
        axes = tuple(range(len(shape)))
    elif isinstance(axis, int):
        axes = (axis % len(shape),)
    else:
        axes = tuple(a % len(shape) for a in axis)
    if keepdims:
        return tuple(1 if i in axes else s for i, s in enumerate(shape))
    return tuple(s for i, s in enumerate(shape) if i not in axes)


def _reduce(x, fn, axis, keepdims, **bound):
    if isinstance(x, MetaArray):
        if _state.stack:
            record_flops(x.size)
        return MetaArray(_reduced_shape(x.shape, axis, keepdims), x.dtype)
    out = fn(x, axis=axis, keepdims=keepdims, **bound)
    if _state.stack:
        record_flops(x.size)
        if _state.tape is not None:
            _state.tape.record(fn, (x,), out, axis=axis, keepdims=keepdims, **bound)
    return out


def sum_(x, axis=None, keepdims=False):
    """Sum reduction."""
    return _reduce(x, np.add.reduce if type(x) is np.ndarray else np.sum, axis, keepdims)


def _mean(x, axis, keepdims, count):
    """The two ufunc calls ``np.mean`` makes on a float32/float64 array
    with an array result (``numpy._core._methods._mean``), its divisor
    ``count`` fixed."""
    total = np.add.reduce(x, axis, None, None, keepdims)
    return np.true_divide(total, count, out=total, casting="unsafe", subok=False)


def _mean_count(x, axis, keepdims) -> int:
    """``np.mean``'s divisor where :func:`_mean` is its call — ``x`` a
    float32/float64 ``ndarray``, valid int axes, an array result, at
    least one term — else 0 (``np.mean`` itself runs, warns or raises)."""
    if type(x) is not np.ndarray or x.dtype.type not in (np.float32, np.float64):
        return 0
    ndim = x.ndim
    axes = range(ndim) if axis is None else axis if type(axis) is tuple else (axis,)
    count = 1
    for ax in axes:
        if type(ax) is not int or not -ndim <= ax < ndim:
            return 0
        count *= x.shape[ax]
    return count if ndim > (0 if keepdims else len(axes)) else 0


def mean(x, axis=None, keepdims=False):
    """Mean reduction."""
    count = _mean_count(x, axis, keepdims)
    if count:
        return _reduce(x, _mean, axis, keepdims, count=np.intp(count))
    return _reduce(x, np.mean, axis, keepdims)


def amax(x, axis=None, keepdims=False):
    """Max reduction."""
    return _reduce(x, np.maximum.reduce if type(x) is np.ndarray else np.max, axis, keepdims)


# ---------------------------------------------------------------------------
# shape manipulation (zero FLOPs)
# ---------------------------------------------------------------------------


def kernel(fn, *operands, **kwargs):
    """``fn(*operands, **kwargs)``: NumPy work outside the funnels above
    (shape moves, collective bodies, copies, the loss) as one kernel of
    no counted FLOPs, taped with ``kwargs`` as constants.  ``fn`` may
    update an operand in place (``operator.iadd``); a replay does too."""
    out = fn(*operands, **kwargs)
    if _state.tape is not None:
        _state.tape.record(fn, operands, out, **kwargs)
    return out


def reshape(x, shape):
    """Reshape (supports one ``-1`` wildcard)."""
    if isinstance(x, MetaArray):
        return x.reshape(shape)
    return kernel(np.ndarray.reshape if type(x) is np.ndarray else np.reshape, x, shape)


def transpose(x, axes):
    """Permute axes."""
    if isinstance(x, MetaArray):
        return x.transpose(axes)
    return kernel(np.ndarray.transpose if type(x) is np.ndarray else np.transpose, x, axes)


def swapaxes(x, a: int, b: int):
    """Exchange two axes."""
    if isinstance(x, MetaArray):
        axes = list(range(x.ndim))
        axes[a % x.ndim], axes[b % x.ndim] = axes[b % x.ndim], axes[a % x.ndim]
        return x.transpose(axes)
    return kernel(np.ndarray.swapaxes if type(x) is np.ndarray else np.swapaxes, x, a, b)


def _concatenate(axis, *parts):
    return np.concatenate(parts, axis=axis)


def concat(parts, axis: int = 0):
    """Concatenate along ``axis``."""
    parts = list(parts)
    if not parts:
        raise ValueError("concat of empty sequence")
    if any(isinstance(p, MetaArray) for p in parts):
        first = parts[0]
        shape = list(first.shape)
        shape[axis % first.ndim] = sum(p.shape[axis % first.ndim] for p in parts)
        return MetaArray(tuple(shape), first.dtype)
    return kernel(_concatenate, axis, *parts)


def _broadcast_copy(x, shape):
    """``np.broadcast_to(x, shape).copy()`` for an ``ndarray`` ``x``; a
    shape it rejects raises that call's own error."""
    try:
        out = np.empty(shape, x.dtype)
        np.copyto(out, x)
    except (TypeError, ValueError):
        return _broadcast_to_copy(x, shape)
    return out


def _broadcast_to_copy(x, shape):
    return np.broadcast_to(x, shape).copy()


def broadcast_to(x, shape):
    """Broadcast ``x`` to ``shape`` (real mode returns a copy for safe mutation)."""
    if isinstance(x, MetaArray):
        np.broadcast_shapes(tuple(x.shape), tuple(shape))
        return MetaArray(tuple(shape), x.dtype)
    return kernel(_broadcast_copy if type(x) is np.ndarray else _broadcast_to_copy, x, shape)
