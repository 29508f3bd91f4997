"""Tests for the dispatching primitives in repro.nn.ops."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.meta import MetaArray, is_meta
from repro.nn import ops
from repro.nn.context import ExecutionContext, execution_context
from repro.nn.precision import BF16_MIXED
from repro.nn.tape import _Recording
from tests.invariants import WRAPPER_CALLS


class TestMatmul:
    def test_real_matches_numpy(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(ops.matmul(a, b), a @ b)

    def test_meta_shape(self):
        out = ops.matmul(MetaArray((5, 3)), MetaArray((3, 7)))
        assert is_meta(out) and out.shape == (5, 7)

    def test_batched_meta_shape(self):
        out = ops.matmul(MetaArray((2, 4, 5, 3)), MetaArray((3, 7)))
        assert out.shape == (2, 4, 5, 7)

    def test_flops_recorded(self):
        ctx = ExecutionContext()
        with execution_context(ctx):
            ops.matmul(np.ones((2, 3)), np.ones((3, 4)))
        assert ctx.flops == 2 * 2 * 4 * 3
        assert ctx.matmul_flops == ctx.flops

    def test_meta_flops_match_real(self):
        real, meta = ExecutionContext(), ExecutionContext()
        with execution_context(real):
            ops.matmul(np.ones((2, 8, 3)), np.ones((3, 4)))
        with execution_context(meta):
            ops.matmul(MetaArray((2, 8, 3)), MetaArray((3, 4)))
        assert real.flops == meta.flops

    def test_bf16_policy_rounds(self):
        a = np.array([[1.0 + 2.0**-12]], dtype=np.float32)
        b = np.array([[1.0]], dtype=np.float32)
        with execution_context(ExecutionContext(precision=BF16_MIXED)):
            out = ops.matmul(a, b)
        assert out[0, 0] == 1.0  # rounded away in bf16

    def test_bf16_policy_meta_itemsize(self):
        with execution_context(ExecutionContext(precision=BF16_MIXED)):
            out = ops.matmul(MetaArray((2, 2)), MetaArray((2, 2)))
        assert out.dtype.itemsize == 2


class TestElementwise:
    def test_binary_broadcast_real(self):
        out = ops.add(np.ones((2, 1)), np.ones((1, 3)))
        assert out.shape == (2, 3)

    def test_binary_broadcast_meta(self):
        out = ops.multiply(MetaArray((2, 1)), MetaArray((1, 3)))
        assert out.shape == (2, 3)

    def test_binary_meta_with_scalar(self):
        out = ops.divide(MetaArray((4,)), 2.0)
        assert out.shape == (4,)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_meta_binary_shape_is_numpys_broadcast(self, data):
        """``_binary`` skips ``np.broadcast_shapes`` for equal shapes
        and scalars; that function stays the reference for the output
        shape, the recorded FLOPs and which pairs must raise."""
        dims = st.lists(st.integers(0, 4), max_size=4).map(tuple)
        a_shape = data.draw(dims)
        # Equal, scalar, size-1-axis and arbitrary (mostly incompatible)
        # partners, each drawn often.
        b_shape = data.draw(st.one_of(
            st.just(a_shape), st.just(()), dims,
            st.tuples(*(st.sampled_from([1, n]) for n in a_shape)),
        ))
        b = data.draw(st.sampled_from([MetaArray(b_shape), 2.0])
                      if not b_shape else st.just(MetaArray(b_shape)))
        operands = data.draw(st.permutations([MetaArray(a_shape), b]))
        try:
            want = np.broadcast_shapes(a_shape, b_shape)
        except ValueError:
            with pytest.raises(ValueError):
                ops.add(*operands)
            return
        ctx = ExecutionContext()
        with execution_context(ctx):
            out = ops._binary(*operands, np.add, flop_factor=3.0)
        assert is_meta(out) and out.shape == want
        assert ctx.flops == 3.0 * math.prod(want)

    def test_unary_meta(self):
        assert ops.exp(MetaArray((3, 3))).shape == (3, 3)

    def test_unary_flops(self):
        ctx = ExecutionContext()
        with execution_context(ctx):
            ops.exp(np.ones(7))
        assert ctx.flops == 7
        assert ctx.matmul_flops == 0

    def test_erf_matches_scipy(self):
        from scipy import special

        x = np.linspace(-2, 2, 5)
        np.testing.assert_allclose(ops.erf(x), special.erf(x))


class TestReductions:
    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, True), (-1, False), ((0, 1), True)])
    def test_meta_matches_numpy_shape(self, axis, keepdims):
        x = np.zeros((2, 3, 4))
        expected = np.sum(x, axis=axis, keepdims=keepdims).shape
        assert ops.sum_(MetaArray((2, 3, 4)), axis=axis, keepdims=keepdims).shape == expected

    def test_mean_real(self):
        np.testing.assert_allclose(ops.mean(np.arange(4.0)), 1.5)

    def test_amax_real(self):
        np.testing.assert_allclose(ops.amax(np.array([[1.0, 5.0], [3.0, 2.0]]), axis=-1), [5.0, 3.0])


class TestShapeOps:
    def test_concat_roundtrip(self):
        x = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(ops.concat(np.split(x, 2, axis=0), axis=0), x)

    def test_concat_meta(self):
        out = ops.concat([MetaArray((2, 3)), MetaArray((5, 3))], axis=0)
        assert out.shape == (7, 3)

    def test_concat_empty_rejected(self):
        with pytest.raises(ValueError):
            ops.concat([])

    def test_swapaxes_meta(self):
        assert ops.swapaxes(MetaArray((2, 3, 4)), -1, -2).shape == (2, 4, 3)

    def test_broadcast_to_returns_writable_copy(self):
        out = ops.broadcast_to(np.ones((1, 3)), (4, 3))
        out[0, 0] = 5.0  # must not raise

    def test_broadcast_to_meta_validates(self):
        with pytest.raises(ValueError):
            ops.broadcast_to(MetaArray((2, 3)), (4, 5))


class TestContextNesting:
    def test_nested_contexts_both_accumulate(self):
        outer, inner = ExecutionContext(), ExecutionContext()
        with execution_context(outer):
            ops.exp(np.ones(3))
            with execution_context(inner):
                ops.exp(np.ones(5))
        assert inner.flops == 5
        assert outer.flops == 8

    def test_no_context_is_fine(self):
        ops.exp(np.ones(3))  # must not raise


class _Sub(np.ndarray):
    """An ``ndarray`` subclass: NumPy's wrappers call its own methods."""


def _pinned_inputs(dtype) -> dict:
    """The pinned input kinds of one dtype."""
    values = np.linspace(-3.0, 5.0, 24) ** 2 / 7.0
    if np.dtype(dtype).kind == "c":
        values = values + 1j * values[::-1]
    base = values.astype(dtype)
    return {
        "0-d": np.asarray(base[5]),
        "empty-axis": np.empty((3, 0, 4), dtype),
        "fortran": np.asfortranarray(base.reshape(2, 3, 4)),
        "strided": base.reshape(4, 6)[::2, ::-3],
        # what takes the wrapper call itself
        "subclass": base.reshape(2, 3, 4).view(_Sub),
        "numpy-scalar": base[7],
    }


def _reduction_calls(x):
    return [(f"axis={axis},keepdims={keepdims}", (), {"axis": axis, "keepdims": keepdims})
            for axis in (None, 0, -1, (0, -1)) for keepdims in (False, True)]


def _shape_calls(name):
    def calls(x):
        shape = np.shape(x)
        return {
            "reshape": [("(-1,)", ((-1,),), {}), ("(1,-1,1)", ((1, -1, 1),), {})],
            "transpose": [("reversed", (tuple(range(len(shape)))[::-1],), {})],
            "swapaxes": [("0,-1", (0, -1), {}), ("-1,0", (-1, 0), {})],
            "broadcast_to": [("(2,3,4)", ((2, 3, 4),), {}), ("(5,)+shape", ((5, *shape),), {})],
        }[name]
    return calls


#: funnel -> (the C call it makes on an ndarray, calls(x)); its wrapper
#: call is ``WRAPPER_CALLS[funnel]``.
LOWERED = {
    "sum_": (np.add.reduce, _reduction_calls),
    "amax": (np.maximum.reduce, _reduction_calls),
    "mean": (ops._mean, _reduction_calls),
    "reshape": (np.ndarray.reshape, _shape_calls("reshape")),
    "transpose": (np.ndarray.transpose, _shape_calls("transpose")),
    "swapaxes": (np.ndarray.swapaxes, _shape_calls("swapaxes")),
    "broadcast_to": (ops._broadcast_copy, _shape_calls("broadcast_to")),
}


def _outcome(fn, *args, **kwargs):
    """``(result, warnings)``: the result's type, dtype, shape, strides
    and bytes, or the exception's type and message; and every warning
    with its category, message and source line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args, **kwargs)
        except Exception as error:  # the wrapper's error is the oracle too
            result = ("raised", type(error), str(error))
        else:
            array = np.asarray(out)
            result = ("returned", type(out), array.dtype, array.shape,
                      array.strides if isinstance(out, np.ndarray) else None,
                      array.tobytes())
    return result, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def _taken(name, x, args, kwargs):
    """The kernel the funnel recorded on ``x`` (unbound), or None if it raised."""
    recording = _Recording((x,), {})
    with recording, execution_context(ExecutionContext()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            getattr(ops, name)(x, *args, **kwargs)
        except Exception:
            return None
    fn = recording.program[-1][0]
    return getattr(fn, "func", fn)


def _lowers(name, x, kwargs, expected) -> bool:
    """The predicate, from outside: an ``ndarray``; for ``mean`` also a
    float32/float64 one, valid int axes, an array result and at least
    one term."""
    if type(x) is not np.ndarray:
        return False
    if name != "mean":
        return True
    if x.dtype not in (np.float32, np.float64) or expected[1] is not np.ndarray:
        return False
    axis = kwargs["axis"]
    return math.prod(x.shape[a] for a in (range(x.ndim) if axis is None else np.atleast_1d(axis))) > 0


class TestLoweredKernels:
    """Each funnel runs the C call NumPy's wrapper makes on an ``ndarray``:
    the same result bytes, dtype, shape and strides, the same error and
    the same warnings as the wrapper call, and the wrapper itself
    exactly where the predicate is false."""

    @pytest.mark.parametrize("dtype", ["f2", "f4", "f8", "i4", "c8"])
    @pytest.mark.parametrize("name", sorted(LOWERED))
    def test_funnel_equals_its_wrapper_call(self, name, dtype):
        (lowered, calls), wrapper = LOWERED[name], WRAPPER_CALLS[name]
        taken = {True: 0, False: 0}
        for kind, x in _pinned_inputs(dtype).items():
            for label, args, kwargs in calls(x):
                expected = _outcome(wrapper, x, *args, **kwargs)
                got = _outcome(getattr(ops, name), x, *args, **kwargs)
                where = f"{name} {dtype} {kind} {label}"
                assert got == expected, where
                fn = _taken(name, x, args, kwargs)
                if expected[0][0] == "raised":
                    assert fn is None, where
                    continue
                lowers = _lowers(name, x, kwargs, expected[0])
                assert fn == (lowered if lowers else wrapper), where
                taken[lowers] += 1
        # mean lowers float32 and float64 only
        assert taken[False] and bool(taken[True]) == (name != "mean" or dtype in ("f4", "f8"))

    def test_a_mean_over_an_empty_slice_warns_as_np_mean(self):
        x = np.empty((3, 0, 4), np.float32)
        for axis in (None, 1, (0, 1)):
            got = _outcome(ops.mean, x, axis=axis, keepdims=True)
            want = _outcome(np.mean, x, axis=axis, keepdims=True)
            assert got == want and got[1], axis
            assert got[1][0][:2] == (RuntimeWarning, "Mean of empty slice")
