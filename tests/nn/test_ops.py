"""Tests for the dispatching primitives in repro.nn.ops."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.meta import MetaArray, is_meta
from repro.nn import ops
from repro.nn.context import ExecutionContext, execution_context
from repro.nn.precision import BF16_MIXED


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
        assert ops.tanh(MetaArray((3, 3))).shape == (3, 3)

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

    def test_var_real(self):
        x = np.arange(4.0)
        np.testing.assert_allclose(ops.var(x), x.var())


class TestShapeOps:
    def test_split_real_contiguous(self):
        parts = ops.split(np.arange(12.0).reshape(4, 3), 2, axis=0)
        assert len(parts) == 2 and parts[0].shape == (2, 3)
        assert parts[0].flags["C_CONTIGUOUS"]

    def test_split_meta(self):
        parts = ops.split(MetaArray((4, 6)), 3, axis=1)
        assert len(parts) == 3 and parts[0].shape == (4, 2)

    def test_split_indivisible_rejected(self):
        with pytest.raises(ValueError):
            ops.split(np.zeros((5, 2)), 2, axis=0)

    def test_concat_roundtrip(self):
        x = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(ops.concat(ops.split(x, 2, axis=0), axis=0), x)

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

    def test_zeros_like_meta(self):
        out = ops.zeros_like(MetaArray((2, 2), np.float64))
        assert is_meta(out) and out.dtype == np.float64

    def test_zeros_meta_flag(self):
        assert is_meta(ops.zeros((2, 2), meta=True))
        assert not is_meta(ops.zeros((2, 2)))


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
