"""Tests for MetaArray shape/dtype stand-ins."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.meta import (
    MetaArray,
    is_meta,
    matmul_flops,
    matmul_shape,
    nbytes_of,
)


class TestMetaArrayBasics:
    def test_size_and_nbytes(self):
        m = MetaArray((4, 8), np.float32)
        assert m.size == 32
        assert m.nbytes == 128
        assert m.ndim == 2

    def test_scalar_shape(self):
        m = MetaArray((), np.float64)
        assert m.size == 1
        assert m.nbytes == 8

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            MetaArray((3, -2))

    def test_astype(self):
        m = MetaArray((4,), np.float32).astype(np.float64)
        assert m.dtype == np.float64
        assert m.nbytes == 32

    def test_transpose_default_and_axes(self):
        m = MetaArray((2, 3, 4))
        assert m.T.shape == (4, 3, 2)
        assert m.transpose(0, 2, 1).shape == (2, 4, 3)
        assert m.transpose((1, 0, 2)).shape == (3, 2, 4)


class TestReshape:
    def test_explicit(self):
        assert MetaArray((4, 6)).reshape(8, 3).shape == (8, 3)

    def test_minus_one(self):
        assert MetaArray((4, 6)).reshape(-1, 3).shape == (8, 3)

    def test_tuple_argument(self):
        assert MetaArray((4, 6)).reshape((2, 12)).shape == (2, 12)

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            MetaArray((4, 6)).reshape(5, 5)

    def test_indivisible_minus_one_rejected(self):
        with pytest.raises(ValueError):
            MetaArray((4, 6)).reshape(-1, 5)


class TestDispatchHelpers:
    def test_is_meta(self):
        assert is_meta(MetaArray((2,)))
        assert not is_meta(np.zeros(2))

    def test_shape_nbytes_dtype_on_ndarray(self):
        x = np.zeros((3, 5), np.float64)
        assert nbytes_of(x) == 120


@given(
    m=st.integers(1, 16),
    k=st.integers(1, 16),
    n=st.integers(1, 16),
    batch=st.integers(0, 3),
)
def test_matmul_shape_matches_numpy(m, k, n, batch):
    a_shape = (batch, m, k) if batch else (m, k)
    b_shape = (k, n)
    expected = (np.zeros(a_shape) @ np.zeros(b_shape)).shape
    assert matmul_shape(a_shape, b_shape) == expected


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        matmul_shape((2, 3), (4, 5))


def test_matmul_flops_counts_macs_twice():
    assert matmul_flops((2, 3), (3, 5)) == 2 * 2 * 5 * 3
