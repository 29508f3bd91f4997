"""Tests for shard layouts and the column-split identity of Eqn 2.

The sharded Eqn 2/3 chain itself is ``HybridSTOPMLP``, held to the
serial MLP in ``test_hybrid_mlp.py``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import VirtualCluster
from repro.core import (
    column_shards,
    flat_pad_shard,
    flat_unshard,
    row_shards,
    ShardedParameter,
)
from repro.meta import MetaArray, is_meta
from repro.nn import functional as F


class TestShardLayouts:
    def test_column_shards_roundtrip(self):
        m = np.arange(24.0).reshape(4, 6)
        shards = column_shards(m, 3)
        assert all(s.shape == (4, 2) for s in shards)
        np.testing.assert_array_equal(np.concatenate(shards, axis=-1), m)

    def test_row_shards_roundtrip(self):
        m = np.arange(24.0).reshape(6, 4)
        shards = row_shards(m, 2)
        assert all(s.shape == (3, 4) for s in shards)
        np.testing.assert_array_equal(np.concatenate(shards, axis=-2), m)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            column_shards(np.zeros((2, 5)), 2)
        with pytest.raises(ValueError):
            row_shards(np.zeros((5, 2)), 2)

    def test_meta_shards(self):
        shards = column_shards(MetaArray((4, 6)), 3)
        assert len(shards) == 3 and shards[0].shape == (4, 2)

    def test_flat_pad_shard_roundtrip_exact(self):
        m = np.arange(12.0).reshape(3, 4)
        shards = flat_pad_shard(m, 4)
        np.testing.assert_array_equal(flat_unshard(shards, (3, 4)), m)

    def test_flat_pad_shard_roundtrip_with_padding(self):
        m = np.arange(10.0)
        shards = flat_pad_shard(m, 4)  # 10 -> pad to 12
        assert all(s.shape == (3,) for s in shards)
        np.testing.assert_array_equal(flat_unshard(shards, (10,)), m)

    def test_flat_pad_shard_meta(self):
        shards = flat_pad_shard(MetaArray((3, 5)), 4)
        assert shards[0].shape == (4,)
        assert is_meta(flat_unshard(shards, (3, 5)))

    @given(rows=st.integers(1, 7), cols=st.integers(1, 7), num=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_property_flat_roundtrip(self, rows, cols, num):
        m = np.random.default_rng(0).normal(size=(rows, cols))
        np.testing.assert_array_equal(flat_unshard(flat_pad_shard(m, num), (rows, cols)), m)


class TestShardedParameter:
    def test_full_reassembles(self):
        m = np.arange(20.0).reshape(4, 5)
        param = ShardedParameter(m, 3, "w")
        np.testing.assert_array_equal(param.full(), m)

    def test_grad_accumulation(self):
        param = ShardedParameter(np.zeros((2, 2)), 2, "w")
        ones = flat_pad_shard(np.ones((2, 2)), 2)
        param.set_grad_shards(ones)
        param.set_grad_shards(ones)
        np.testing.assert_array_equal(param.full_grad(), 2 * np.ones((2, 2)))
        param.zero_grad()
        assert param.full_grad() is None

    def test_device_allocation_and_free(self):
        cluster = VirtualCluster(num_gpus=2)
        param = ShardedParameter(np.zeros((4, 4), np.float32), 2, "w", group=cluster.world)
        assert cluster.device(0).memory.current_bytes == 32  # 8 floats
        param.free()
        assert cluster.device(0).memory.current_bytes == 0

    def test_wrong_group_size_rejected(self):
        cluster = VirtualCluster(num_gpus=2)
        with pytest.raises(ValueError):
            ShardedParameter(np.zeros(4), 2, "w", group=cluster.new_group([0]))

    def test_wrong_grad_shard_count_rejected(self):
        param = ShardedParameter(np.zeros(4), 2, "w")
        with pytest.raises(ValueError):
            param.set_grad_shards([np.zeros(2)])


class TestMatmulChainIdentities:
    """Paper Eqn (2): the nonlinearity between the two GEMMs."""

    def test_elementwise_nonlinearity_commutes_with_column_split(self):
        """GeLU(x A) column blocks equal GeLU of the blocks — the property
        that lets Hybrid-STOP cover the feed-forward sublayer."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 5))
        a = rng.normal(size=(5, 8))
        full = F.gelu_forward(x @ a)[0]
        blocks = [F.gelu_forward(x @ a_k)[0] for a_k in column_shards(a, 4)]
        np.testing.assert_allclose(np.concatenate(blocks, axis=-1), full, rtol=1e-12)
