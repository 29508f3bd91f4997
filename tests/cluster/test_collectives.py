"""Semantics tests for the functional collectives (real and meta mode)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import VirtualCluster, all_gather, all_reduce, reduce_scatter
from repro.meta import MetaArray


@pytest.fixture
def cluster():
    return VirtualCluster(num_gpus=8, gpus_per_node=4)


@pytest.fixture
def group(cluster):
    return cluster.new_group([0, 1, 2, 3])


class TestAllGather:
    def test_concatenates_in_group_order(self, group):
        shards = [np.full((2, 3), i, dtype=np.float32) for i in range(4)]
        outs = all_gather(group, shards)
        assert len(outs) == 4
        expected = np.concatenate(shards, axis=0)
        for out in outs:
            np.testing.assert_array_equal(out, expected)

    def test_axis_argument(self, group):
        shards = [np.full((2, 1), i, dtype=np.float32) for i in range(4)]
        outs = all_gather(group, shards, axis=1)
        assert outs[0].shape == (2, 4)
        np.testing.assert_array_equal(outs[0][0], [0, 1, 2, 3])

    def test_uneven_shards_supported(self, group):
        shards = [np.zeros((i + 1, 2)) for i in range(4)]
        outs = all_gather(group, shards)
        assert outs[0].shape == (1 + 2 + 3 + 4, 2)

    def test_meta_mode(self, group):
        shards = [MetaArray((2, 3)) for _ in range(4)]
        outs = all_gather(group, shards)
        assert outs[0].shape == (8, 3)

    def test_records_comm_time(self, cluster, group):
        shards = [np.zeros((1024, 1024), np.float32) for _ in range(4)]
        all_gather(group, shards)
        assert cluster.timeline.ledger(0).comm_s > 0
        assert cluster.timeline.ledger(7).comm_s == 0  # rank outside group

    def test_wrong_buffer_count_rejected(self, group):
        with pytest.raises(ValueError):
            all_gather(group, [np.zeros(2)] * 3)

    def test_mixed_meta_real_rejected(self, group):
        buffers = [np.zeros(2), MetaArray((2,)), np.zeros(2), np.zeros(2)]
        with pytest.raises(TypeError):
            all_gather(group, buffers)

    def test_singleton_group_identity(self, cluster):
        g1 = cluster.new_group([5])
        x = np.arange(3.0)
        (out,) = all_gather(g1, [x])
        np.testing.assert_array_equal(out, x)


class TestReduceScatter:
    def test_sum_then_shard(self, group):
        buffers = [np.arange(8.0) * (i + 1) for i in range(4)]
        outs = reduce_scatter(group, buffers, op="sum")
        full = np.arange(8.0) * 10
        for i, out in enumerate(outs):
            np.testing.assert_allclose(out, full[2 * i : 2 * i + 2])

    def test_mean(self, group):
        buffers = [np.full(4, float(i)) for i in range(4)]
        outs = reduce_scatter(group, buffers, op="mean")
        np.testing.assert_allclose(np.concatenate(outs), np.full(4, 1.5))

    def test_axis_argument(self, group):
        buffers = [np.ones((2, 8)) for _ in range(4)]
        outs = reduce_scatter(group, buffers, axis=1)
        assert outs[0].shape == (2, 2)
        np.testing.assert_allclose(outs[0], 4.0)

    def test_indivisible_axis_rejected(self, group):
        with pytest.raises(ValueError):
            reduce_scatter(group, [np.zeros(6)] * 4)

    def test_shape_mismatch_rejected(self, group):
        buffers = [np.zeros(8), np.zeros(8), np.zeros(8), np.zeros(4)]
        with pytest.raises(ValueError):
            reduce_scatter(group, buffers)

    def test_meta_mode(self, group):
        outs = reduce_scatter(group, [MetaArray((8, 2))] * 4)
        assert outs[0].shape == (2, 2)


class TestAllReduce:
    @pytest.mark.parametrize(
        "op,expected", [("sum", 6.0), ("mean", 1.5), ("max", 3.0), ("min", 0.0)]
    )
    def test_ops(self, group, op, expected):
        buffers = [np.full((2,), float(i)) for i in range(4)]
        outs = all_reduce(group, buffers, op=op)
        for out in outs:
            np.testing.assert_allclose(out, expected)

    def test_unknown_op_rejected(self, group):
        with pytest.raises(ValueError):
            all_reduce(group, [np.zeros(2)] * 4, op="prod")

    def test_meta_mode_preserves_shape(self, group):
        outs = all_reduce(group, [MetaArray((3, 3))] * 4)
        assert outs[0].shape == (3, 3)


class TestBarrierAndAccounting:
    def test_overlappable_comm_hidden_under_compute(self, cluster, group):
        cluster.timeline.record_compute(0, seconds=1.0)
        cluster.timeline.record_compute(1, seconds=1.0)
        cluster.timeline.record_compute(2, seconds=1.0)
        cluster.timeline.record_compute(3, seconds=1.0)
        all_gather(group, [np.zeros((1 << 20,), np.float32)] * 4, overlappable=True)
        led = cluster.timeline.ledger(0)
        assert led.comm_s > 0
        assert led.exposed_comm_s == 0.0


@settings(max_examples=25, deadline=None)
@given(
    group_size=st.integers(2, 6),
    length=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_property_allreduce_equals_allgather_sum(group_size, length, seed):
    """all_reduce(sum) must equal summing an all_gather — the identity the
    ring algorithm (reduce-scatter + all-gather) relies on."""
    rng = np.random.default_rng(seed)
    cluster = VirtualCluster(num_gpus=group_size, gpus_per_node=8)
    group = cluster.world
    buffers = [rng.normal(size=length) for _ in range(group_size)]
    reduced = all_reduce(group, buffers, op="sum")[0]
    gathered = all_gather(group, [b[None] for b in buffers])[0]
    np.testing.assert_allclose(reduced, gathered.sum(axis=0), rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(group_size=st.integers(2, 6), chunks=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_property_reduce_scatter_then_all_gather_is_all_reduce(group_size, chunks, seed):
    rng = np.random.default_rng(seed)
    cluster = VirtualCluster(num_gpus=group_size, gpus_per_node=8)
    group = cluster.world
    buffers = [rng.normal(size=group_size * chunks) for _ in range(group_size)]
    shards = reduce_scatter(group, buffers, op="sum")
    rebuilt = all_gather(group, shards)[0]
    expected = all_reduce(group, buffers, op="sum")[0]
    np.testing.assert_allclose(rebuilt, expected, rtol=1e-12)
