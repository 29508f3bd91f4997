"""Algebraic invariants of the functional collectives.

Property-style checks beyond the per-primitive semantics tests:
round-trip identities, reduction algebra, meta/real cost parity, and
error paths that must stay errors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import VirtualCluster, all_gather, all_reduce, reduce_scatter
from repro.meta import MetaArray


def make_group(group_size: int):
    cluster = VirtualCluster(num_gpus=8, gpus_per_node=4)
    return cluster.new_group(list(range(group_size)))


@settings(max_examples=25, deadline=None)
@given(
    group_size=st.sampled_from([1, 2, 4]),
    chunks=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_reduce_scatter_all_gather_round_trip(group_size, chunks, seed):
    """all_gather(reduce_scatter(x, sum)) == elementwise sum of x."""
    group = make_group(group_size)
    rng = np.random.default_rng(seed)
    buffers = [
        rng.normal(size=(group_size * chunks, 3)).astype(np.float64)
        for _ in range(group_size)
    ]
    shards = reduce_scatter(group, buffers, op="sum")
    rebuilt = all_gather(group, shards)
    expected = np.sum(buffers, axis=0)
    for out in rebuilt:
        np.testing.assert_allclose(out, expected, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    group_size=st.sampled_from([1, 2, 4, 8]),
    shape=st.lists(st.integers(min_value=1, max_value=3), min_size=1,
                   max_size=3),
    axis=st.integers(min_value=-3, max_value=2),
    op=st.sampled_from(["sum", "mean", "max", "min"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_reduce_scatter_shards_equal_the_take_reference(
        group_size, shape, axis, op, seed):
    """The shards are slices of one reduction; they must be what
    ``np.take`` per member produced, own their memory layout
    (C-contiguous) and alias neither each other nor an input."""
    if not -len(shape) <= axis < len(shape):
        axis = 0
    shape[axis] *= group_size
    group = make_group(group_size)
    rng = np.random.default_rng(seed)
    buffers = [rng.normal(size=shape) for _ in range(group_size)]
    inputs = [b.copy() for b in buffers]
    shards = reduce_scatter(group, buffers, op=op, axis=axis)

    reduced = getattr(np, op)(np.stack(inputs), axis=0)
    shard_len = shape[axis] // group_size
    reference = [
        np.take(reduced, range(i * shard_len, (i + 1) * shard_len), axis=axis)
        for i in range(group_size)
    ]
    assert len(shards) == group_size
    for shard, want in zip(shards, reference):
        assert shard.flags.c_contiguous
        np.testing.assert_array_equal(shard, want)
    for i, shard in enumerate(shards):
        shard += 1.0
        for j, (other, want) in enumerate(zip(shards, reference)):
            np.testing.assert_array_equal(other, want + (i >= j))
    for buffer, original in zip(buffers, inputs):
        np.testing.assert_array_equal(buffer, original)


@settings(max_examples=25, deadline=None)
@given(
    group_size=st.sampled_from([1, 2, 4]),
    length=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_all_reduce_mean_is_sum_over_size(group_size, length, seed):
    group = make_group(group_size)
    rng = np.random.default_rng(seed)
    buffers = [rng.normal(size=length) for _ in range(group_size)]
    means = all_reduce(group, [b.copy() for b in buffers], op="mean")
    sums = all_reduce(group, [b.copy() for b in buffers], op="sum")
    for mean_out, sum_out in zip(means, sums):
        np.testing.assert_allclose(mean_out, sum_out / group_size, rtol=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    group_size=st.sampled_from([2, 4]),
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=4),
)
def test_meta_mode_cost_equals_real_mode_cost(group_size, rows, cols):
    """Identical shapes must be costed identically in meta and real mode."""
    shape = (group_size * rows, cols)

    def run(make_buffer):
        group = make_group(group_size)
        tl = group.cluster.timeline
        bufs = [make_buffer(shape) for _ in range(group_size)]
        all_gather(group, bufs)
        reduce_scatter(group, [make_buffer(shape) for _ in range(group_size)])
        all_reduce(group, [make_buffer(shape) for _ in range(group_size)])
        return [
            (tl.ledger(r).comm_s, tl.ledger(r).comm_bytes) for r in group.ranks
        ]

    real = run(lambda s: np.zeros(s, dtype=np.float32))
    meta = run(lambda s: MetaArray(s, np.float32))
    assert real == meta


class TestErrorPaths:
    @pytest.fixture
    def group(self):
        return make_group(4)

    def test_wrong_buffer_count(self, group):
        with pytest.raises(ValueError, match="expected 4 buffers"):
            all_reduce(group, [np.zeros(2)] * 3)

    def test_mixed_meta_and_real(self, group):
        bufs = [np.zeros(2), MetaArray((2,)), np.zeros(2), np.zeros(2)]
        with pytest.raises(TypeError, match="cannot mix"):
            all_gather(group, bufs)

    def test_reduce_scatter_indivisible(self, group):
        with pytest.raises(ValueError, match="not divisible"):
            reduce_scatter(group, [np.zeros((5, 2))] * 4)

    def test_unknown_reduce_op(self, group):
        with pytest.raises(ValueError, match="unknown reduce op"):
            all_reduce(group, [np.zeros(2)] * 4, op="median")

    def test_errors_record_no_comm_time(self, group):
        """A rejected collective must not pollute the ledgers."""
        with pytest.raises(ValueError):
            all_reduce(group, [np.zeros(2)] * 3)
        assert group.cluster.timeline.ledger(0).comm_s == 0.0
