"""Property-based tests for the alpha-beta collective cost model.

These pin down the *shape* of the cost surface the tuner searches over:
monotonicity in message size, monotonicity in group size (within a
node, where the link spec is constant — across nodes, NIC contention
legitimately makes a bigger group on more nodes cheaper per member),
free single-rank collectives, and the ring identity
``all_reduce = reduce_scatter + all_gather``.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import VirtualCluster


def _model(num_gpus=32, gpus_per_node=8):
    return VirtualCluster(num_gpus=num_gpus, gpus_per_node=gpus_per_node).cost_model


COLLECTIVES = ("all_gather", "reduce_scatter", "all_reduce")

nbytes_pairs = st.tuples(
    st.integers(min_value=1, max_value=2**31),
    st.integers(min_value=0, max_value=2**31),
)


class TestMonotonicity:
    @given(pair=nbytes_pairs, op=st.sampled_from(COLLECTIVES),
           group_size=st.integers(min_value=2, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_cost_non_decreasing_in_bytes(self, pair, op, group_size):
        base, extra = pair
        model = _model()
        ranks = list(range(group_size))
        cost = getattr(model, op)
        assert cost(ranks, base + extra) >= cost(ranks, base)

    @given(nbytes=st.integers(min_value=1, max_value=2**31),
           op=st.sampled_from(COLLECTIVES),
           sizes=st.tuples(st.integers(min_value=1, max_value=8),
                           st.integers(min_value=1, max_value=8)))
    @settings(max_examples=60, deadline=None)
    def test_cost_non_decreasing_in_intra_node_group_size(
        self, nbytes, op, sizes
    ):
        """More members on the same link spec never makes a ring cheaper.

        Scoped to intra-node groups: inter-node groups change the NIC
        contention factor with member count, which is not monotone.
        """
        small, large = sorted(sizes)
        model = _model()
        cost = getattr(model, op)
        assert (
            cost(list(range(large)), nbytes)
            >= cost(list(range(small)), nbytes)
        )


class TestIdentities:
    @given(nbytes=st.integers(min_value=0, max_value=2**40),
           op=st.sampled_from(COLLECTIVES),
           rank=st.integers(min_value=0, max_value=31))
    @settings(max_examples=40, deadline=None)
    def test_single_rank_group_is_free(self, nbytes, op, rank):
        model = _model()
        assert getattr(model, op)([rank], nbytes) == 0.0

    @given(nbytes=st.integers(min_value=0, max_value=2**40),
           group=st.sampled_from([
               list(range(2)), list(range(8)),          # intra-node rings
               [0, 8, 16, 24], list(range(0, 32, 2)),   # inter-node rings
           ]))
    @settings(max_examples=40, deadline=None)
    def test_all_reduce_is_reduce_scatter_plus_all_gather(self, nbytes, group):
        """The ring identity the estimator's DDP replay relies on."""
        model = _model()
        combined = model.reduce_scatter(group, nbytes) + model.all_gather(
            group, nbytes
        )
        assert math.isclose(
            model.all_reduce(group, nbytes), combined, rel_tol=1e-12, abs_tol=0.0
        )
