"""Tests for the Frontier-like topology model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FrontierTopology, LinkKind
from repro.cluster.symmetry import _effective_specs


class TestStructure:
    def test_node_layout(self):
        topo = FrontierTopology(num_gpus=32, gpus_per_node=8)
        assert topo.num_nodes == 4
        assert topo.node_of(0) == 0
        assert topo.node_of(15) == 1

    def test_single_partial_node(self):
        topo = FrontierTopology(num_gpus=4, gpus_per_node=8)
        assert topo.num_nodes == 1
        assert topo.node_of(3) == 0

    def test_non_integral_nodes_rejected(self):
        with pytest.raises(ValueError):
            FrontierTopology(num_gpus=12, gpus_per_node=8)

    def test_rank_bounds_checked(self):
        topo = FrontierTopology(num_gpus=8)
        with pytest.raises(ValueError):
            topo.node_of(8)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_positive_sizes_required(self, bad):
        with pytest.raises(ValueError):
            FrontierTopology(num_gpus=bad)


class TestLinkClassification:
    def test_link_kinds(self):
        topo = FrontierTopology(num_gpus=16, gpus_per_node=8)
        assert topo.link_kind(3, 3) is LinkKind.SELF
        assert topo.link_kind(0, 7) is LinkKind.INTRA_NODE
        assert topo.link_kind(0, 8) is LinkKind.INTER_NODE

    def test_group_link_kind(self):
        topo = FrontierTopology(num_gpus=16, gpus_per_node=8)
        assert topo.group_link_kind([2]) is LinkKind.SELF
        assert topo.group_link_kind([0, 3, 7]) is LinkKind.INTRA_NODE
        assert topo.group_link_kind([0, 8]) is LinkKind.INTER_NODE

    def test_link_specs(self):
        topo = FrontierTopology(num_gpus=16, gpus_per_node=8)
        assert topo.link_spec(LinkKind.INTRA_NODE).bandwidth_Bps == 50e9
        assert topo.link_spec(LinkKind.INTER_NODE).bandwidth_Bps == 100e9
        assert topo.link_spec(LinkKind.SELF).latency_s == 0.0


class TestEffectiveBandwidth:
    def test_intra_node_no_contention(self):
        topo = FrontierTopology(num_gpus=16, gpus_per_node=8)
        spec = topo.effective_bandwidth(list(range(8)))
        assert spec.bandwidth_Bps == 50e9

    def test_one_gpu_per_node_sees_shared_nic(self):
        # An FSDP group of one GCD per node competes with the 7 sibling
        # groups of each node for the 100 GB/s node injection bandwidth.
        topo = FrontierTopology(num_gpus=64, gpus_per_node=8)
        spec = topo.effective_bandwidth([0, 8, 16, 24])
        assert spec.bandwidth_Bps == pytest.approx(100e9 / 8)

    def test_whole_nodes_see_full_nic(self):
        topo = FrontierTopology(num_gpus=64, gpus_per_node=8)
        spec = topo.effective_bandwidth(list(range(16)))  # two whole nodes
        assert spec.bandwidth_Bps == pytest.approx(100e9)

    def test_inter_node_latency_used(self):
        topo = FrontierTopology(num_gpus=16, gpus_per_node=8)
        spec = topo.effective_bandwidth([0, 8])
        assert spec.latency_s == topo.inter_node.latency_s


class TestVectorizedMirror:
    """One NIC-contention rule: ``symmetry._effective_specs`` (the
    fold-eligibility sweep) must price every group exactly as the scalar
    ``effective_bandwidth`` the cost model charges it."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_effective_specs_equal_effective_bandwidth(self, data):
        gpus_per_node = data.draw(st.integers(1, 8), label="gpus_per_node")
        if data.draw(st.booleans(), label="partial_node"):
            num_gpus = data.draw(st.integers(1, gpus_per_node), label="num_gpus")
        else:
            num_gpus = gpus_per_node * data.draw(st.integers(1, 6), label="nodes")
        topo = FrontierTopology(num_gpus=num_gpus, gpus_per_node=gpus_per_node)
        group_size = data.draw(st.integers(1, num_gpus), label="group_size")
        rows = data.draw(
            st.lists(
                st.permutations(range(num_gpus)).map(lambda p: p[:group_size]),
                min_size=1, max_size=6,
            ),
            label="rows",
        )
        lat, bw = _effective_specs(topo, np.array(rows))
        for row, row_lat, row_bw in zip(rows, lat, bw):
            spec = topo.effective_bandwidth(row)
            assert (float(row_lat), float(row_bw)) == \
                (spec.latency_s, spec.bandwidth_Bps)
