"""Tests for the Frontier-like topology model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FrontierTopology, LinkKind, VirtualCluster
from repro.cluster.symmetry import RankClassPartition
from repro.parallel import HybridParallelPlan


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
        assert _bottleneck_link(topo, [2]) is LinkKind.SELF
        assert _bottleneck_link(topo, [0, 3, 7]) is LinkKind.INTRA_NODE
        assert _bottleneck_link(topo, [0, 8]) is LinkKind.INTER_NODE

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

    def test_rank_outside_the_world_rejected(self):
        topo = FrontierTopology(num_gpus=16, gpus_per_node=8)
        for ranks in ([0, 16], [-1, 3], [16]):
            with pytest.raises(ValueError, match="out of range"):
                topo.effective_bandwidth(ranks)


def _bottleneck_link(topology, ranks) -> LinkKind:
    """A group's bottleneck link, from the nodes its ranks sit on."""
    if len(ranks) <= 1:
        return LinkKind.SELF
    nodes = {topology.node_of(rank) for rank in ranks}
    return LinkKind.INTRA_NODE if len(nodes) == 1 else LinkKind.INTER_NODE


def reference_effective_bandwidth(topology, ranks) -> tuple[float, float]:
    """The scalar NIC-contention loop: (latency_s, bandwidth_Bps) of one
    group, counted rank by rank — the oracle of ``effective_specs``."""
    kind = _bottleneck_link(topology, ranks)
    spec = topology.link_spec(kind)
    if kind is not LinkKind.INTER_NODE:
        return spec.latency_s, spec.bandwidth_Bps
    per_node: dict[int, int] = {}
    for rank in ranks:
        node = topology.node_of(rank)
        per_node[node] = per_node.get(node, 0) + 1
    node_occupancy = min(topology.gpus_per_node, topology.num_gpus)
    contention = max(1, node_occupancy // max(per_node.values()))
    return spec.latency_s, spec.bandwidth_Bps / contention


def reference_layout(pp, tp, fsdp, ddp, tp_innermost) -> list[tuple]:
    """``(s, d, f, k)`` of every rank in rank order, by counting (paper
    Fig 4): stage outermost, then the DDP replica, then FSDP and TP with
    TP innermost (FSDP innermost when ``tp_innermost`` is False)."""
    coords = []
    for s in range(pp):
        for d in range(ddp):
            for outer in range(fsdp if tp_innermost else tp):
                for inner in range(tp if tp_innermost else fsdp):
                    f, k = (outer, inner) if tp_innermost else (inner, outer)
                    coords.append((s, d, f, k))
    return coords


def reference_tp_spans_nodes(rank_of, pp, tp, fsdp, ddp, gpus_per_node) -> bool:
    """Whether any TP group (fixed s, d, f) holds ranks of two nodes."""
    for s in range(pp):
        for d in range(ddp):
            for f in range(fsdp):
                nodes = {rank_of[s, d, f, k] // gpus_per_node for k in range(tp)}
                if len(nodes) > 1:
                    return True
    return False


class TestOneLayout:
    """One layout (``RankClassPartition.rank``, which the plan, the fold
    proof and the legality check read) and one NIC price
    (``FrontierTopology.effective_specs``), against the loops above."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_plan_partition_and_price_match_the_reference_loops(self, data):
        pp, tp, fsdp, ddp = (data.draw(st.integers(1, 4), label=axis)
                             for axis in ("pp", "tp", "fsdp", "ddp"))
        tp_innermost = data.draw(st.booleans(), label="tp_innermost")
        world = pp * tp * fsdp * ddp
        gpus_per_node = data.draw(st.sampled_from(
            [g for g in range(1, 9) if world <= g or world % g == 0]),
            label="gpus_per_node")
        coords = reference_layout(pp, tp, fsdp, ddp, tp_innermost)
        rank_of = {c: rank for rank, c in enumerate(coords)}
        cluster = VirtualCluster(world, gpus_per_node, track_device_memory=False)
        plan = HybridParallelPlan(cluster, tp, fsdp, ddp, tp_innermost, pp)
        part = RankClassPartition(tp, fsdp, ddp, tp_innermost, pp)
        grid = part.rank_grid()

        for rank, (s, d, f, k) in enumerate(coords):
            if s == 0:
                assert plan.rank(d, f, k) == rank
            assert plan.stage_plan(s).rank(d, f, k) == rank
            assert plan.stage_coords(rank) == (s, d, f, k)
            assert plan.coords(rank) == (d, f, k)
            assert grid[s, d, f, k] == rank
            assert part.class_of(rank) == (s, k, f == 0)
        for key in part.keys:
            assert part.members(key) == [
                rank for rank, (s, _, f, k) in enumerate(coords)
                if (s, k, f == 0) == key]
        assert part.fsdp_stride == (
            rank_of[0, 0, 1, 0] - rank_of[0, 0, 0, 0] if fsdp > 1 else 0)
        assert part.tp_spans_nodes(gpus_per_node) == reference_tp_spans_nodes(
            rank_of, pp, tp, fsdp, ddp, gpus_per_node)

        # The price of every TP / FSDP / DDP group of the layout, and of
        # arbitrary rank subsets (partial nodes included).
        topology = cluster.topology
        size = data.draw(st.integers(1, world), label="group_size")
        rows = data.draw(st.lists(
            st.permutations(range(world)).map(lambda p: p[:size]),
            min_size=1, max_size=6), label="rows")
        for family in (grid.reshape(-1, tp),
                       grid.transpose(0, 1, 3, 2).reshape(-1, fsdp),
                       grid.transpose(0, 2, 3, 1).reshape(-1, ddp),
                       np.array(rows)):
            lat, bw = topology.effective_specs(family)
            for row, row_lat, row_bw in zip(family.tolist(), lat, bw):
                want = reference_effective_bandwidth(topology, row)
                assert (float(row_lat), float(row_bw)) == want
                spec = topology.effective_bandwidth(row)
                assert (spec.latency_s, spec.bandwidth_Bps) == want
