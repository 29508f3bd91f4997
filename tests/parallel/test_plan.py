"""Tests for the hierarchical parallel group layout (paper Fig 4)."""

import pytest

from repro.cluster import VirtualCluster
from repro.parallel import HybridParallelPlan


class TestRankArithmetic:
    def test_roundtrip(self):
        cluster = VirtualCluster(num_gpus=16, gpus_per_node=8)
        plan = HybridParallelPlan(cluster, tp_size=2, fsdp_size=4, ddp_size=2)
        for d in range(2):
            for f in range(4):
                for k in range(2):
                    assert plan.coords(plan.rank(d, f, k)) == (d, f, k)

    def test_all_ranks_covered_once(self):
        cluster = VirtualCluster(num_gpus=16, gpus_per_node=8)
        plan = HybridParallelPlan(cluster, tp_size=4, fsdp_size=2, ddp_size=2)
        ranks = {
            plan.rank(d, f, k) for d in range(2) for f in range(2) for k in range(4)
        }
        assert ranks == set(range(16))

    def test_size_mismatch_rejected(self):
        cluster = VirtualCluster(num_gpus=16, gpus_per_node=8)
        with pytest.raises(ValueError):
            HybridParallelPlan(cluster, tp_size=4, fsdp_size=2, ddp_size=1)

    def test_size_mismatch_message_shows_arithmetic(self):
        """The error spells out the factor product vs the world size."""
        cluster = VirtualCluster(num_gpus=16, gpus_per_node=8)
        with pytest.raises(ValueError) as exc:
            HybridParallelPlan(cluster, tp_size=4, fsdp_size=2, ddp_size=3)
        message = str(exc.value)
        assert "tp(4) * fsdp(2) * ddp(3) = 24" in message
        assert "world size 16" in message

    def test_nonpositive_sizes_rejected(self):
        cluster = VirtualCluster(num_gpus=16, gpus_per_node=8)
        with pytest.raises(ValueError, match="positive"):
            HybridParallelPlan(cluster, tp_size=0, fsdp_size=4, ddp_size=4)

    def test_repr_names_every_axis(self):
        cluster = VirtualCluster(num_gpus=16, gpus_per_node=8)
        plan = HybridParallelPlan(
            cluster, tp_size=4, fsdp_size=2, ddp_size=2, tp_innermost=False
        )
        assert repr(plan) == (
            "HybridParallelPlan(ddp=2, fsdp=2, tp=4, tp_innermost=False)"
        )

    def test_coordinate_bounds_checked(self):
        cluster = VirtualCluster(num_gpus=4)
        plan = HybridParallelPlan(cluster, tp_size=2, fsdp_size=2)
        with pytest.raises(ValueError):
            plan.rank(0, 2, 0)


def _nodes(cluster, group) -> int:
    """How many nodes a group's ranks sit on."""
    return len({cluster.topology.node_of(rank) for rank in group.ranks})


class TestGroupPlacement:
    def test_tp_groups_are_intra_node(self):
        """Fig 4: tensor-parallel groups ride the in-node Infinity Fabric."""
        cluster = VirtualCluster(num_gpus=32, gpus_per_node=8)
        plan = HybridParallelPlan(cluster, tp_size=8, fsdp_size=4)
        for f in range(4):
            group = plan.tp_group(0, f)
            assert _nodes(cluster, group) == 1

    def test_fsdp_groups_span_nodes(self):
        cluster = VirtualCluster(num_gpus=32, gpus_per_node=8)
        plan = HybridParallelPlan(cluster, tp_size=8, fsdp_size=4)
        for k in range(8):
            group = plan.fsdp_group(0, k)
            assert _nodes(cluster, group) == 4

    def test_pessimal_mapping_flips_placement(self):
        """tp_innermost=False puts FSDP in-node and TP across nodes (ablation)."""
        cluster = VirtualCluster(num_gpus=32, gpus_per_node=8)
        plan = HybridParallelPlan(cluster, tp_size=4, fsdp_size=8, tp_innermost=False)
        assert _nodes(cluster, plan.fsdp_group(0, 0)) == 1
        assert _nodes(cluster, plan.tp_group(0, 0)) == 4

    def test_groups_are_cached(self):
        cluster = VirtualCluster(num_gpus=4)
        plan = HybridParallelPlan(cluster, tp_size=2, fsdp_size=2)
        assert plan.tp_group(0, 0) is plan.tp_group(0, 0)

    def test_orthogonality(self):
        """Each rank belongs to exactly one group per axis, and groups of
        the same axis are disjoint."""
        cluster = VirtualCluster(num_gpus=16, gpus_per_node=8)
        plan = HybridParallelPlan(cluster, tp_size=2, fsdp_size=4, ddp_size=2)
        tp_members = [r for d in range(2) for f in range(4) for r in plan.tp_group(d, f).ranks]
        assert sorted(tp_members) == list(range(16))
        fsdp_members = [r for d in range(2) for k in range(2) for r in plan.fsdp_group(d, k).ranks]
        assert sorted(fsdp_members) == list(range(16))
        ddp_members = [r for f in range(4) for k in range(2) for r in plan.ddp_group(f, k).ranks]
        assert sorted(ddp_members) == list(range(16))
