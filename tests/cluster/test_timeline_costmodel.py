"""Tests for the timeline ledger and alpha-beta cost model."""

import pytest

from repro.cluster import CollectiveCostModel, FrontierTopology, Timeline, VirtualCluster


class TestTimeline:
    def test_compute_accumulates(self):
        tl = Timeline(2)
        tl.record_compute(0, 1.5, flops=10.0)
        tl.record_compute(0, 0.5, flops=5.0)
        assert tl.ledger(0).compute_s == 2.0
        assert tl.ledger(0).flops == 15.0
        assert tl.ledger(1).compute_s == 0.0

    def test_blocking_comm_fully_exposed(self):
        tl = Timeline(2)
        tl.record_compute(0, 1.0)
        tl.record_comm([0], seconds=0.4, nbytes=100, overlappable=False)
        assert tl.ledger(0).exposed_comm_s == pytest.approx(0.4)
        assert tl.ledger(0).walltime_s == pytest.approx(1.4)

    def test_overlappable_comm_hidden_up_to_budget(self):
        tl = Timeline(1)
        tl.record_compute(0, 0.3)
        tl.record_comm([0], seconds=0.5, nbytes=1, overlappable=True)
        led = tl.ledger(0)
        assert led.comm_s == pytest.approx(0.5)
        assert led.exposed_comm_s == pytest.approx(0.2)  # 0.3 hidden

    def test_overlap_budget_consumed(self):
        tl = Timeline(1)
        tl.record_compute(0, 1.0)
        tl.record_comm([0], 0.6, 1, overlappable=True)  # hides fully, budget 0.4
        tl.record_comm([0], 0.6, 1, overlappable=True)  # 0.4 hidden, 0.2 exposed
        assert tl.ledger(0).exposed_comm_s == pytest.approx(0.2)

    def test_blocking_comm_clears_budget(self):
        tl = Timeline(1)
        tl.record_compute(0, 1.0)
        tl.record_comm([0], 0.1, 1, overlappable=False)
        tl.record_comm([0], 0.1, 1, overlappable=True)
        assert tl.ledger(0).exposed_comm_s == pytest.approx(0.2)

    def test_walltime_is_max_over_ranks(self):
        tl = Timeline(3)
        tl.record_compute(0, 1.0)
        tl.record_compute(1, 3.0)
        tl.record_compute(2, 2.0)
        assert tl.walltime_s() == 3.0
        assert tl.walltime_s([0, 2]) == 2.0

    def test_reset(self):
        tl = Timeline(1)
        tl.record_compute(0, 1.0, flops=1.0)
        tl.reset()
        assert tl.walltime_s() == 0.0
        assert tl.ledger(0).flops == 0.0

    def test_negative_times_rejected(self):
        tl = Timeline(1)
        with pytest.raises(ValueError):
            tl.record_compute(0, -1.0)
        with pytest.raises(ValueError):
            tl.record_comm([0], -0.1, 0)


class TestCostModel:
    @pytest.fixture
    def model(self):
        return CollectiveCostModel(FrontierTopology(num_gpus=16, gpus_per_node=8))

    def test_single_rank_collectives_free(self, model):
        assert model.all_gather([3], 1 << 20) == 0.0
        assert model.all_reduce([3], 1 << 20) == 0.0

    def test_all_gather_ring_cost(self, model):
        # 4-rank intra-node group, 4 MiB total: 3 steps of 1 MiB at 50 GB/s.
        total = 4 << 20
        expected = 3 * (2e-6 + (1 << 20) / 50e9)
        assert model.all_gather([0, 1, 2, 3], total) == pytest.approx(expected)

    def test_all_reduce_twice_all_gather(self, model):
        ranks = [0, 1, 2, 3]
        nbytes = 8 << 20
        assert model.all_reduce(ranks, nbytes) == pytest.approx(
            2 * model.all_gather(ranks, nbytes)
        )

    def test_reduce_scatter_equals_all_gather(self, model):
        ranks = [0, 1, 2, 3]
        assert model.reduce_scatter(ranks, 1 << 20) == model.all_gather(ranks, 1 << 20)

    def test_inter_node_slower_than_intra(self, model):
        intra = model.all_gather([0, 1], 100 << 20)
        inter = model.all_gather([0, 8], 100 << 20)
        assert inter > intra

    def test_point_to_point(self, model):
        assert model.point_to_point(0, 0, 100) == 0.0
        intra = model.point_to_point(0, 1, 1 << 20)
        inter = model.point_to_point(0, 8, 1 << 20)
        assert 0 < intra < inter

    def test_larger_groups_cost_more(self, model):
        small = model.all_gather([0, 1], 8 << 20)
        large = model.all_gather([0, 1, 2, 3], 8 << 20)
        assert large > small


class TestVirtualCluster:
    def test_world_group(self):
        cluster = VirtualCluster(num_gpus=8)
        assert cluster.world.size == 8
        assert cluster.world_size == 8

    def test_new_group_validation(self):
        cluster = VirtualCluster(num_gpus=8)
        with pytest.raises(ValueError):
            cluster.new_group([0, 0])
        with pytest.raises(ValueError):
            cluster.new_group([8])
        with pytest.raises(ValueError):
            cluster.new_group([])

    def test_group_local_mapping(self):
        cluster = VirtualCluster(num_gpus=8)
        group = cluster.new_group([4, 2, 6])
        assert group.local_index(2) == 1
        assert group.global_rank(2) == 6
        assert 4 in group and 0 not in group
        with pytest.raises(ValueError):
            group.local_index(0)

    def test_device_memory_defaults(self):
        cluster = VirtualCluster(num_gpus=2)
        assert cluster.device(0).memory.capacity_bytes == 64 * 2**30  # 64 GiB HBM

    def test_untracked_memory(self):
        cluster = VirtualCluster(num_gpus=2, track_device_memory=False)
        assert cluster.device(0).memory.capacity_bytes is None

    def test_reset_clears_state(self):
        cluster = VirtualCluster(num_gpus=2)
        cluster.timeline.record_compute(0, 1.0)
        cluster.device(0).memory.allocate(100)
        cluster.reset()
        assert cluster.timeline.walltime_s() == 0.0
        assert cluster.device(0).memory.current_bytes == 0

