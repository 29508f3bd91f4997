"""Failure injection: the engines fail loudly and cleanly, not silently.

A distributed training system's error paths matter as much as its happy
paths: simulated OOM must surface as the right exception, gradient
overflow must skip updates without corrupting state, and misuse of the
engine API must be rejected before it produces wrong numbers.
"""

import numpy as np
import pytest

from repro.cluster import VirtualCluster
from repro.core import HybridSTOPMLP, HybridSTOPTrunk
from repro.memory import OutOfDeviceMemoryError
from repro.nn import DynamicGradScaler
from repro.nn.mlp import MLP
from repro.nn.transformer import TransformerStack
from repro.parallel import HybridParallelPlan


class TestSimulatedOOM:
    def test_construction_oom_when_shards_exceed_memory(self):
        cluster = VirtualCluster(num_gpus=2, gpu_memory_bytes=64)
        plan = HybridParallelPlan(cluster, tp_size=1, fsdp_size=2)
        serial = MLP(16, 32, rng=0, dtype=np.float64)
        with pytest.raises(OutOfDeviceMemoryError):
            HybridSTOPMLP(serial, plan)

    def test_forward_oom_from_gather(self):
        # Shards fit, but the transient gathered layer does not.
        serial = MLP(16, 32, rng=0, dtype=np.float64)
        shard_bytes = sum(p.data.nbytes for p in serial.parameters()) // 2
        cluster = VirtualCluster(num_gpus=2, gpu_memory_bytes=int(shard_bytes * 1.5))
        plan = HybridParallelPlan(cluster, tp_size=1, fsdp_size=2)
        hybrid = HybridSTOPMLP(serial, plan)
        with pytest.raises(OutOfDeviceMemoryError):
            hybrid.forward([np.zeros((1, 2, 16))] * 2)

    def test_oom_error_carries_diagnostics(self):
        cluster = VirtualCluster(num_gpus=2, gpu_memory_bytes=64)
        plan = HybridParallelPlan(cluster, tp_size=1, fsdp_size=2)
        try:
            HybridSTOPMLP(MLP(16, 32, rng=0, dtype=np.float64), plan)
        except OutOfDeviceMemoryError as err:
            assert err.capacity == 64
            assert err.requested > 0
            assert "gpu" in err.device
        else:  # pragma: no cover
            pytest.fail("expected OOM")

    def test_fsdp_unwrapped_oom_is_the_full_model_gather(self):
        budget = 120_000
        cluster = VirtualCluster(num_gpus=2, gpu_memory_bytes=budget)
        plan = HybridParallelPlan(cluster, tp_size=1, fsdp_size=2)
        template = TransformerStack(16, 4, 2, rng=0, dtype=np.float64)
        engine = HybridSTOPTrunk(template, plan, layer_wrapping=False)
        persistent = cluster.device(0).memory.category_current("params")
        with pytest.raises(OutOfDeviceMemoryError):
            engine.forward([np.zeros((1, 3, 16))] * 2)
        # The failure happened at the full-model gather; persistent
        # shards are intact.
        assert persistent > 0
        assert cluster.device(0).memory.category_current("params") == persistent


class TestGradientOverflowRecovery:
    def test_scaler_skips_and_training_continues(self):
        """Inject an overflow mid-training: the step is skipped, the
        scale backs off, and subsequent steps proceed normally."""
        scaler = DynamicGradScaler(init_scale=8.0, growth_interval=1000)
        from repro.nn import Parameter

        param = Parameter(np.array([1.0]))
        before = param.data.copy()

        # Poisoned step.
        param.add_grad(np.array([np.inf]))
        assert not scaler.unscale_and_check([param])
        param.zero_grad()
        # Optimizer would be skipped; parameter unchanged.
        np.testing.assert_array_equal(param.data, before)
        assert scaler.scale == 4.0

        # Clean step works at the backed-off scale.
        param.add_grad(np.array([8.0]))
        assert scaler.unscale_and_check([param])
        np.testing.assert_allclose(param.grad, [2.0])


class TestAPIMisuse:
    def test_trunk_double_backward_rejected(self):
        cluster = VirtualCluster(num_gpus=2, gpus_per_node=8)
        plan = HybridParallelPlan(cluster, tp_size=1, fsdp_size=2)
        serial = TransformerStack(8, 1, 2, rng=0, dtype=np.float64)
        trunk = HybridSTOPTrunk(serial, plan)
        xs = [np.zeros((1, 2, 8))] * 2
        trunk.forward(xs)
        trunk.backward([np.zeros((1, 2, 8))] * 2)
        with pytest.raises(RuntimeError):
            trunk.backward([np.zeros((1, 2, 8))] * 2)

    def test_collective_buffer_shape_mismatch_rejected(self):
        from repro.cluster.collectives import all_reduce

        cluster = VirtualCluster(num_gpus=2)
        with pytest.raises(ValueError):
            all_reduce(cluster.world, [np.zeros(3), np.zeros(4)])

    def test_plan_group_from_wrong_cluster_rank(self):
        cluster = VirtualCluster(num_gpus=4)
        plan = HybridParallelPlan(cluster, tp_size=2, fsdp_size=2)
        with pytest.raises(ValueError):
            plan.tp_group(0, 5)
