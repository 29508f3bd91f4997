"""Megatron tensor parallelism and DDP as grid points of the one engine.

Megatron-style tensor parallelism is the ``fsdp=1`` point of a
Hybrid-STOP block or trunk (singleton gathers are free, the flat
"shards" are the whole tensor-parallel shard); DDP is the engine at
``tp=fsdp=1, ddp=D``.
"""

import numpy as np
import pytest

from repro.cluster import VirtualCluster
from repro.core import HybridSTOPBlock, HybridSTOPTrunk
from repro.models import OrbitConfig, build_model
from repro.nn.transformer import TransformerBlock, TransformerStack
from repro.parallel import HybridParallelPlan, HybridSTOPEngine


def tp_plan(tp_size):
    return HybridParallelPlan(VirtualCluster(num_gpus=tp_size), tp_size=tp_size, fsdp_size=1)


class TestTensorParallel:
    def test_block_equivalence(self):
        rng = np.random.default_rng(0)
        serial = TransformerBlock(8, 4, rng=0, dtype=np.float64)
        reference = TransformerBlock(8, 4, rng=0, dtype=np.float64)
        tp = HybridSTOPBlock(serial, tp_plan(4))
        x = rng.normal(size=(2, 3, 8))
        g = rng.normal(size=(2, 3, 8))
        y = tp.forward([x])[0]
        expected = reference(x)
        np.testing.assert_allclose(y, expected, rtol=1e-9)
        gx = tp.backward([g])[0]
        reference.zero_grad()
        gx_ref = reference.backward(g)
        np.testing.assert_allclose(gx, gx_ref, rtol=1e-8, atol=1e-11)

    def test_indivisible_heads_rejected(self):
        serial = TransformerBlock(12, 3, rng=0)
        with pytest.raises(ValueError, match="num_heads 3 not divisible"):
            HybridSTOPBlock(serial, tp_plan(2))

    def test_trunk_equivalence(self):
        rng = np.random.default_rng(1)
        serial = TransformerStack(8, 2, 2, rng=1, dtype=np.float64)
        reference = TransformerStack(8, 2, 2, rng=1, dtype=np.float64)
        tp = HybridSTOPTrunk(serial, tp_plan(2))
        x = rng.normal(size=(2, 3, 8))
        np.testing.assert_allclose(tp.forward([x])[0], reference(x), rtol=1e-8)

    def test_no_gather_memory_traffic(self):
        """Plain TP keeps shards resident: no FSDP gather comm for params
        beyond the free singleton gathers."""
        serial = TransformerBlock(8, 4, rng=0, dtype=np.float64)
        plan = tp_plan(4)
        tp = HybridSTOPBlock(serial, plan)
        x = np.random.default_rng(0).normal(size=(2, 3, 8))
        tp.forward([x])
        # Activations are all-reduced (cost > 0) but gathers over singleton
        # FSDP groups are free.
        led = plan.cluster.timeline.ledger(0)
        assert led.comm_s > 0


TINY = OrbitConfig("ddp-tiny", embed_dim=8, depth=1, num_heads=2, in_vars=2,
                   out_vars=2, img_height=8, img_width=8, patch_size=4)


class TestDDP:
    def _setup(self, replicas=2, seed=0):
        rng = np.random.default_rng(seed)
        reference = build_model(TINY, rng=seed, dtype=np.float64)
        cluster = VirtualCluster(num_gpus=replicas, gpus_per_node=8)
        plan = HybridParallelPlan(cluster, tp_size=1, fsdp_size=1, ddp_size=replicas)
        engine = HybridSTOPEngine(build_model(TINY, rng=seed, dtype=np.float64), plan)
        xs = [[rng.normal(size=(3, 2, 8, 8))] for _ in range(replicas)]
        leads = [[np.full((3,), 24.0)] for _ in range(replicas)]
        grad_ys = [[rng.normal(size=(3, 2, 8, 8))] for _ in range(replicas)]
        return reference, engine, (xs, leads), grad_ys, cluster

    def test_replicas_start_in_sync(self):
        _, engine, _, _, _ = self._setup()
        reference = engine.gathered_state_dict(0)
        replica = engine.gathered_state_dict(1)
        assert reference.keys() == replica.keys()
        for name, value in reference.items():
            np.testing.assert_array_equal(replica[name], value, err_msg=name)

    def test_forward_identical_to_serial_per_replica(self):
        reference, engine, (xs, leads), _, _ = self._setup()
        ys = engine.forward(xs, leads)
        for x, lead, y in zip(xs, leads, ys):
            expected = reference(x[0], lead[0])
            reference.clear_cache()
            np.testing.assert_allclose(y[0], expected, rtol=1e-12)

    def test_reduced_grads_match_global_batch(self):
        reference, engine, (xs, leads), grad_ys, _ = self._setup(seed=1)
        engine.forward(xs, leads)
        engine.backward(grad_ys)
        engine.allreduce_gradients()
        reference(np.concatenate([x[0] for x in xs]),
                  np.concatenate([lead[0] for lead in leads]))
        reference.zero_grad()
        reference.backward(np.concatenate([g[0] for g in grad_ys]))
        ref_grads = {n: p.grad for n, p in reference.named_parameters()}
        for d in range(2):
            grads = {n: p.grad for n, p in engine.fronts[d][0].named_parameters()}
            grads.update((n, p.grad) for n, p in engine.heads[d][0].named_parameters())
            grads.update(engine.trunks[d].gathered_grads())
            assert grads.keys() == ref_grads.keys()
            for name, grad in grads.items():
                np.testing.assert_allclose(grad, ref_grads[name], rtol=1e-10,
                                           atol=1e-13, err_msg=name)

    def test_grad_reduction_comm_recorded(self):
        _, engine, (xs, leads), grad_ys, cluster = self._setup(seed=2)
        engine.forward(xs, leads)
        engine.backward(grad_ys)
        before = cluster.timeline.ledger(0).comm_bytes
        engine.allreduce_gradients()
        assert cluster.timeline.ledger(0).comm_bytes > before

    def test_missing_grad_raises(self):
        _, engine, (xs, leads), grad_ys, _ = self._setup()
        engine.forward(xs, leads)
        engine.backward(grad_ys)
        engine.fronts[1][0].zero_grad()  # replica 1 lost its dense grads
        with pytest.raises(RuntimeError, match="missing a replica gradient"):
            engine.allreduce_gradients()

    def test_invalid_replica_count(self):
        cluster = VirtualCluster(num_gpus=4)
        with pytest.raises(ValueError):
            HybridParallelPlan(cluster, ddp_size=3)
        with pytest.raises(ValueError):
            HybridParallelPlan(cluster, ddp_size=0)
