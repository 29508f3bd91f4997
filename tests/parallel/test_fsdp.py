"""Plain FSDP (paper Fig 2) as the ``tp=1`` grid point of the one engine.

A :class:`~repro.core.hybrid_block.HybridSTOPTrunk` over a
``HybridParallelPlan(tp_size=1, fsdp_size=N)`` is fully sharded data
parallelism: each member holds a flat shard of every parameter and its
own micro-batch, gathers per layer (or all layers at once without
layer wrapping — the peak-memory problem), and reduce-scatters its
gradients.  The whole-model checks run the engine at the same point.
"""

import numpy as np
import pytest

from repro.cluster import VirtualCluster
from repro.core import HybridSTOPTrunk
from repro.memory import OutOfDeviceMemoryError
from repro.models import OrbitConfig, build_model
from repro.nn.transformer import TransformerStack
from repro.parallel import HybridParallelPlan, HybridSTOPEngine


def fsdp_trunk(stack, group_size, budget=None, **kwargs):
    """``stack`` sharded over ``group_size`` ranks at ``tp=1``."""
    cluster = VirtualCluster(num_gpus=group_size, gpus_per_node=8,
                             gpu_memory_bytes=budget)
    plan = HybridParallelPlan(cluster, tp_size=1, fsdp_size=group_size)
    return HybridSTOPTrunk(stack, plan, **kwargs), cluster


def make_setup(group_size=2, dim=8, depth=2, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    reference = TransformerStack(dim, depth, 2, rng=seed, dtype=np.float64)
    template = TransformerStack(dim, depth, 2, rng=seed, dtype=np.float64)
    engine, cluster = fsdp_trunk(template, group_size, **kwargs)
    xs = [rng.normal(size=(2, 3, dim)) for _ in range(group_size)]
    grad_ys = [rng.normal(size=(2, 3, dim)) for _ in range(group_size)]
    return reference, engine, xs, grad_ys, cluster


def serial_reference(serial, xs, grad_ys):
    x_all = np.concatenate(xs, axis=0)
    g_all = np.concatenate(grad_ys, axis=0)
    y_all = serial(x_all)
    serial.zero_grad()
    gx_all = serial.backward(g_all)
    return (
        np.split(y_all, len(xs), axis=0),
        np.split(gx_all, len(xs), axis=0),
        {name: p.grad for name, p in serial.named_parameters()},
    )


def fsdp_engine(group_size=2, seed=3):
    """A whole ClimaX model on the engine at ``tp=1, fsdp=group_size``."""
    cfg = OrbitConfig("t", embed_dim=8, depth=1, num_heads=2, in_vars=2, out_vars=2,
                      img_height=8, img_width=8, patch_size=4)
    reference = build_model(cfg, rng=seed, dtype=np.float64)
    cluster = VirtualCluster(num_gpus=group_size)
    plan = HybridParallelPlan(cluster, tp_size=1, fsdp_size=group_size)
    engine = HybridSTOPEngine(build_model(cfg, rng=seed, dtype=np.float64), plan)
    return reference, engine


class TestEquivalence:
    @pytest.mark.parametrize("group_size", [1, 2, 4])
    def test_forward_matches_serial(self, group_size):
        reference, engine, xs, _, _ = make_setup(group_size=group_size)
        ys = engine.forward(xs)
        for x, y in zip(xs, ys):
            expected = reference(x)
            reference.clear_cache()
            np.testing.assert_allclose(y, expected, rtol=1e-9)

    @pytest.mark.parametrize("layer_wrapping", [True, False])
    def test_backward_matches_serial(self, layer_wrapping):
        reference, engine, xs, grad_ys, _ = make_setup(
            group_size=2, seed=1, layer_wrapping=layer_wrapping
        )
        ys_ref, gxs_ref, grads_ref = serial_reference(reference, xs, grad_ys)
        engine.forward(xs)
        gxs = engine.backward(grad_ys)
        for f in range(2):
            np.testing.assert_allclose(gxs[f], gxs_ref[f], rtol=1e-7, atol=1e-10)
        gathered = engine.gathered_grads()
        assert gathered.keys() == grads_ref.keys()
        for name, ref in grads_ref.items():
            np.testing.assert_allclose(gathered[name], ref, rtol=1e-7, atol=1e-10, err_msg=name)

    def test_gathered_state_roundtrip(self):
        reference, engine = fsdp_engine(seed=2)
        state = engine.gathered_state_dict()
        assert state.keys() == reference.state_dict().keys()
        for name, param in reference.named_parameters():
            np.testing.assert_array_equal(state[name], param.data, err_msg=name)

    def test_works_with_extra_args(self):
        """Per-member extra arguments (e.g. lead times) are routed through."""
        reference, engine = fsdp_engine(seed=3)
        rng = np.random.default_rng(0)
        xs = [rng.normal(size=(1, 2, 8, 8)) for _ in range(2)]
        leads = [np.array([24.0]), np.array([48.0])]
        ys = engine.forward([xs], [leads])[0]
        for x, lead, y in zip(xs, leads, ys):
            expected = reference(x, lead)
            reference.clear_cache()
            np.testing.assert_allclose(y, expected, rtol=1e-9)


class TestMemoryBehaviour:
    def test_peak_memory_problem_without_wrapping(self):
        """Fig 2's limitation: the full model is transiently materialized."""
        _, wrapped, xs, grad_ys, cluster_w = make_setup(
            group_size=2, depth=4, seed=4, layer_wrapping=True
        )
        wrapped.forward(xs)
        persistent = cluster_w.device(0).memory.category_current("params")
        peak_wrapped = max(cluster_w.device(r).memory.peak_bytes for r in range(2))
        _, unwrapped, xs2, _, cluster_u = make_setup(
            group_size=2, depth=4, seed=4, layer_wrapping=False
        )
        unwrapped.forward(xs2)
        peak_unwrapped = max(cluster_u.device(r).memory.peak_bytes for r in range(2))
        # Beyond the (identical) persistent shards, the unwrapped run
        # transiently holds all four layers instead of one.
        assert peak_unwrapped - persistent > 2 * (peak_wrapped - persistent)

    def test_oom_without_wrapping_fits_with_wrapping(self):
        budget = 120_000
        xs = [np.zeros((1, 3, 16)) for _ in range(2)]
        engine, _ = fsdp_trunk(TransformerStack(16, 4, 2, rng=0, dtype=np.float64),
                               2, budget=budget, layer_wrapping=False)
        with pytest.raises(OutOfDeviceMemoryError):
            engine.forward(xs)

        engine2, _ = fsdp_trunk(TransformerStack(16, 4, 2, rng=0, dtype=np.float64),
                                2, budget=budget, layer_wrapping=True)
        engine2.forward(xs)  # fits

    def test_peak_memory_order_of_figs_2_and_3(self):
        """Unwrapped FSDP > 1.5x wrapped FSDP > Hybrid-STOP, per device,
        all three on the one engine (the sharding ablation's shapes)."""
        def peak(tp, fsdp, layer_wrapping=True):
            cluster = VirtualCluster(num_gpus=4, gpus_per_node=8)
            plan = HybridParallelPlan(cluster, tp_size=tp, fsdp_size=fsdp)
            trunk = HybridSTOPTrunk(TransformerStack(32, 4, 2, rng=0, dtype=np.float64),
                                    plan, layer_wrapping=layer_wrapping)
            batch = [np.zeros((4 // fsdp, 4, 32))] * fsdp
            trunk.forward(batch)
            trunk.backward(batch)
            return max(cluster.device(r).memory.peak_bytes for r in range(4))

        unwrapped, wrapped, hybrid = peak(1, 4, False), peak(1, 4), peak(2, 2)
        assert unwrapped > 1.5 * wrapped
        assert wrapped > hybrid

    def test_params_freed_between_steps(self):
        _, engine, xs, grad_ys, cluster = make_setup(seed=5)
        engine.forward(xs)
        engine.backward(grad_ys)
        for rank in range(2):
            assert cluster.device(rank).memory.category_current("gathered") == 0


class TestErrors:
    def test_wrong_batch_count(self):
        _, engine, xs, _, _ = make_setup(group_size=2)
        with pytest.raises(ValueError):
            engine.forward(xs[:1])

    def test_backward_without_forward(self):
        _, engine, _, grad_ys, _ = make_setup()
        with pytest.raises(RuntimeError):
            engine.backward(grad_ys)

    def test_grad_comm_recorded(self):
        _, engine, xs, grad_ys, cluster = make_setup(seed=6)
        engine.forward(xs)
        engine.backward(grad_ys)
        assert cluster.timeline.ledger(0).comm_bytes > 0
