"""End-to-end equivalence tests for the full HybridSTOPEngine."""

import numpy as np
import pytest

from repro.cluster import VirtualCluster
from repro.models import OrbitConfig, build_model
from repro.parallel import HybridParallelPlan, HybridSTOPEngine

TINY = OrbitConfig(
    "tiny",
    embed_dim=8,
    depth=2,
    num_heads=2,
    in_vars=3,
    out_vars=2,
    img_height=8,
    img_width=8,
    patch_size=4,
)


def make_engine(tp=2, fsdp=2, ddp=1, seed=0, **kwargs):
    cluster = VirtualCluster(num_gpus=tp * fsdp * ddp, gpus_per_node=8)
    plan = HybridParallelPlan(cluster, tp_size=tp, fsdp_size=fsdp, ddp_size=ddp)
    model = build_model(TINY, rng=seed, dtype=np.float64)
    engine = HybridSTOPEngine(model, plan, **kwargs)
    return engine, cluster, plan


def make_batches(ddp, fsdp, micro_batch=2, seed=0):
    rng = np.random.default_rng(seed)
    xs = [
        [rng.normal(size=(micro_batch, 3, 8, 8)) for _ in range(fsdp)] for _ in range(ddp)
    ]
    leads = [[np.full((micro_batch,), 24.0) for _ in range(fsdp)] for _ in range(ddp)]
    grad_ys = [
        [rng.normal(size=(micro_batch, 2, 8, 8)) for _ in range(fsdp)] for _ in range(ddp)
    ]
    return xs, leads, grad_ys


def serial_reference(seed, xs, leads, grad_ys):
    """Serial model over the flattened global batch."""
    model = build_model(TINY, rng=seed, dtype=np.float64)
    x_all = np.concatenate([x for replica in xs for x in replica], axis=0)
    lead_all = np.concatenate([l for replica in leads for l in replica], axis=0)
    g_all = np.concatenate([g for replica in grad_ys for g in replica], axis=0)
    y_all = model(x_all, lead_all)
    model.zero_grad()
    gx_all = model.backward(g_all)
    return model, y_all, gx_all


@pytest.mark.parametrize("tp,fsdp,ddp", [(1, 1, 1), (2, 2, 1), (2, 1, 2), (2, 2, 2)])
def test_forward_matches_serial(tp, fsdp, ddp):
    engine, _, _ = make_engine(tp=tp, fsdp=fsdp, ddp=ddp, seed=11)
    xs, leads, grad_ys = make_batches(ddp, fsdp, seed=1)
    _, y_ref, _ = serial_reference(11, xs, leads, grad_ys)
    ys = engine.forward(xs, leads)
    flat = [y for replica in ys for y in replica]
    np.testing.assert_allclose(np.concatenate(flat, axis=0), y_ref, rtol=1e-8, atol=1e-11)


#: Hybrid-STOP grid points, and the baselines the paper compares it
#: against as points of the same grid.
BACKWARD_GRID = [
    pytest.param(2, 2, 1, True, id="2-2-1"),
    pytest.param(2, 2, 2, True, id="2-2-2"),
    pytest.param(1, 4, 1, True, id="1-4-1-fsdp"),
    pytest.param(1, 4, 1, False, id="1-4-1-fsdp-unwrapped"),
    pytest.param(2, 1, 1, True, id="2-1-1-megatron"),
    pytest.param(1, 1, 2, True, id="1-1-2-ddp"),
]


@pytest.mark.parametrize("tp,fsdp,ddp,layer_wrapping", BACKWARD_GRID)
def test_backward_and_gradients_match_serial(tp, fsdp, ddp, layer_wrapping):
    engine, _, _ = make_engine(tp=tp, fsdp=fsdp, ddp=ddp, seed=13,
                               layer_wrapping=layer_wrapping)
    xs, leads, grad_ys = make_batches(ddp, fsdp, seed=3)
    ref_model, _, gx_ref = serial_reference(13, xs, leads, grad_ys)
    ref_grads = {n: p.grad for n, p in ref_model.named_parameters()}

    engine.forward(xs, leads)
    grad_xs = engine.backward(grad_ys)
    engine.allreduce_gradients()

    flat_gx = np.concatenate([g for replica in grad_xs for g in replica], axis=0)
    np.testing.assert_allclose(flat_gx, gx_ref, rtol=1e-7, atol=1e-10)

    # Dense (front + head) gradients, replica 0.
    # _DenseFront/_DenseHead reuse the serial submodule names directly.
    dense = dict(engine.fronts[0][0].named_parameters())
    dense.update(dict(engine.heads[0][0].named_parameters()))
    for name, param in dense.items():
        assert name in ref_grads, name
        np.testing.assert_allclose(
            param.grad, ref_grads[name], rtol=1e-7, atol=1e-10, err_msg=name
        )

    # Trunk gradients, replica 0 (same block{i}.<sub>.<param> naming).
    trunk_grads = engine.trunks[0].gathered_grads()
    for name, grad in trunk_grads.items():
        assert name in ref_grads, name
        np.testing.assert_allclose(
            grad, ref_grads[name], rtol=1e-7, atol=1e-10, err_msg=name
        )


def test_ddp_replicas_receive_identical_reduced_grads():
    engine, _, _ = make_engine(tp=1, fsdp=1, ddp=2, seed=17)
    xs, leads, grad_ys = make_batches(2, 1, seed=5)
    engine.forward(xs, leads)
    engine.backward(grad_ys)
    engine.allreduce_gradients()
    for (n0, p0), (n1, p1) in zip(
        engine.fronts[0][0].named_parameters(), engine.fronts[1][0].named_parameters()
    ):
        np.testing.assert_allclose(p0.grad, p1.grad, rtol=1e-12, err_msg=n0)
    for sp0, sp1 in zip(engine.trunks[0].sharded_parameters(), engine.trunks[1].sharded_parameters()):
        np.testing.assert_allclose(sp0.full_grad(), sp1.full_grad(), rtol=1e-12, err_msg=sp0.name)


def test_bad_batch_nesting_rejected():
    engine, _, _ = make_engine(tp=2, fsdp=2)
    xs, leads, _ = make_batches(1, 1)
    with pytest.raises(ValueError):
        engine.forward(xs, leads)


def test_dense_params_allocated_on_every_rank():
    engine, cluster, _ = make_engine(tp=2, fsdp=2)
    for rank in range(4):
        assert cluster.device(rank).memory.category_current("params.dense") > 0


def test_zero_grad_resets_everything():
    engine, _, _ = make_engine(tp=2, fsdp=2, seed=19)
    xs, leads, grad_ys = make_batches(1, 2, seed=7)
    engine.forward(xs, leads)
    engine.backward(grad_ys)
    engine.zero_grad()
    assert all(p.grad is None for p in engine.dense_parameters())
    assert all(sp.grad_shards is None for sp in engine.sharded_parameters())
