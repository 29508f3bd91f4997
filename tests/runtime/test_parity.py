"""Seed parity: serial Trainer and DistributedTrainer produce identical
loss trajectories at TP=FSDP=DDP=1 through the shared StepLoop."""

import numpy as np

from repro.data.loader import Batch
from repro.models import build_model
from repro.runtime import RunSpec, Session
from repro.train import AdamW, Trainer
from tests.runtime.test_session import TINY

STEPS = 4
BATCH = 4


def _batches(seed):
    rng = np.random.default_rng(seed)
    while True:
        yield Batch(
            x=rng.normal(size=(BATCH, TINY.in_vars, TINY.img_height,
                               TINY.img_width)).astype(np.float32),
            y=rng.normal(size=(BATCH, TINY.out_vars, TINY.img_height,
                               TINY.img_width)).astype(np.float32),
            lead_time_hours=np.full((BATCH,), 24.0, dtype=np.float32),
        )


def _serial_history(seed):
    model = build_model(TINY, rng=seed, dtype=np.float64)
    # The Session trainer's defaults: AdamW at 1e-3, no weight decay.
    optimizer = AdamW(model.parameters(), lr=1e-3, weight_decay=0.0)
    trainer = Trainer(model, _batches(seed), np.ones((TINY.img_height, 1)),
                      optimizer)
    return trainer.train(STEPS).history


def _distributed_history(seed):
    spec = RunSpec(config=TINY, num_gpus=1, gpus_per_node=1, tp_size=1,
                   fsdp_size=1, ddp_size=1, micro_batch=BATCH, meta=False,
                   seed=seed, dtype="float64", track_device_memory=False)
    session = Session(spec)
    loop = session.trainer.step_loop(_batches(seed))
    return loop.run(STEPS).history


class TestSerialDistributedParity:
    def test_identical_loss_trajectories_at_trivial_grid(self):
        """At a 1x1x1 grid the engine is the serial model: same seed,
        same batches, same optimizer -> the same trajectory through the
        shared StepLoop, to the last bit in float64."""
        serial = _serial_history(seed=0)
        distributed = _distributed_history(seed=0)
        assert [obs for obs, _ in serial] == [obs for obs, _ in distributed]
        np.testing.assert_allclose(
            [loss for _, loss in serial],
            [loss for _, loss in distributed],
            rtol=1e-12,
        )

    def test_different_seeds_diverge(self):
        """Sanity check that the parity above is not vacuous."""
        a = _distributed_history(seed=0)
        b = _distributed_history(seed=1)
        assert [loss for _, loss in a] != [loss for _, loss in b]
