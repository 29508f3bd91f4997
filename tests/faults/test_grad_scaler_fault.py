"""Injected NaN gradients hit the grad-scaler backoff, never the weights.

Regression for the fault-path wiring of
:class:`~repro.nn.grad_scaler.DynamicGradScaler` into
:class:`~repro.train.distributed.DistributedTrainer`: a scheduled
``grad_corruption`` plants a NaN in a reduced gradient; the scaler must
detect it, back the scale off, and skip the optimizer step — the
parameters and optimizer moments must be untouched, and the skip must
be charged to the goodput ledger.
"""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan, FaultSpec, Supervisor
from repro.nn.grad_scaler import DynamicGradScaler
from tests.invariants import config

TINY = config(meta=False)


def _session(plan=None, **session_kwargs):
    from repro.runtime import RunSpec, Session

    spec = RunSpec(config=TINY, num_gpus=4, gpus_per_node=4, tp_size=1,
                   fsdp_size=2, ddp_size=2, micro_batch=2, meta=False, seed=5,
                   track_device_memory=False)
    session = Session(spec, **session_kwargs)
    if plan is not None:
        session.cluster.attach_injector(FaultInjector(plan, gpus_per_node=4))
    return session


def _param_snapshot(trainer):
    return [np.array(p.data, copy=True) for p in trainer.optimizer.params]


class TestScalerFaultPath:
    def test_nan_gradient_skips_update_and_backs_off(self):
        scaler = DynamicGradScaler()
        plan = FaultPlan(faults=(
            FaultSpec(kind="grad_corruption", step=1, rank=0),
        ))
        session = _session(plan, grad_scaler=scaler)
        trainer = session.trainer
        session.numeric_step(0)
        assert not trainer.last_step_skipped
        before = _param_snapshot(trainer)
        moments_before = trainer.optimizer.step_count
        scale_before = scaler.scale
        session.numeric_step(1)  # the poisoned step
        assert trainer.last_step_skipped
        assert scaler.num_overflows == 1
        assert scaler.scale == scale_before * scaler.backoff_factor
        assert trainer.optimizer.step_count == moments_before  # no update
        after = _param_snapshot(trainer)
        for b, a in zip(before, after):
            np.testing.assert_array_equal(b, a)  # never a silent update
        # training continues cleanly after the skip
        session.numeric_step(2)
        assert not trainer.last_step_skipped

    def test_scaled_clean_steps_are_bitwise_identical_to_unscaled(self):
        """Power-of-two scales only shift exponents: a clean run with the
        scaler must reproduce the unscaled loss trajectory bitwise."""
        plain = _session()
        scaled = _session(grad_scaler=DynamicGradScaler())
        losses_plain = [plain.numeric_step(s)[0] for s in range(4)]
        losses_scaled = [scaled.numeric_step(s)[0] for s in range(4)]
        assert losses_plain == losses_scaled

    def test_scaler_state_round_trips(self):
        scaler = DynamicGradScaler()
        scaler.num_overflows = 3
        scaler.scale = 1024.0
        restored = DynamicGradScaler()
        restored.load_state_dict(scaler.state_dict())
        assert restored.scale == 1024.0
        assert restored.num_overflows == 3

    def test_supervised_skip_lands_in_goodput(self, tmp_path):
        from repro.runtime import RunSpec

        spec = RunSpec(config=TINY, num_gpus=4, gpus_per_node=4, tp_size=1,
                       fsdp_size=2, ddp_size=2, micro_batch=2, meta=False,
                       seed=5, track_device_memory=False)
        plan = FaultPlan(faults=(
            FaultSpec(kind="grad_corruption", step=2, rank=0),
        ))
        supervisor = Supervisor(spec, plan)
        report = supervisor.run(4)
        assert report.recovered
        assert report.ledger.skipped_steps == 1
        assert report.ledger.lost_skipped_s > 0
        assert [e.kind for e in report.events if e.action == "skip_step"] == [
            "grad_corruption"
        ]
        # the scaler saw exactly one overflow
        assert supervisor.session.trainer.grad_scaler.num_overflows == 1

    def test_scale_never_collapses_below_min(self):
        scaler = DynamicGradScaler(init_scale=2.0, min_scale=1.0)
        plan = FaultPlan(faults=tuple(
            FaultSpec(kind="grad_corruption", step=s, rank=0) for s in range(3)
        ))
        session = _session(plan, grad_scaler=scaler)
        for step in range(3):
            session.numeric_step(step)
        assert scaler.scale == 1.0
        assert scaler.num_overflows == 3
