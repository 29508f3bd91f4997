"""Pre-training loop (the Fig 8 workload)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.context import ExecutionContext, execution_context
from repro.nn.grad_scaler import DynamicGradScaler
from repro.nn.precision import PrecisionPolicy
from repro.obs.off import OFF
from repro.train.loss import latitude_weighted_mse
from repro.train.optimizer import AdamW
from repro.train.schedule import WarmupCosineSchedule


@dataclass
class PretrainResult:
    """Loss trajectory of one pre-training run."""

    #: (observations seen, wMSE) pairs, one per step.
    history: list[tuple[int, float]] = field(default_factory=list)
    skipped_steps: int = 0

    @property
    def observations_seen(self) -> int:
        return self.history[-1][0] if self.history else 0

    @property
    def final_loss(self) -> float:
        return self.history[-1][1] if self.history else float("nan")


class Trainer:
    """Train a model on batches from a loader (or batch generator).

    Parameters
    ----------
    model:
        A :class:`~repro.models.climax_vit.ClimaXViT` (or compatible:
        ``forward(x, lead) -> pred`` plus explicit ``backward``).
    batches:
        Iterator of :class:`~repro.data.loader.Batch` objects (already
        normalized).
    lat_weights:
        Latitude weights for the wMSE loss.
    optimizer / schedule:
        AdamW and an optional per-step learning-rate schedule.
    precision / scaler:
        Optional BF16 policy (emulated) and dynamic gradient scaler.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; the trainer emits
        ``optimizer`` marker events (apply vs. grad-scale skip) and
        feeds loss/skip metrics.  Defaults to the no-op tracer.
    """

    def __init__(
        self,
        model,
        batches,
        lat_weights: np.ndarray,
        optimizer: AdamW,
        schedule: WarmupCosineSchedule | None = None,
        precision: PrecisionPolicy | None = None,
        scaler: DynamicGradScaler | None = None,
        accumulation_steps: int = 1,
        tracer=None,
    ):
        if accumulation_steps < 1:
            raise ValueError("accumulation_steps must be positive")
        self.tracer = tracer if tracer is not None else OFF
        self.model = model
        self.batches = iter(batches)
        self.lat_weights = lat_weights
        self.optimizer = optimizer
        self.schedule = schedule
        self.precision = precision
        self.scaler = scaler
        #: micro-steps whose gradients accumulate before one optimizer
        #: update — how a global batch of 2880 maps onto micro-batches
        #: of 2-3 on the real system.
        self.accumulation_steps = accumulation_steps
        self.step_count = 0
        self._micro_step = 0

    def train_step(self) -> tuple[float, int]:
        """One micro-step; the optimizer updates every
        ``accumulation_steps`` calls. Returns ``(loss, batch_size)``."""
        batch = next(self.batches)
        if self._micro_step == 0:
            self.model.zero_grad()
        ctx = ExecutionContext(precision=self.precision)
        with self.tracer.scope("step", self.step_count):
            with execution_context(ctx):
                prediction = self.model(batch.x, batch.lead_time_hours)
                loss, grad = latitude_weighted_mse(prediction, batch.y, self.lat_weights)
                grad = grad / self.accumulation_steps
                if self.scaler is not None:
                    grad = self.scaler.scale_loss_grad(grad)
                self.model.backward(grad)
            self.model.clear_cache()
            self.tracer.metrics.histogram("train.loss").observe(loss)
            self._micro_step += 1
            if self._micro_step >= self.accumulation_steps:
                self._micro_step = 0
                apply_update = True
                if self.scaler is not None:
                    apply_update = self.scaler.unscale_and_check(self.model.parameters())
                if apply_update:
                    lr = self.schedule(self.step_count) if self.schedule else None
                    self.optimizer.step(lr=lr)
                    self.tracer.instant(
                        "optimizer", "apply", t0=float(self.step_count)
                    )
                    self.tracer.metrics.counter("optimizer.steps").inc()
                else:
                    self.tracer.instant(
                        "optimizer", "skip", t0=float(self.step_count)
                    )
                    self.tracer.metrics.counter("optimizer.skipped").inc()
                self.step_count += 1
        return loss, batch.x.shape[0]

    def step_loop(self, **loop_kwargs):
        """A :class:`~repro.runtime.steploop.StepLoop` over this trainer.

        ``loop_kwargs`` pass through (hooks, resume state), so a caller
        can attach cross-cutting behaviour — the
        :class:`~repro.train.finetune.Finetuner` uses this for its
        per-step evaluation and early stop.
        """
        from repro.runtime.steploop import StepLoop

        return StepLoop(lambda step: self.train_step(), **loop_kwargs)

    def train(self, num_steps: int) -> PretrainResult:
        """Run ``num_steps`` steps, recording the loss trajectory."""
        result = self.step_loop().run(num_steps)
        if self.scaler is not None:
            result.skipped_steps = self.scaler.num_overflows
        return result
