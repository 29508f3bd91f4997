"""Distributed training loop over the Hybrid-STOP engine.

Wires a :class:`~repro.parallel.engine.HybridSTOPEngine` to the wMSE
loss and a shard-aware AdamW: the global batch is split across the
(DDP x FSDP) grid, per-micro-batch gradients are scaled so their sum
equals the serial global-batch gradient, and the optimizer updates both
the replicated dense parameters and the flat shards in place — the full
training step of paper Fig 3/Fig 4, end to end.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.data.loader import Batch
from repro.nn.context import ExecutionContext, execution_context
from repro.nn.ops import kernel
from repro.parallel.engine import HybridSTOPEngine
from repro.train.loss import latitude_weighted_mse
from repro.train.optimizer import AdamW, sharded_views
from repro.train.schedule import WarmupCosineSchedule


class DistributedTrainer:
    """Train a Hybrid-STOP engine on loader batches.

    Parameters
    ----------
    engine:
        The distributed model instance.
    lat_weights:
        Latitude weights for the wMSE loss.
    lr / weight_decay / schedule:
        Optimizer settings; one AdamW instance covers every replica's
        dense parameters and every parameter shard (updates are
        deterministic, so replicas stay synchronized).
    grad_scaler:
        Optional :class:`~repro.nn.grad_scaler.DynamicGradScaler`.  When
        set, seed gradients are scaled before backprop and unscaled
        (through the shard-aware optimizer handles) before the update;
        a non-finite gradient — BF16 overflow or an injected bit-flip —
        backs the scale off and skips the optimizer step, so corrupted
        gradients never reach the parameters.  Scales are powers of two,
        so a clean scaled step is bitwise identical to an unscaled one.
    """

    def __init__(
        self,
        engine: HybridSTOPEngine,
        lat_weights: np.ndarray,
        lr: float = 1e-3,
        weight_decay: float = 0.0,
        schedule: WarmupCosineSchedule | None = None,
        precision=None,
        grad_scaler=None,
    ):
        grid = (engine.config.img_height, engine.config.img_width)
        try:
            np.broadcast_to(lat_weights, grid)
        except ValueError:
            raise ValueError(
                f"lat_weights of shape {np.shape(lat_weights)} do not broadcast "
                f"to (img_height, img_width) = {grid}"
            ) from None
        self.engine = engine
        self.lat_weights = lat_weights
        self.schedule = schedule
        #: optional :class:`~repro.nn.precision.PrecisionPolicy`; with
        #: BF16 the engine's matmuls round through bfloat16 exactly as
        #: the serial trainer's do.
        self.precision = precision
        self.grad_scaler = grad_scaler
        #: Whether the most recent :meth:`train_step` skipped its
        #: optimizer update (grad-scaler overflow backoff).
        self.last_step_skipped = False
        #: The cluster's tracer: step scopes and optimizer markers land
        #: next to the engine's compute/collective spans.
        self.tracer = engine.plan.cluster.tracer
        handles = []
        for d in range(engine.plan.ddp_size):
            handles.extend(engine.dense_parameters(d))
            handles.extend(sharded_views(engine.sharded_parameters(d)))
        self.optimizer = AdamW(handles, lr=lr, weight_decay=weight_decay)
        self.step_count = 0

    # -- batch splitting ----------------------------------------------------------
    def _split(self, array: np.ndarray) -> list[np.ndarray]:
        """The D x F micro-batches of ``array``, replica-major."""
        D, F = self.engine.plan.ddp_size, self.engine.plan.fsdp_size
        shards = D * F
        if array.shape[0] % shards:
            raise ValueError(
                f"global batch {array.shape[0]} not divisible over "
                f"ddp({D}) x fsdp({F}) = {shards} micro-batches"
            )
        micro = array.shape[0] // shards
        return [array[i * micro : (i + 1) * micro] for i in range(shards)]

    def step_inputs(self, batch: Batch) -> list:
        """What :meth:`forward_backward` reads of a step: every
        micro-batch's fields, then the latitude weights."""
        return [*self._split(batch.x), *self._split(batch.lead_time_hours),
                *self._split(batch.y), self.lat_weights]

    # -- one step ---------------------------------------------------------------------
    def forward_backward(self, inputs: list) -> list[float]:
        """The value-independent segment of a step over :meth:`step_inputs`:
        forward, the wMSE loss and seed gradient per micro-batch, backward
        and the DDP reduction.  Returns the micro-batch losses."""
        D, F = self.engine.plan.ddp_size, self.engine.plan.fsdp_size
        xs, leads, ys = (
            [inputs[i + d * F : i + (d + 1) * F] for d in range(D)]
            for i in range(0, 3 * D * F, D * F)
        )
        micro = inputs[0].shape[0]
        global_batch = micro * D * F
        with execution_context(ExecutionContext(precision=self.precision)):
            predictions = self.engine.forward(xs, leads)
            losses = []
            grads = []
            for d in range(D):
                row = []
                for f in range(F):
                    loss, grad = latitude_weighted_mse(
                        predictions[d][f], ys[d][f], inputs[-1]
                    )
                    losses.append(loss)
                    # Micro-batch gradients are means over `micro` samples;
                    # rescale so the reduced sum is the global-batch mean.
                    grad = kernel(operator.mul, grad, micro / global_batch)
                    scaler = self.grad_scaler
                    if scaler is not None:
                        # The scaler is an operand, not part of the
                        # kernel: a replay multiplies by the scale of
                        # its own step and its own session's scaler.
                        grad = kernel(type(scaler).scale_loss_grad, scaler, grad)
                    row.append(grad)
                grads.append(row)
            self.engine.zero_grad()
            self.engine.backward(grads)
        self.engine.allreduce_gradients()
        return losses

    def train_step(self, batch: Batch, segment=None) -> float:
        """One synchronous optimizer step over a global batch.

        ``segment`` stands in for :meth:`forward_backward` (the numeric
        step replay of :class:`~repro.runtime.session.Session`).
        """
        inputs = self.step_inputs(batch)
        timeline = self.engine.plan.cluster.timeline
        step_start = timeline.walltime_s()
        with self.tracer.scope("step", self.step_count):
            losses = (segment or self.forward_backward)(inputs)
            # Fault-injection hook: a scheduled grad corruption lands
            # here, after reduction and before the finiteness check —
            # the exact route a real bit-flip would take.
            cluster = self.engine.plan.cluster
            cluster.injector.poison_gradients(self.step_count, self.optimizer.params)
            apply_update = True
            if self.grad_scaler is not None:
                apply_update = self.grad_scaler.unscale_and_check(
                    self.optimizer.params
                )
            self.last_step_skipped = not apply_update
            if apply_update:
                lr = self.schedule(self.step_count) if self.schedule else None
                self.optimizer.step(lr=lr)
                self.tracer.instant(
                    "optimizer", "apply", t0=timeline.walltime_s(),
                    step=self.step_count,
                )
            else:
                self.tracer.instant(
                    "optimizer", "skip", t0=timeline.walltime_s(),
                    step=self.step_count, scale=self.grad_scaler.scale,
                )
                self.tracer.metrics.counter("optimizer.skipped_steps").inc()
        mean_loss = float(np.mean(losses))
        if apply_update:
            self.tracer.metrics.counter("optimizer.steps").inc()
        self.tracer.metrics.histogram("train.loss").observe(mean_loss)
        self.tracer.metrics.histogram("step.walltime_s").observe(
            timeline.walltime_s() - step_start
        )
        self.step_count += 1
        return mean_loss
