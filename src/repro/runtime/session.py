"""Session: one builder from a :class:`RunSpec` to the live stack.

The five copy-pasted construction sites (bench harness, traced-step
capture, tuner validation, experiment drivers, ad-hoc scripts) all
route through here: a Session owns the tracer, the virtual cluster,
the parallel plan, the engine (meta or numeric mode), and — for
numeric runs — the distributed trainer with its shard-aware optimizer.
On top of the unified construction sit the sharded checkpoint methods:
:meth:`Session.save` persists dense replicas, flat FSDP shards,
optimizer moments, the scheduler step, and the data-RNG state;
:meth:`Session.resume` restores all of it bitwise, so a resumed run
reproduces the uninterrupted loss trajectory exactly.
"""

from __future__ import annotations

import math
import operator
from functools import partial
from pathlib import Path

import numpy as np

from repro.cluster.cluster import VirtualCluster
from repro.cluster.timeline import FoldedTimeline
from repro.cluster.topology import FrontierTopology
from repro.nn.context import (
    ExecutionContext,
    active_precision,
    execution_context,
    record_flops,
)
from repro.nn.tape import _Recording, parameter_owners, replay
from repro.obs.tracer import Tracer
from repro.runtime.spec import RunSpec

#: Checkpoint archive keys (see :mod:`repro.runtime.checkpoint`).
_DENSE = "dense"
_SHARD = "shard"


def build_cluster(
    num_gpus: int,
    gpus_per_node: int = 8,
    *,
    tracer=None,
    gpu_memory_bytes: int | None = None,
    track_device_memory: bool = True,
    timeline=None,
) -> VirtualCluster:
    """The single :class:`VirtualCluster` construction site.

    Consumers outside :mod:`repro.cluster` (the estimator's probe
    cluster, the Session itself) build clusters through here so
    cross-cutting behaviour — tracing, memory-tracking policy — has
    one place to live.
    """
    return VirtualCluster(
        num_gpus=num_gpus,
        gpus_per_node=gpus_per_node,
        gpu_memory_bytes=gpu_memory_bytes,
        track_device_memory=track_device_memory,
        tracer=tracer,
        timeline=timeline,
    )


def fabricate_batch(shape, *, fsdp_size: int, ddp_size: int | None = None,
                    dtype=np.float32):
    """Shape-only micro-batches for every (DDP, FSDP) grid position.

    Returns ``[[MetaArray(shape)] * fsdp_size for _ in range(ddp_size)]``
    — the engine's expected ``xs[d][f]`` nesting — or a flat
    ``[MetaArray(shape)] * fsdp_size`` row when ``ddp_size`` is None
    (single-replica probes).  One canonical helper instead of the
    fabrication previously duplicated across the bench harness and the
    tuner's estimator.
    """
    from repro.meta import MetaArray

    if fsdp_size < 1 or (ddp_size is not None and ddp_size < 1):
        raise ValueError("fsdp_size and ddp_size must be positive")
    micro = MetaArray(tuple(shape), dtype)
    row = [micro] * fsdp_size
    if ddp_size is None:
        return row
    return [list(row) for _ in range(ddp_size)]


class Session:
    """The live Hybrid-STOP stack for one :class:`RunSpec`.

    Parameters
    ----------
    spec:
        The validated run description.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; a fresh one is
        created by default so every session's spans are isolated.
    precision:
        Optional :class:`~repro.nn.precision.PrecisionPolicy` for the
        numeric trainer, which otherwise runs on its own defaults
        (uniform latitude weights, AdamW at 1e-3).
    grad_scaler:
        Optional :class:`~repro.nn.grad_scaler.DynamicGradScaler` for
        the numeric trainer; its state is persisted by :meth:`save` and
        restored by :meth:`resume`.
    monitor:
        Optional :class:`~repro.obs.monitor.RunMonitor`.  Defaults to a
        fresh monitor when ``spec.monitor == "on"`` and
        :data:`~repro.obs.off.OFF` otherwise.  Pass an
        existing instance to keep one telemetry stream across session
        rebuilds (the Supervisor does this through ``session_kwargs``,
        the same pattern as the fault injector).
    """

    def __init__(
        self,
        spec: RunSpec,
        tracer=None,
        precision=None,
        grad_scaler=None,
        monitor=None,
    ):
        from repro.cluster.symmetry import decide_fold
        from repro.faults.degradation import SkewedCompute
        from repro.models import build_model
        from repro.parallel import HybridParallelPlan, HybridSTOPEngine
        from repro.parallel.compute import PeakFractionCompute

        self.spec = spec
        self.config = spec.config
        self.tracer = tracer if tracer is not None else Tracer()
        #: Why this session folds (or doesn't); see repro.cluster.symmetry.
        #: Decided before the cluster exists, so a folded session starts
        #: on its FoldedTimeline instead of replacing an exact one.
        self.fold_decision = decide_fold(
            spec, FrontierTopology(spec.num_gpus, spec.gpus_per_node)
        )
        self.cluster = build_cluster(
            spec.num_gpus,
            spec.gpus_per_node,
            tracer=self.tracer,
            track_device_memory=spec.track_device_memory,
            timeline=(
                FoldedTimeline(spec.num_gpus, self.fold_decision.partition)
                if self.fold_decision.folded else None
            ),
        )
        self.plan = HybridParallelPlan(
            self.cluster,
            tp_size=spec.tp_size,
            fsdp_size=spec.fsdp_size,
            ddp_size=spec.ddp_size,
            tp_innermost=spec.tp_innermost,
            pp_size=spec.pp_size,
        )
        compute_model = PeakFractionCompute(self.cluster)
        if spec.compute_skew:
            compute_model = SkewedCompute(compute_model, dict(spec.compute_skew))
        self.compute_model = compute_model
        if spec.meta:
            self.model = build_model(self.config, meta=True)
        else:
            self.model = build_model(
                self.config, rng=spec.seed, dtype=np.dtype(spec.dtype)
            )
        self.engine = HybridSTOPEngine(
            self.model,
            self.plan,
            prefetch=spec.prefetch,
            layer_wrapping=spec.layer_wrapping,
            recompute=spec.recompute,
            compute_model=compute_model,
        )
        if monitor is None:
            from repro.obs.monitor import monitor_for

            monitor = monitor_for(spec)
        #: Streaming telemetry handle (never None; OFF when off).
        self.monitor = monitor
        self.monitor.attach_session(self)
        #: Synthetic-batch stream state; persisted by :meth:`save`.
        self.data_rng = np.random.default_rng(spec.seed)
        self._precision = precision
        self._grad_scaler = grad_scaler
        self._trainer = None
        #: ``(scope prefix, events, matmul FLOPs, other FLOPs)`` of the
        #: meta step captured in the current fold mode (see meta_step).
        self._step_stream: tuple | None = None
        #: signature -> False once sighted, then its recorded numeric
        #: segment or the reason (str) it runs per-op (see numeric_step).
        self._numeric_tapes: dict = {}
        self._numeric_raised = False

    # -- numeric training ----------------------------------------------------
    @property
    def trainer(self):
        """The shard-aware :class:`DistributedTrainer` (numeric mode only)."""
        if self.spec.meta:
            raise RuntimeError(
                "meta-mode sessions have no numeric trainer; build the spec "
                "with meta=False"
            )
        if self._trainer is None:
            from repro.train.distributed import DistributedTrainer

            self._trainer = DistributedTrainer(
                self.engine,
                np.ones((self.config.img_height, 1)),
                precision=self._precision,
                grad_scaler=self._grad_scaler,
            )
        return self._trainer

    def synthetic_batch(self):
        """One seeded synthetic global batch (the traced-step workload)."""
        from repro.data.loader import Batch

        cfg, spec = self.config, self.spec
        global_batch = spec.observations
        rng = self.data_rng
        return Batch(
            x=rng.normal(size=(global_batch, cfg.in_vars, cfg.img_height,
                               cfg.img_width)).astype(np.float32),
            y=rng.normal(size=(global_batch, cfg.out_vars, cfg.img_height,
                               cfg.img_width)).astype(np.float32),
            lead_time_hours=np.full((global_batch,), 24.0, dtype=np.float32),
        )

    def numeric_step(self, step: int = 0) -> tuple[float, int]:
        """One optimizer step on a synthetic batch; ``(loss, batch_size)``.

        The :class:`~repro.runtime.steploop.StepLoop` step function of
        ``repro trace`` and the runtime tests.

        **Numeric step replay.**  The trainer's value-independent segment
        (``forward_backward``) issues the same kernels and timeline events
        every step.  A signature's first step runs it plain, its next
        replayable one under one kernel recording and one timeline
        ``capture()``, and later replayable steps replay both — the
        kernels on this step's inputs and parameters, the stream with
        ``step.<N>/`` swapped — and write the losses and gradients back;
        the optimizer tail runs per-op.  Only pp = 1 steps the injector
        cannot touch replay, and not the retry of a step that raised.
        See DESIGN.md §9, "Numeric step replay".  Oracle:
        :meth:`execute_numeric_step`.
        """
        segment = None
        if self.engine.step_stream_is_invariant:
            segment = partial(self._numeric_segment, not (
                self._numeric_raised or self.cluster.injector.affects_step(step)))
        self._numeric_raised = True
        result = self._numeric_step(segment)
        self._numeric_raised = False
        return result

    def execute_numeric_step(self, step: int = 0) -> tuple[float, int]:
        """:meth:`numeric_step` without step replay — its oracle: every
        step runs every op."""
        return self._numeric_step(None)

    def _numeric_step(self, segment) -> tuple[float, int]:
        batch = self.synthetic_batch()
        loss = self.trainer.train_step(batch, segment)
        if segment is None:
            self.tracer.metrics.counter("runtime.numeric_steps_executed").inc()
        return loss, batch.x.shape[0]

    def _numeric_segment(self, replayable: bool, inputs: list) -> list:
        """``forward_backward(inputs)``: every step sights its signature; a
        replayable one sighted before records, or replays the recording."""
        trainer, metrics = self.trainer, self.tracer.metrics
        policy = trainer.precision or active_precision()
        key = (
            tuple((getattr(x, "shape", None), getattr(x, "dtype", None)) for x in inputs),
            policy is not None and policy.is_bf16,
            trainer.grad_scaler,  # its method is a kernel of the tape
        )
        tape = self._numeric_tapes.get(key)
        if not replayable or type(tape) is not tuple:
            if replayable and tape is False:
                losses = self._record_numeric_segment(key, inputs)
            else:
                self._numeric_tapes.setdefault(key, False)
                losses = trainer.forward_backward(inputs)
            if replayable and type(self._numeric_tapes[key]) is str:
                metrics.counter("runtime.numeric_step_fallbacks").inc()
            metrics.counter("runtime.numeric_steps_executed").inc()
            return losses
        kernels, num_losses, dense, sharded, captured, events = tape
        values = replay(kernels, inputs)
        self.engine.zero_grad()
        grads = iter(values[num_losses:])
        for param in dense:
            param.grad = next(grads)
        for param in sharded:
            param.grad_shards = [next(grads) for _ in param.shards]
        self.cluster.timeline.replay(
            events, renames=((captured, f"step.{trainer.step_count}/"),))
        metrics.counter("runtime.numeric_steps_replayed").inc()
        return values[:num_losses]

    def _record_numeric_segment(self, key, inputs: list) -> list:
        """The per-op segment, recorded; decides ``key`` for good."""
        engine, trainer = self.engine, self.trainer
        replicas = range(len(engine.trunks))
        sharded = [p for d in replicas for p in engine.sharded_parameters(d)]
        # Read through their owners: AdamW and resume rebind both.
        owners = parameter_owners(*(modules[d][0] for modules in (engine.fronts, engine.heads)
                                    for d in replicas))
        owners.update({id(shard): (operator.getitem, param.shards, j)
                       for param in sharded for j, shard in enumerate(param.shards)})
        recording, flops = _Recording(inputs, owners), ExecutionContext()
        with self.cluster.timeline.capture() as events, recording, \
                execution_context(flops):
            losses = trainer.forward_backward(inputs)
        dense = [p for d in replicas for p in engine.dense_parameters(d)
                 if p.grad is not None]
        sharded = [p for p in sharded if p.grad_shards is not None]
        outputs = [*losses, *(p.grad for p in dense),
                   *(g for p in sharded for g in p.grad_shards)]
        results = [recording.slots.get(id(value)) for value in outputs]
        if None in results:
            recording.fail("a loss or gradient is not the output of a taped kernel")
        if recording.failed:
            self._numeric_tapes[key] = recording.failed
        else:
            self._numeric_tapes[key] = (
                recording.freeze(results, flops), len(losses), dense, sharded,
                f"step.{trainer.step_count}/", events,
            )
        return losses

    # -- meta stepping --------------------------------------------------------
    def meta_batch(self):
        """Fabricated ``(xs, leads)`` meta inputs for one engine step."""
        cfg, spec = self.config, self.spec
        xs = fabricate_batch(
            (spec.micro_batch, cfg.in_vars, cfg.img_height, cfg.img_width),
            fsdp_size=spec.fsdp_size,
            ddp_size=spec.ddp_size,
        )
        leads = fabricate_batch(
            (spec.micro_batch,), fsdp_size=spec.fsdp_size, ddp_size=spec.ddp_size
        )
        return xs, leads

    def meta_step(self, step: int = 0) -> tuple[float, int]:
        """One traced shape-only engine step (forward/backward/grad-sync).

        The exact cost-model accounting the bench harness measures;
        returns ``(nan, observations)`` since meta arrays carry no loss.

        **Step replay.**  What a meta step *asks* the timeline to record
        depends on the spec and the fold mode, not on the step index,
        the ledgers or the fault plan, so the first step of a fold mode
        runs under a :meth:`~repro.cluster.timeline.Timeline.capture`
        and later ones :meth:`~repro.cluster.timeline.Timeline.replay`
        it with the ``step.<N>`` scope swapped: injector, tracer,
        ledgers and collective ids see an executed step's calls, and a
        fault raises from the same event.  The stream is dropped when
        :meth:`_sync_fold_mode` flips the mode, never kept from a step
        that raised, and never taken from an engine whose
        ``step_stream_is_invariant`` is false.  Transient allocations
        are not replayed (the executed step set every device's peak);
        the step's FLOP totals are.  Oracle: :meth:`execute_meta_step`.
        """
        self._sync_fold_mode(step)
        if self._step_stream is not None:
            captured, events, matmul_flops, other_flops = self._step_stream
            self.cluster.timeline.replay(
                events, renames=((captured, f"step.{step}/"),))
            record_flops(matmul_flops, matmul=True)
            record_flops(other_flops)
            self.tracer.metrics.counter("runtime.meta_steps_replayed").inc()
        elif self.engine.step_stream_is_invariant:
            flops = ExecutionContext()
            with self.cluster.timeline.capture() as events, \
                    execution_context(flops):
                self._engine_step(step)
            self._step_stream = (f"step.{step}/", events, flops.matmul_flops,
                                 flops.flops - flops.matmul_flops)
        else:
            self._engine_step(step)
        return math.nan, self.spec.observations

    def execute_meta_step(self, step: int = 0) -> tuple[float, int]:
        """:meth:`meta_step` without step replay — its oracle: every
        step runs every op."""
        self._sync_fold_mode(step)
        self._engine_step(step)
        return math.nan, self.spec.observations

    def _engine_step(self, step: int) -> None:
        from repro.meta import MetaArray

        D, F = self.spec.ddp_size, self.spec.fsdp_size
        xs, leads = self.meta_batch()
        with self.tracer.scope("step", step):
            ys = self.engine.forward(xs, leads)
            grads = [[MetaArray(ys[d][f].shape) for f in range(F)] for d in range(D)]
            self.engine.backward(grads)
            self.engine.allreduce_gradients()
        self.tracer.metrics.counter("runtime.meta_steps_executed").inc()

    def _sync_fold_mode(self, step: int) -> None:
        """Drop to exact mode for fault-touched steps; refold after.

        A scheduled fault singles out one rank, which breaks the class
        symmetry the folded timeline relies on — so any step the
        injector could touch runs per-rank, with the skipped DDP
        replicas materialized first.  Once the fault window has passed
        and the per-rank ledgers have re-converged, the timeline folds
        again (timing-divergent faults keep it exact permanently).
        """
        timeline = self.cluster.timeline
        if not isinstance(timeline, FoldedTimeline):
            return
        if self.cluster.injector.affects_step(step):
            if timeline.folded:
                timeline.unfold()
                self._step_stream = None  # a folded stream, segments and all
                self.engine.materialize_replicas()
                self.monitor.record_fold(
                    step, "exact",
                    f"step {step} is inside a fault window; simulating "
                    f"every rank",
                )
        elif not timeline.folded and timeline.try_refold():
            self._step_stream = None  # an exact stream, every rank spelled out
            self.monitor.record_fold(
                step, "folded",
                f"class ledgers re-converged before step {step}; folding",
            )

    def step_fn(self):
        """The mode-appropriate StepLoop step function."""
        return self.meta_step if self.spec.meta else self.numeric_step

    # -- serving hand-off -----------------------------------------------------
    def serving_model(self):
        """The trained weights as one serial model, for the serve layer.

        Gathers the engine's dense replicas and FSDP shards into a
        fresh unsharded model (the checkpoint-export path), which is
        what a :class:`~repro.eval.rollout.RolloutForecaster` — and
        therefore :class:`~repro.serve.server.ForecastServer` — wants
        to hold: inference needs no parallel plan.
        """
        from repro.models import build_model

        if self.spec.meta:
            raise RuntimeError(
                "meta-mode sessions hold no numeric weights to serve; build "
                "the spec with meta=False"
            )
        model = build_model(self.config, rng=0, dtype=np.dtype(self.spec.dtype))
        model.load_state_dict(self.engine.gathered_state_dict())
        return model

    def loop_hooks(self) -> list:
        """StepLoop hooks this session provides (the monitor, if any)."""
        return [self.monitor] if self.monitor.enabled else []

    # -- observability --------------------------------------------------------
    def check_health(self, analysis=None):
        """Run-health findings for the session's trace so far."""
        from repro.obs.health import check_run

        return check_run(
            self.tracer, cluster=self.cluster, plan=self.plan, analysis=analysis
        )

    def peak_memory_bytes(self) -> int:
        """Per-device high-watermark across the cluster."""
        return int(max(
            (device.memory.peak_bytes for device in self.cluster.touched_devices()),
            default=0,
        ))

    # -- sharded checkpoint-resume --------------------------------------------
    def _checkpoint_arrays(self) -> dict[str, np.ndarray]:
        """Every persisted array: dense replicas + flat FSDP shards +
        optimizer moments, keyed for exact restoration."""
        arrays: dict[str, np.ndarray] = {}
        for d in range(self.spec.ddp_size):
            for name, param in self._dense_parameters(d).items():
                arrays[f"{_DENSE}::{d}::{name}"] = np.asarray(param.data)
            for i, sharded in enumerate(self.engine.sharded_parameters(d)):
                for j, shard in enumerate(sharded.shards):
                    arrays[f"{_SHARD}::{d}::{i}::{j}"] = np.asarray(shard)
        for key, value in self.trainer.optimizer.state_dict()["arrays"].items():
            arrays[f"opt::{key}"] = value
        return arrays

    def _dense_parameters(self, replica: int) -> dict:
        front = self.engine.fronts[replica][0]
        head = self.engine.heads[replica][0]
        named = dict(front.named_parameters())
        named.update({f"head.{n}": p for n, p in head.named_parameters()})
        return named

    def save(self, path, *, loop=None, metadata: dict | None = None) -> Path:
        """Write a sharded checkpoint; returns the archive path.

        Persists the dense replicas, the flat FSDP shards, the AdamW
        moments, the scheduler step (``trainer.step_count``), and the
        synthetic-batch RNG state.  ``loop`` (a
        :class:`~repro.runtime.steploop.StepLoop`) additionally stores
        the loss history so a resumed run rebuilds the full
        ``PretrainResult`` trajectory.
        """
        from repro.runtime.checkpoint import save_archive

        if self.spec.meta:
            raise RuntimeError("meta-mode sessions hold no numeric state to save")
        trainer = self.trainer
        meta = {
            "kind": "session",
            "spec": self.spec.identity(),
            "step": trainer.step_count,
            "optimizer": self.trainer.optimizer.state_dict()["scalars"],
            "rng": self.data_rng.bit_generator.state,
            "user": metadata or {},
        }
        if trainer.grad_scaler is not None:
            meta["grad_scaler"] = trainer.grad_scaler.state_dict()
        if loop is not None:
            meta["loop"] = loop.state_dict()
        return save_archive(
            path, self._checkpoint_arrays(), meta, tracer=self.tracer
        )

    def save_meta(self, path, *, loop_state: dict) -> Path:
        """Write a meta-mode supervisor checkpoint.

        Meta-mode sessions hold no numeric state, so the durable record
        of a supervised run is just the data-RNG state plus the step
        loop's position — enough for a fresh incarnation (or a migrated
        plan: the payload is plan-independent) to resume bitwise.
        """
        from repro.runtime.checkpoint import save_archive

        if not self.spec.meta:
            raise RuntimeError("save_meta is the meta-mode checkpoint path; "
                               "numeric sessions use save()")
        return save_archive(
            path,
            {},
            {
                "kind": "supervisor-meta",
                "spec": self.spec.identity(),
                "rng": self.data_rng.bit_generator.state,
                "loop": loop_state,
            },
            tracer=self.tracer,
        )

    def resume_meta(self, path) -> dict:
        """Restore a :meth:`save_meta` archive; returns the loop state.

        No spec-identity check: the RNG and loop position are
        plan-independent, which is exactly what lets crash recovery and
        mid-run plan migration share one archive format.
        """
        from repro.runtime.checkpoint import load_archive

        _, meta = load_archive(path, tracer=self.tracer)
        if meta.get("kind") != "supervisor-meta":
            raise ValueError(f"{path} is not a supervisor-meta checkpoint")
        self.data_rng.bit_generator.state = meta["rng"]
        return meta["loop"]

    def _load_session_archive(self, path) -> tuple[dict, dict]:
        """``(arrays, metadata)`` of a :meth:`save` archive."""
        from repro.runtime.checkpoint import load_archive

        if self.spec.meta:
            raise RuntimeError("meta-mode sessions cannot resume numeric state")
        arrays, meta = load_archive(path, tracer=self.tracer)
        if meta.get("kind") != "session":
            raise ValueError(f"{path} is not a session checkpoint")
        return arrays, meta

    def _restore(self, arrays: dict, meta: dict, *, archive_ddp=None) -> dict:
        """The restore body of :meth:`resume` and :meth:`resume_elastic`:
        dense parameters, FSDP shards, optimizer, scheduler step, grad
        scaler, data RNG.  Returns ``meta``.

        ``archive_ddp`` is the archive's DDP extent on an elastic resume
        (``None``: every replica restores its own entries): replica 0's
        entries, copied so survivors never alias one buffer, and its
        block of optimizer moments seed every surviving replica.
        """
        elastic = archive_ddp is not None
        for d in range(self.spec.ddp_size):
            source = 0 if elastic else d
            for name, param in self._dense_parameters(d).items():
                value = arrays[f"{_DENSE}::{source}::{name}"]
                if tuple(value.shape) != tuple(np.asarray(param.data).shape):
                    raise ValueError(f"shape mismatch restoring dense {name}")
                param.data = value.copy() if elastic else value
            for i, sharded in enumerate(self.engine.sharded_parameters(d)):
                for j in range(sharded.num_shards):
                    shard = arrays[f"{_SHARD}::{source}::{i}::{j}"]
                    sharded.shards[j] = shard.copy() if elastic else shard
        opt_arrays = {
            key[len("opt::"):]: value
            for key, value in arrays.items()
            if key.startswith("opt::")
        }
        if elastic:
            # Optimizer moments are positional over per-replica handle
            # blocks (dense handles then shard views); reuse replica 0's
            # block for every surviving replica.
            total_old = len(opt_arrays) // 2
            if total_old % archive_ddp:
                raise ValueError(
                    f"optimizer state holds {total_old} moment pairs, not a "
                    f"whole number of {archive_ddp} replica blocks"
                )
            per_replica = total_old // archive_ddp
            remapped = {}
            for d in range(self.spec.ddp_size):
                for i in range(per_replica):
                    remapped[f"m::{d * per_replica + i}"] = opt_arrays[f"m::{i}"]
                    remapped[f"v::{d * per_replica + i}"] = opt_arrays[f"v::{i}"]
            opt_arrays = remapped
        trainer = self.trainer
        trainer.optimizer.load_state_dict({
            "arrays": opt_arrays,
            "scalars": meta["optimizer"],
        })
        trainer.step_count = meta["step"]
        if trainer.grad_scaler is not None and "grad_scaler" in meta:
            trainer.grad_scaler.load_state_dict(meta["grad_scaler"])
        self.data_rng.bit_generator.state = meta["rng"]
        return meta

    def resume(self, path) -> dict:
        """Restore a checkpoint written by :meth:`save`; returns metadata.

        Raises ``ValueError`` when the checkpoint's structural identity
        (model, topology, grid, dtype) does not match this session's
        spec — resuming into a different world layout is never silent.
        """
        arrays, meta = self._load_session_archive(path)
        if meta["spec"] != self.spec.identity():
            raise ValueError(
                f"checkpoint {path} was written for {meta['spec']}, "
                f"which does not match this session's {self.spec.identity()}"
            )
        return self._restore(arrays, meta)

    def resume_elastic(self, path) -> dict:
        """Restore a checkpoint into a *shrunken* world (DDP axis only).

        The elastic-recovery path: after losing a node, the supervisor
        rebuilds the session with a smaller ``ddp_size`` (micro-batch
        rescaled so the global batch is unchanged) and resumes from the
        pre-loss archive.  Replicas are synchronized by construction —
        every replica holds identical dense parameters, FSDP shards,
        and optimizer moments — so the archive's replica 0 seeds every
        surviving replica.  The model configuration, ``tp x fsdp``
        shape, rank layout, and dtype must still match exactly; only
        the DDP extent (and with it ``num_gpus`` / ``micro_batch``) may
        differ.  Returns the archive metadata.
        """
        arrays, meta = self._load_session_archive(path)
        theirs, mine = meta["spec"], self.spec.identity()
        fixed = ("config", "dtype", "tp_innermost")
        for key in fixed:
            if theirs[key] != mine[key]:
                raise ValueError(
                    f"elastic resume may only change the DDP extent; "
                    f"{key} differs: {theirs[key]!r} vs {mine[key]!r}"
                )
        if theirs["grid"][:2] != mine["grid"][:2]:
            raise ValueError(
                f"elastic resume may only change the DDP extent; "
                f"tp/fsdp differ: {theirs['grid'][:2]} vs {mine['grid'][:2]}"
            )
        # Pre-4D archives carry a 3-element grid: an implicit pp of 1.
        old_pp = int(theirs["grid"][3]) if len(theirs["grid"]) > 3 else 1
        if old_pp != int(mine["grid"][3]):
            raise ValueError(
                f"elastic resume may only change the DDP extent; "
                f"pipeline depth differs: {old_pp} vs {mine['grid'][3]}"
            )
        old_ddp = int(theirs["grid"][2])
        old_global = theirs["micro_batch"] * theirs["grid"][1] * old_ddp
        if old_global != self.spec.observations:
            raise ValueError(
                f"elastic resume must preserve the global batch: archive "
                f"carries {old_global}, this session {self.spec.observations}"
            )
        return self._restore(arrays, meta, archive_ddp=old_ddp)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "meta" if self.spec.meta else "numeric"
        pp = f" pp={self.spec.pp_size}" if self.spec.pp_size > 1 else ""
        return (
            f"Session({self.config.name}, {self.spec.num_gpus} GPUs, "
            f"tp={self.spec.tp_size} fsdp={self.spec.fsdp_size} "
            f"ddp={self.spec.ddp_size}{pp}, {mode})"
        )
