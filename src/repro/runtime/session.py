"""Session: one builder from a :class:`RunSpec` to the live stack.

The five copy-pasted construction sites (bench harness, traced-step
capture, tuner validation, experiment drivers, ad-hoc scripts) all
route through here: a Session owns the tracer, the virtual cluster,
the parallel plan, the engine (meta or numeric mode), and — for
numeric runs — the distributed trainer with its shard-aware optimizer.
On top of the unified construction sit the two checkpoint methods:
:meth:`Session.save` persists dense replicas, flat FSDP shards,
optimizer moments, the scheduler step, and the data-RNG state (a meta
session: the RNG alone); :meth:`Session.resume` restores all of it
bitwise — in place, or elastically into a DDP-resized world, as the
archive dictates — so a resumed run reproduces the uninterrupted loss
trajectory exactly.
"""

from __future__ import annotations

import math
import operator
from contextlib import nullcontext
from functools import partial
from pathlib import Path

import numpy as np

from repro.cluster.cluster import VirtualCluster
from repro.cluster.timeline import EventStream, FoldedTimeline
from repro.cluster.topology import FrontierTopology
from repro.nn.context import (
    ExecutionContext,
    active_precision,
    execution_context,
    record_flops,
)
from repro.nn.tape import _data, _Recording, replay
from repro.obs.tracer import Tracer
from repro.runtime.spec import RunSpec
from repro.runtime.tapes import STEP_TAPES, StepTape

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
        :data:`~repro.obs.off.OFF` otherwise.  Pass an existing instance
        to keep one telemetry stream across session rebuilds (the
        Supervisor does this through ``session_kwargs``, the same
        pattern as the fault injector).  Its journal is :attr:`journal`,
        which fold switches are appended to through the one write path,
        :meth:`~repro.obs.journal.EventJournal.append`, unless a
        Supervisor hands the session its own, monitored or not.
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
        #: The run's one record (OFF when off; see the class docstring).
        self.journal = monitor.journal
        #: Synthetic-batch stream state; persisted by :meth:`save`.
        self.data_rng = np.random.default_rng(spec.seed)
        self._precision = precision
        self._grad_scaler = grad_scaler
        self._trainer = None
        #: tape key -> False once sighted, then the bound tape (see _bind)
        #: or the reason (str) it runs per-op (see _taped).
        self._tapes: dict = {}
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
        every step, so it goes through :meth:`_taped`, keyed also by its
        input signature and whether a grad scaler is present; the
        optimizer tail runs per-op.  Only pp = 1 steps the injector
        cannot touch replay, and not the retry of a step that raised.
        See DESIGN.md §9, "Numeric step replay".  Oracle:
        :meth:`execute_numeric_step`.
        """
        segment = self._forward_backward
        if self.engine.step_stream_is_invariant:
            trainer = self.trainer
            replayable = not (self._numeric_raised
                              or self.cluster.injector.affects_step(step))

            def segment(inputs):
                key = self._tape_key(
                    tuple((getattr(x, "shape", None), getattr(x, "dtype", None))
                          for x in inputs),
                    trainer.grad_scaler is not None)
                return self._taped(key, trainer.step_count, replayable,
                                   partial(self._forward_backward, inputs), inputs)
        self._numeric_raised = True
        result = self._numeric_step(segment)
        self._numeric_raised = False
        return result

    def execute_numeric_step(self, step: int = 0) -> tuple[float, int]:
        """:meth:`numeric_step` without step replay — its oracle: every
        step runs every op."""
        return self._numeric_step(self._forward_backward)

    def _numeric_step(self, segment) -> tuple[float, int]:
        batch = self.synthetic_batch()
        loss = self.trainer.train_step(batch, segment)
        return loss, batch.x.shape[0]

    def _forward_backward(self, inputs: list) -> list:
        losses = self.trainer.forward_backward(inputs)
        self.tracer.metrics.counter("runtime.numeric_steps_executed").inc()
        return losses

    # -- step replay -----------------------------------------------------------
    def _tape_key(self, *own) -> tuple:
        """What a step's recording depends on: the whole spec (not
        ``identity()``, which drops five fields that change a step),
        whether the tracer is on (an untraced capture records empty
        scopes), the active precision, and the kind's ``own`` inputs."""
        return (self.spec, self.tracer.enabled,
                self._precision or active_precision(), *own)

    def _taped(self, key, step: int, replayable: bool, execute, inputs=()):
        """``execute()`` — one meta step, or one numeric segment over
        ``inputs`` — through the session's one capture-or-replay path.

        The session settles ``key`` once: to the tape it recorded, or
        the one :data:`STEP_TAPES` holds, bound to its own parameters
        (and a numeric tape's owners); or to the reason (str) a numeric
        recording failed.  A replayable step with a tape replays it.  A
        meta key records on its first step, a numeric one on its first
        replayable step after the one that sighted it; every other step
        executes."""
        tape = self._tapes.get(key)
        if not tape:  # unseen or only sighted here: take what the store holds
            stored = STEP_TAPES.get(key)
            if stored is not None:
                tape = self._tapes[key] = self._bind(stored)
                if getattr(stored, "kernels", None) is not None:
                    self.tracer.metrics.counter("runtime.numeric_tapes_inherited").inc()
        if replayable and type(tape) is tuple:
            return self._replay(tape, step, inputs)
        if replayable and tape is (None if self.spec.meta else False):
            result = self._record(key, step, execute, inputs)
        else:
            self._tapes.setdefault(key, False)
            result = execute()
        if replayable and type(self._tapes[key]) is str:  # only kernels fail
            self.tracer.metrics.counter("runtime.numeric_step_fallbacks").inc()
        return result

    def _record(self, key, step: int, execute, inputs):
        """``execute()`` under the timeline capture (and, for a numeric
        segment, one kernel recording), measuring each touched device's
        memory ``Rise``; settles ``key`` for good, here and in
        :data:`STEP_TAPES`, unless it raised."""
        meta, cluster = self.spec.meta, self.cluster
        recording = nullcontext() if meta else _Recording(inputs, self._tape_owners()[0])
        flops = ExecutionContext()
        starts = {device.rank: device.memory.begin_rise()
                  for device in cluster.touched_devices()}
        try:
            with cluster.timeline.capture() as events, recording, execution_context(flops):
                result = execute()
        finally:  # restores the peaks each rise restarted, raise or not
            rises = [(device.rank, device.memory.end_rise(starts.get(device.rank)))
                     for device in cluster.touched_devices()]
        # A rise of nothing would only touch its device when replayed (a
        # folded step recorded after a refold sees every replica's).
        rises = tuple((rank, rise) for rank, rise in rises if rise.total or rise.by_tag)
        dense_all, sharded_all = self._flat_parameters()
        dense = tuple(i for i, p in enumerate(dense_all) if p.grad is not None)
        sharded = tuple(i for i, p in enumerate(sharded_all) if p.grad_shards is not None)
        tape = StepTape(f"step.{step}/", EventStream(events), rises, flops.matmul_flops,
                        flops.flops - flops.matmul_flops, dense, sharded)
        if meta:  # frozen shapes: a later write to a shard list puts an equal one there
            tape = tape._replace(grads=(*(dense_all[i].grad for i in dense), *(
                sharded_all[i].grad_shards for i in sharded)))
        else:
            outputs = [*result, *(dense_all[i].grad for i in dense),
                       *(g for i in sharded for g in sharded_all[i].grad_shards)]
            results = [recording.slots.get(id(value)) for value in outputs]
            if None in results:
                recording.fail("a loss or gradient is not the output of a taped kernel")
            # The step tape credits the FLOPs, so its kernels credit none.
            tape = recording.failed or tape._replace(
                kernels=recording.freeze(results, ExecutionContext()),
                num_losses=len(result))
        self._tapes[key] = self._bind(tape)
        STEP_TAPES.put(key, tape)
        return result

    def _replay(self, bound: tuple, step: int, inputs):
        """The bound tape, replayed as step ``step``: a numeric tape's
        kernels on ``inputs`` and this session's owners, each device's
        peaks raised by the recorded rise, the stream with ``step.<N>/``
        swapped, the FLOP totals credited and the gradients the recorded
        step left written back.  Returns the losses (meta: None)."""
        tape, kernels, dense, sharded = bound
        losses, grads = None, tape.grads
        if kernels is not None:
            values = replay(kernels, inputs)
            self.engine.zero_grad()
            losses, flat = values[:tape.num_losses], iter(values[tape.num_losses:])
            grads = [next(flat) for _ in dense] + [
                [next(flat) for _ in param.shards] for param in sharded]
        for rank, rise in tape.rises:
            self.cluster.device(rank).memory.raise_peaks(rise)
        self.cluster.timeline.replay(
            tape.events, renames=((tape.captured, f"step.{step}/"),))
        record_flops(tape.matmul_flops, matmul=True)
        record_flops(tape.other_flops)
        for param, grad in zip(dense, grads):
            param.grad = grad
        for param, shards in zip(sharded, grads[len(tape.dense):]):
            param.grad_shards = shards
        kind = "meta" if self.spec.meta else "numeric"
        self.tracer.metrics.counter(f"runtime.{kind}_steps_replayed").inc()
        return losses

    def _flat_parameters(self) -> tuple[list, list]:
        """Every replica's dense and sharded parameters, in one list each."""
        engine = self.engine
        replicas = range(len(engine.trunks))
        return ([p for d in replicas for p in engine.dense_parameters(d)],
                [p for d in replicas for p in engine.sharded_parameters(d)])

    def _tape_owners(self) -> tuple[dict, dict]:
        """The arrays a step segment reads but did not make, two ways:
        ``id(value) -> (address, key)`` for a recording, and ``address
        -> (read, owner)`` for binding a tape; ``read(owner, key)`` is
        the value now.  A dense parameter is read through its module's
        registry, a flat shard as ``shards[j]`` and the grad scaler off
        the trainer: AdamW, ``resume`` and a new incarnation rebind all
        three, and an address outlives the session that recorded it."""
        engine, trainer = self.engine, self.trainer
        owners, addresses = {}, {}
        for d in range(len(engine.trunks)):
            for prefix, model in (("", engine.fronts[d][0]), ("head", engine.heads[d][0])):
                for path, module in model.named_modules():
                    address = ("dense", d, ".".join(filter(None, (prefix, path))))
                    addresses[address] = (_data, module._parameters)
                    owners.update({id(param.data): (address, name)
                                   for name, param in module._parameters.items()})
        for i, param in enumerate(self._flat_parameters()[1]):
            address = ("shard", i)
            addresses[address] = (operator.getitem, param.shards)
            owners.update({id(shard): (address, j) for j, shard in enumerate(param.shards)})
        addresses[("trainer",)] = (getattr, trainer)
        if trainer.grad_scaler is not None:
            owners[id(trainer.grad_scaler)] = (("trainer",), "grad_scaler")
        return owners, addresses

    def _bind(self, tape):
        """``(tape, kernels, dense, sharded)``: ``tape`` read from and
        written back to this session's owners and parameters (a reason,
        str, as it is).  A meta tape recorded after a refold wrote every
        replica; a session that built fewer writes the ones it has."""
        if type(tape) is str:
            return tape
        kernels = tape.kernels
        if kernels is not None:
            addresses = self._tape_owners()[1]
            template, params, *rest = kernels
            kernels = (template, [(slot, *addresses[address], key)
                                  for slot, address, key in params], *rest)
        dense_all, sharded_all = self._flat_parameters()
        return (tape, kernels, [dense_all[i] for i in tape.dense if i < len(dense_all)],
                [sharded_all[i] for i in tape.sharded if i < len(sharded_all)])

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
        the ledgers or the fault plan, so it goes through :meth:`_taped`
        keyed also by the fold mode: the first step of a fold mode runs
        under a :meth:`~repro.cluster.timeline.Timeline.capture` and
        later ones :meth:`~repro.cluster.timeline.Timeline.replay` it
        with the ``step.<N>`` scope swapped: injector, tracer, ledgers
        and collective ids see an executed step's calls, and a fault
        raises from the same event.  Every replay raises each device's
        peaks by the rise the captured step made, credits its FLOP
        totals and writes back the gradient shapes it left.  Never taken
        from an engine whose ``step_stream_is_invariant`` is false.
        Oracle: :meth:`execute_meta_step`.
        """
        self._sync_fold_mode(step)
        if self.engine.step_stream_is_invariant:
            self._taped(self._tape_key(getattr(self.cluster.timeline, "folded", None)),
                        step, True, partial(self._engine_step, step))
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
                self.engine.materialize_replicas()
                self.journal.append(
                    step, "fold", category="exact",
                    message=f"step {step} is inside a fault window; "
                            f"simulating every rank",
                )
        elif not timeline.folded and timeline.try_refold():
            self.journal.append(
                step, "fold", category="folded",
                message=f"class ledgers re-converged before step {step}; "
                        f"folding",
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
        """Write a checkpoint; returns the archive path.

        A numeric session writes a ``session`` archive: the dense
        replicas, the flat FSDP shards, the AdamW moments, the scheduler
        step (``trainer.step_count``), the grad scaler and the
        synthetic-batch RNG state.  A meta session holds no numeric
        state, so its ``supervisor-meta`` archive is the RNG state alone
        — plan-independent.  ``loop`` (a
        :class:`~repro.runtime.steploop.StepLoop`) additionally stores
        the loop position and loss history, so a resumed run rebuilds
        the full ``PretrainResult`` trajectory.
        """
        from repro.runtime.checkpoint import save_archive

        rng = self.data_rng.bit_generator.state
        if self.spec.meta:
            arrays = {}
            meta = {"kind": "supervisor-meta", "spec": self.spec.identity(),
                    "rng": rng}
            if metadata is not None:
                meta["user"] = metadata
        else:
            trainer = self.trainer
            arrays = self._checkpoint_arrays()
            meta = {
                "kind": "session",
                "spec": self.spec.identity(),
                "step": trainer.step_count,
                "optimizer": trainer.optimizer.state_dict()["scalars"],
                "rng": rng,
                "user": metadata or {},
            }
            if trainer.grad_scaler is not None:
                meta["grad_scaler"] = trainer.grad_scaler.state_dict()
        if loop is not None:
            meta["loop"] = loop.state_dict()
        return save_archive(path, arrays, meta, tracer=self.tracer)

    def resume(self, path) -> dict:
        """Restore a :meth:`save` archive; returns its metadata (the loop
        state under ``"loop"``).  The archive decides how:

        * a ``supervisor-meta`` archive restores the data RNG into a
          meta session of any plan;
        * a ``session`` archive whose spec identity equals this
          session's restores in place;
        * one that differs only in the DDP extent (``num_gpus``,
          ``ddp_size``, ``micro_batch``) with the global batch preserved
          restores elastically — after a node loss or a plan migration.
          Replicas are synchronized by construction, so the archive's
          replica 0 seeds every surviving replica.

        Anything else raises ``ValueError`` naming the path and the
        first identity field that differs: resuming into a different
        world layout is never silent.
        """
        from repro.runtime.checkpoint import load_archive

        arrays, meta = load_archive(path, tracer=self.tracer)
        mode, kind = (("meta", "supervisor-meta") if self.spec.meta
                      else ("numeric", "session"))
        if meta.get("kind") != kind:
            raise ValueError(
                f"checkpoint {path} is a {meta.get('kind')!r} archive, which "
                f"does not match this {mode} session (it resumes {kind!r})"
            )
        if self.spec.meta:
            self.data_rng.bit_generator.state = meta["rng"]
            return meta
        theirs, mine = meta["spec"], self.spec.identity()
        if theirs == mine:
            return self._restore(arrays, meta)
        # Elastic: the archive's DDP extent is bridged; all else must match.
        tp, fsdp, ddp, pp = [*theirs["grid"], 1][:4]  # pre-4D archives: pp 1
        bridged = dict(theirs, topology=f"g{self.spec.num_gpus}x"
                       + theirs["topology"].split("x")[1],
                       grid=[tp, fsdp, self.spec.ddp_size, pp],
                       micro_batch=mine["micro_batch"])
        for key in mine:
            if bridged[key] != mine[key]:
                raise ValueError(
                    f"checkpoint {path} was written for {key} "
                    f"{theirs[key]!r}, which does not match this session's "
                    f"{mine[key]!r} (only the DDP extent may differ)"
                )
        if theirs["micro_batch"] * fsdp * ddp != self.spec.observations:
            raise ValueError(
                f"checkpoint {path} was written for a global batch of "
                f"{theirs['micro_batch'] * fsdp * ddp}, which does not match "
                f"this session's {self.spec.observations}"
            )
        return self._restore(arrays, meta, archive_ddp=ddp)

    def _restore(self, arrays: dict, meta: dict, *, archive_ddp=None) -> dict:
        """The restore body of :meth:`resume`: dense parameters, FSDP
        shards, optimizer, scheduler step, grad scaler, data RNG.
        Returns ``meta``.

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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "meta" if self.spec.meta else "numeric"
        pp = f" pp={self.spec.pp_size}" if self.spec.pp_size > 1 else ""
        return (
            f"Session({self.config.name}, {self.spec.num_gpus} GPUs, "
            f"tp={self.spec.tp_size} fsdp={self.spec.fsdp_size} "
            f"ddp={self.spec.ddp_size}{pp}, {mode})"
        )
