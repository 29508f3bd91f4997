"""Analytic per-candidate cost estimates for the parallelism planner.

Step time is derived without running a full engine step.  The key
structural facts that make this exact rather than approximate:

* the :class:`~repro.cluster.timeline.Timeline` accounts each rank's
  ledger independently (walltime is the max over ranks of
  ``compute_s + exposed_comm_s``), so only each rank's *own ordered
  event sequence* matters, never the cross-rank interleaving;
* all DDP replicas are identical and all FSDP indices are symmetric,
  so only the K tensor-parallel rank classes ``rank(s, 0, 0, k)`` can be
  the slowest rank (class k=0 additionally carries the layer-norm /
  bias / dense work);
* every trunk block produces the same event sequence (identical
  shapes), so one block is probed and replayed ``depth`` times;
* pipeline stages are rank-offset copies of one 3D grid, so the same
  probe replays at each stage's offset over its slice of the blocks —
  one :meth:`AnalyticEstimator.estimate` body for every pipeline
  degree, a 3D candidate being the one-stage case.

The probe runs the *real* :class:`~repro.core.hybrid_block.HybridSTOPBlock`
code path on shape-only meta arrays inside a
:meth:`~repro.cluster.timeline.Timeline.capture`: FLOP counts come from
the meta op layer and collective seconds from the alpha-beta
:class:`~repro.cluster.costmodel.CollectiveCostModel` along the plan's
true group layout.  The captured per-block stream — plus closed-form
events for the dense front/head, the replicated-dense gradient sync,
and the DDP shard reductions — goes through
:meth:`~repro.cluster.timeline.Timeline.replay` on a fresh timeline (the
replayer the trunk's own depth replay and ``FoldedTimeline.expand`` run
on), reproducing the engine's overlap accounting (prefetch hiding,
budget resets) exactly.

Cost is class-sized.  The probe block runs on a
:class:`~repro.cluster.timeline.FoldedTimeline`, so its per-shard loops
execute ``f = 0`` only — ``tp`` iterations, not ``tp * fsdp`` — and the
narrowed capture keeps exactly the representatives' events (iteration 0
and the FSDP collectives around it are theirs on any layout, so no
fold-eligibility check is involved).  One block is executed per
``(tp, micro_batch)`` (8 on the ``tune-4d`` sweep of 304 candidates):
the stage-0, replica-0 ranks the block runs on do not depend on how the
rest of the machine splits into DDP x PP, and ``recompute`` is
replay-only.  The FSDP extent and ``tp_innermost`` change only the
ranks a collective spans and the padded bytes it moves, so every
layout's stream is re-priced from the block executed at fsdp = 1
(:func:`_fsdp_twin`, which fails closed to executing the layout's own
block); and the prefetch flag reaches a block's events through one
expression (``_gather``'s ``overlappable=self.prefetch``), so the
prefetch-off stream is derived from the prefetch-on one
(:func:`_blocking_twin`).

Each probe stream is an :class:`~repro.cluster.timeline.EventStream`,
which a fresh untraced ``Timeline`` lands as per-rank column sums
instead of walking its events.  A candidate then costs
``depth`` column applications of a ``tp``-rank stream plus a few dozen
closed-form ``record_*`` calls that do not grow with ``depth`` — not
``ddp * depth`` executed blocks plus engine construction.  Re-pricing
under a degradation profile attaches an injector whose ``pricing`` is
settled, so the replays still land: from a form compiled per profile
and stage offset, each event's seconds stretched once, at compile time.

Peak memory comes from the closed-form
:class:`~repro.memory.estimator.MemoryModel` (real-machine bytes:
optimizer states, activations), which is what prunes OOM candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.symmetry import RankClassPartition
from repro.cluster.timeline import (
    EventStream,
    FoldedTimeline,
    Timeline,
    stretch_compute,
)
from repro.core.sharding import padded_size
from repro.memory.estimator import MemoryModel, Parallelism, TrainingSetup
from repro.meta import MetaArray, nbytes_of
from repro.models.climax_vit import build_model
from repro.models.configs import OrbitConfig
from repro.nn.context import ExecutionContext, execution_context
from repro.nn.transformer import TransformerBlock
from repro.parallel.compute import PeakFractionCompute
from repro.parallel.plan import HybridParallelPlan
from repro.parallel.stages import (
    bubble_fraction,
    dense_by_stage,
    partition_blocks,
    schedule_walltime,
)
from repro.runtime.session import build_cluster, fabricate_batch
from repro.tune.space import Candidate


@dataclass(frozen=True)
class Estimate:
    """Analytic prediction for one candidate."""

    candidate: Candidate
    #: Predicted step walltime (slowest rank's busy time).
    step_time_s: float
    #: Ledger buckets of the predicted critical rank.
    compute_s: float
    comm_s: float
    exposed_comm_s: float
    #: Real-machine per-GPU bytes from the closed-form memory model.
    peak_memory_bytes: float
    #: Whether the candidate fits the per-GPU memory budget.
    fits: bool
    #: Pipeline-bubble cost: idle seconds the 1F1B schedule adds beyond
    #: the slowest stage's busy time, and the schedule's idle fraction
    #: ``(S - 1) / (M + S - 1)``.  Both exactly zero for one stage.
    bubble_s: float = 0.0
    bubble_fraction: float = 0.0

    @property
    def time_per_obs_s(self) -> float:
        return self.step_time_s / self.candidate.observations

    @property
    def exposed_comm_fraction(self) -> float:
        busy = self.compute_s + self.exposed_comm_s
        return self.exposed_comm_s / busy if busy > 0 else 0.0


class _ProfileInjector:
    """Timeline injector pricing a projected degradation profile.

    The :class:`~repro.faults.injector.FaultInjector`'s two degradation
    hooks without its schedule: compute events on a degraded rank are
    stretched by its straggler factor (:func:`stretch_compute`, so stall
    filler stays exempt), collectives by the link factor of every
    degraded participant, one after the other — an estimate replayed
    under it predicts what the *injected* engine run would measure.
    Nothing it does raises or changes state, so its ``pricing`` is
    settled from the start: its type (the fault injector multiplies
    link factors in another order) and its sorted factors.
    """

    def __init__(self, compute_factors: dict[int, float],
                 link_factors: dict[int, float]):
        self._compute_factors = compute_factors
        self._link_factors = link_factors
        self.pricing = (type(self), tuple(sorted(compute_factors.items())),
                        tuple(sorted(link_factors.items())))

    def before_compute(self, rank, seconds, op):
        return stretch_compute(seconds, self._compute_factors.get(rank, 1.0), op)

    def before_comm(self, ranks, seconds, op):
        for rank in ranks:
            seconds = seconds * self._link_factors.get(rank, 1.0)
        return seconds


def _grid(candidate: Candidate) -> RankClassPartition:
    """Rank arithmetic of ``candidate``'s (PP, DDP, FSDP, TP) layout."""
    return RankClassPartition(
        candidate.tp_size, candidate.fsdp_size, candidate.ddp_size,
        candidate.tp_innermost, candidate.pp_size,
    )


def _class_representative(candidate: Candidate, rank: int) -> int:
    """The estimator's replay rank standing in for physical ``rank``.

    The replay only simulates the tensor-parallel rank classes
    ``rank(stage, 0, 0, k)`` (all DDP replicas and FSDP
    indices are symmetric), so a degradation on any physical rank is
    projected onto its class representative.  Exact when at most one
    member of each class is degraded; class-maximal (the projection
    can only overstate the current plan's degradation, never invent a
    difference between candidates) otherwise.
    """
    grid = _grid(candidate)
    _, _, k = grid.coords(rank)
    return grid.rank(grid.stage_of(rank), 0, 0, k)


@dataclass(frozen=True)
class _BlockProbe:
    """One trunk block's event stream, pre-filtered to the rank classes."""

    forward: EventStream
    backward: EventStream
    #: (tensor-parallel column, shard bytes) of each sharded parameter —
    #: the DDP gradient reduction schedule of one block.
    shard_columns: tuple[tuple[int, int], ...]
    #: The one itemsize of the block's sharded parameters (``None`` when
    #: they mix dtypes): what turns FSDP bytes into padded elements.
    itemsize: int | None


def _blocking_twin(stream: EventStream) -> EventStream:
    """The stream the same block records with prefetch off.

    ``prefetch`` reaches a block's events through one expression,
    ``gather_param(..., overlappable=self.prefetch)`` in
    :meth:`repro.core.base.HybridModuleBase._gather`, so the twin is the
    prefetched stream with that flag cleared on its collectives —
    ``_probe_block`` of the ``prefetch=False`` candidate is the oracle
    (``tests/tune/test_probe_fold.py``).
    """
    return EventStream(
        event[:4] + (False,) + event[5:]
        if event[0] == "comm" and event[4] else event
        for event in stream
    )


def _fsdp_twin(base: _BlockProbe, grid: RankClassPartition, cost_model,
               compute_model) -> _BlockProbe | None:
    """The probe the block of ``base`` records on ``grid``'s (TP, FSDP)
    layout, ``base`` being the one it recorded at fsdp = 1; ``None``
    (fail closed) when ``base`` holds an event the rule does not cover.

    At fsdp = 1 column ``k``'s representative is rank ``k``, and the FSDP
    extent and ``tp_innermost`` change only the ranks a collective spans
    and the padded bytes it moves:

    * compute moves to ``grid.rank(0, 0, 0, k)``, priced there;
    * an ``all_reduce`` (a TP or sub-head group) is re-priced over its
      mapped ranks;
    * each ``all_gather`` / ``reduce_scatter`` covers one column's FSDP
      group, a single rank at fsdp = 1.  It is re-priced over
      ``rank(0, 0, f, k) for f < F`` with :func:`padded_size` bytes, and
      its rank tuple keeps the column's representative only, as the
      narrowed capture (``timeline._restrict``) does;
    * each sharded parameter gets its padded shard bytes.

    Any other collective, a gather over more than one rank, or bytes
    that are not whole elements of the one parameter itemsize fail
    closed.  ``_probe_block`` of the candidate is the oracle
    (``tests/tune/test_probe_fold.py``).
    """
    itemsize, F, K = base.itemsize, grid.fsdp_size, grid.tp_size
    if itemsize is None:
        return None
    reps = [grid.rank(0, 0, 0, k) for k in range(K)]
    fsdp_groups = [tuple(grid.rank(0, 0, f, k) for f in range(F))
                   for k in range(K)]

    def padded_nbytes(nbytes: int, shards: int) -> int | None:
        numel, rest = divmod(nbytes, itemsize)
        return None if rest else padded_size(numel, F) // shards * itemsize

    def twin(stream: EventStream) -> EventStream | None:
        events = []
        for event in stream:
            if event[0] == "compute":
                _, k, _, flops = event[:4]
                rank = reps[k]
                events.append(("compute", rank,
                               compute_model.seconds_for(flops, rank))
                              + event[3:])
                continue
            if event[0] != "comm":
                return None
            _, ranks, _, nbytes, _, op = event[:6]
            if op == "all_reduce":
                group = tuple(reps[k] for k in ranks)
                seconds = cost_model.all_reduce(group, nbytes)
            elif op in ("all_gather", "reduce_scatter") and len(ranks) == 1:
                nbytes = padded_nbytes(nbytes, 1)
                if nbytes is None:
                    return None
                (k,) = ranks
                group = (reps[k],)
                seconds = getattr(cost_model, op)(fsdp_groups[k], nbytes)
            else:
                return None
            events.append(("comm", group, seconds, nbytes) + event[4:])
        return EventStream(events)

    forward, backward = twin(base.forward), twin(base.backward)
    shard_columns = tuple(
        (column, padded_nbytes(nbytes, F))
        for column, nbytes in base.shard_columns
    )
    if forward is None or backward is None or any(
            nbytes is None for _, nbytes in shard_columns):
        return None
    return _BlockProbe(forward, backward, shard_columns, itemsize)


@dataclass(frozen=True)
class _DenseProbe:
    """Dense front/head FLOPs and parameter bytes for one micro-batch."""

    front_fwd_flops: float
    head_fwd_flops: float
    head_bwd_flops: float
    front_bwd_flops: float
    front_param_nbytes: tuple[int, ...]
    head_param_nbytes: tuple[int, ...]


class AnalyticEstimator:
    """Scores candidates of one (model, topology) request analytically."""

    def __init__(
        self,
        config: OrbitConfig,
        num_gpus: int,
        gpus_per_node: int = 8,
    ):
        self.config = config
        self.num_gpus = num_gpus
        self.gpus_per_node = gpus_per_node
        self.memory_model = MemoryModel()
        # One shared probe cluster: all candidates factorize the same
        # world, and its timeline is reset per probe.
        self._cluster = build_cluster(
            num_gpus, gpus_per_node, track_device_memory=False
        )
        self._compute_model = PeakFractionCompute(self._cluster)
        self._model = None
        #: (tp, fsdp, tp_innermost, micro_batch) -> the block's probes
        #: without and with prefetch, indexed by the flag.
        self._block_probes: dict[tuple, tuple[_BlockProbe, _BlockProbe]] = {}
        #: (tp, micro_batch) -> the executed fsdp = 1, prefetch-on probe
        #: every (fsdp, tp_innermost) layout's stream is derived from.
        self._fsdp1_probes: dict[tuple[int, int], _BlockProbe] = {}
        self._dense_probes: dict[int, _DenseProbe] = {}

    # -- memory -----------------------------------------------------------------
    def memory_setup(self, candidate: Candidate) -> TrainingSetup:
        """The closed-form memory model's view of a candidate."""
        return TrainingSetup(
            self.config,
            self.num_gpus,
            Parallelism.HYBRID_STOP,
            tp_size=candidate.tp_size,
            fsdp_size=candidate.fsdp_size,
            pp_size=candidate.pp_size,
            micro_batch=candidate.micro_batch,
            activation_checkpointing=candidate.recompute,
            layer_wrapping=True,
            prefetch=candidate.prefetch,
        )

    def peak_memory_bytes(self, candidate: Candidate) -> float:
        return self.memory_model.per_gpu_bytes(self.memory_setup(candidate))

    def fits(self, candidate: Candidate) -> bool:
        return self.memory_model.fits(self.memory_setup(candidate))

    # -- probes -----------------------------------------------------------------
    def _dense_probe(self, micro_batch: int) -> _DenseProbe:
        if micro_batch in self._dense_probes:
            return self._dense_probes[micro_batch]
        from repro.parallel.engine import _DenseFront, _DenseHead

        if self._model is None:
            self._model = build_model(self.config, meta=True)
        front = _DenseFront(self._model)
        head = _DenseHead(self._model)
        cfg = self.config
        x = MetaArray((micro_batch, cfg.in_vars, cfg.img_height, cfg.img_width))
        lead = MetaArray((micro_batch,))
        phases = [ExecutionContext() for _ in range(4)]
        with execution_context(phases[0]):
            tokens = front.forward(x, lead)
        with execution_context(phases[1]):
            preds = head.forward(tokens)
        with execution_context(phases[2]):
            grad_tokens = head.backward(MetaArray(preds.shape))
        with execution_context(phases[3]):
            front.backward(grad_tokens)
        probe = _DenseProbe(
            front_fwd_flops=phases[0].flops,
            head_fwd_flops=phases[1].flops,
            head_bwd_flops=phases[2].flops,
            front_bwd_flops=phases[3].flops,
            front_param_nbytes=tuple(
                nbytes_of(p.data) for p in front.parameters()
            ),
            head_param_nbytes=tuple(
                nbytes_of(p.data) for p in head.parameters()
            ),
        )
        self._dense_probes[micro_batch] = probe
        return probe

    def _block_probe(self, candidate: Candidate) -> _BlockProbe:
        """The memoized probe of ``candidate``'s block shape and group layout.

        The block runs on the stage-0, replica-0 ranks ``rank(0, 0, f, k)``,
        which do not depend on how the rest of the machine splits into
        DDP x PP — so neither does the key.  Nor does it hold the
        prefetch flag: the prefetch-on probe serves both twins, the
        other being :func:`_blocking_twin` of its streams.  That probe
        is itself :func:`_fsdp_twin` of the one block executed per
        ``(tp, micro_batch)`` at fsdp = 1; only a stream the twin does
        not cover executes the candidate's own block.
        """
        key = (
            candidate.tp_size, candidate.fsdp_size, candidate.tp_innermost,
            candidate.micro_batch,
        )
        twins = self._block_probes.get(key)
        if twins is None:
            prefetch_on = replace(candidate, prefetch=True)
            base_key = (candidate.tp_size, candidate.micro_batch)
            base = self._fsdp1_probes.get(base_key)
            if base is None:
                base = self._fsdp1_probes[base_key] = self._execute_probe(
                    replace(prefetch_on, fsdp_size=1, tp_innermost=True))
            prefetched = _fsdp_twin(
                base, self._probe_grid(candidate), self._cluster.cost_model,
                self._compute_model,
            )
            if prefetched is None:
                prefetched = self._execute_probe(prefetch_on)
            twins = self._block_probes[key] = (
                replace(prefetched,
                        forward=_blocking_twin(prefetched.forward),
                        backward=_blocking_twin(prefetched.backward)),
                prefetched,
            )
        return twins[candidate.prefetch]

    def _execute_probe(self, candidate: Candidate) -> _BlockProbe:
        """:meth:`_probe_block` on a fresh folded timeline."""
        return self._probe_block(
            candidate,
            FoldedTimeline(self.num_gpus, self._probe_grid(candidate)),
        )

    def _probe_grid(self, candidate: Candidate) -> RankClassPartition:
        """``candidate``'s (TP, FSDP) layout, the rest of the machine
        on the DDP axis: the grid every probe sharing its key runs on."""
        per_replica = candidate.tp_size * candidate.fsdp_size
        return RankClassPartition(
            candidate.tp_size, candidate.fsdp_size,
            self.num_gpus // per_replica, candidate.tp_innermost,
        )

    def _probe_block(self, candidate: Candidate, timeline: Timeline) -> _BlockProbe:
        """Run one real trunk block in meta mode on ``timeline`` and
        capture the representatives' events.

        A :class:`~repro.cluster.timeline.FoldedTimeline` executes shard
        0 of each ``f`` loop only; an exact ``Timeline(num_gpus)``
        executes them all and is the oracle — the narrowed captures are
        ``==`` on any layout, fold-eligible or not (module docstring).
        """
        from repro.core.hybrid_block import HybridSTOPBlock

        cfg = self.config
        grid = self._probe_grid(candidate)
        self._cluster.install_timeline(timeline)
        plan = HybridParallelPlan(
            self._cluster,
            tp_size=grid.tp_size,
            fsdp_size=grid.fsdp_size,
            ddp_size=grid.ddp_size,
            tp_innermost=grid.tp_innermost,
        )
        serial = TransformerBlock(
            cfg.embed_dim, cfg.num_heads, mlp_ratio=cfg.mlp_ratio,
            qk_layernorm=cfg.qk_layernorm, meta=True,
        )
        block = HybridSTOPBlock(
            serial, plan, ddp_index=0, prefetch=candidate.prefetch,
            compute_model=self._compute_model, name="probe",
        )
        block.set_track_gather_memory(False)
        reps = frozenset(grid.rank(0, 0, 0, k) for k in range(grid.tp_size))
        xs = fabricate_batch(
            (candidate.micro_batch, cfg.num_patches, cfg.embed_dim),
            fsdp_size=candidate.fsdp_size,
        )
        with timeline.capture(ranks=reps) as forward:
            ys = block.forward(xs)
        with timeline.capture(ranks=reps) as backward:
            block.backward([MetaArray(y.shape) for y in ys])
        params = block.sharded_parameters()
        shard_columns = tuple(
            (grid.coords(param.group.ranks[0])[2], param.shard_nbytes)
            for param in params
        )
        itemsizes = {param.dtype.itemsize for param in params}
        return _BlockProbe(
            EventStream(forward), EventStream(backward), shard_columns,
            itemsizes.pop() if len(itemsizes) == 1 else None,
        )

    # -- replay -----------------------------------------------------------------
    def _replay_timeline(self, candidate: Candidate, degradation) -> Timeline:
        """A fresh replay timeline — with the profile's compute/link
        factors, projected onto the replay ranks, as its injector."""
        timeline = Timeline(self.num_gpus)
        if degradation is None or (not degradation.compute
                                   and not degradation.links):
            return timeline

        def project(pairs) -> dict[int, float]:
            factors: dict[int, float] = {}
            for rank, factor in pairs:
                rep = _class_representative(candidate, rank)
                factors[rep] = max(factors.get(rep, 1.0), factor)
            return factors

        timeline.injector = _ProfileInjector(
            project(degradation.compute), project(degradation.links))
        return timeline

    def estimate(self, candidate: Candidate, degradation=None) -> Estimate:
        """Predicted step time and memory for one candidate.

        A per-stage replay mirroring the engine: each stage replays its
        own slice of blocks at its rank offset (stages are rank-offset
        copies of the probe grid), with the dense front on stage 0, the
        head on the last stage, and fused point-to-point boundary sends
        in between.  Per-rank ledgers are event-order independent, so
        the 1F1B makespan is reconstructed from the per-stage busy times
        via the closed-form ``(M + S - 1) * max(busy) / M`` — the same
        post-hoc accounting :class:`~repro.parallel.engine.HybridSTOPEngine`
        applies — and the remainder shows up as ``pipeline.stall``
        compute, followed by the epilogue reductions.  A 3D candidate is
        the one-stage case: no boundary, no bubble, and the front and
        head share the stage (:func:`~repro.parallel.stages.dense_by_stage`).

        ``degradation`` (a :class:`~repro.replan.DegradationProfile`)
        re-prices the candidate on a degraded machine: the captured
        event stream is replayed through a timeline whose injector
        applies the profile's per-rank compute and link slowdown
        factors, exactly as the fault injector would scale the live
        engine's events.  The probes themselves are
        degradation-independent (they record clean base costs), so one
        estimator serves any profile.
        """
        if candidate.world_size != self.num_gpus:
            raise ValueError(
                f"candidate world {candidate.world_size} != {self.num_gpus} GPUs"
            )
        peak = self.peak_memory_bytes(candidate)
        probe = self._block_probe(candidate)
        dense = self._dense_probe(candidate.micro_batch)
        grid = _grid(candidate)
        cfg = self.config
        S, M, K = candidate.pp_size, candidate.micro_batch, candidate.tp_size
        bounds = partition_blocks(cfg.depth, S)
        timeline = self._replay_timeline(candidate, degradation)
        cost_model = self._cluster.cost_model
        #: reps[s][k]: stage s's class representative of tp column k
        #: (column 0 additionally carries the stage's dense work).
        reps = [[grid.rank(s, 0, 0, k) for k in range(K)]
                for s in range(S)]

        def dense_compute(stage: int, flops: float, op: str) -> None:
            rank = reps[stage][0]
            timeline.record_compute(
                rank, self._compute_model.seconds_for(flops, rank), flops, op=op
            )

        # Per-f activation payload crossing a stage boundary (fp32 meta).
        token_nbytes = 4 * M * cfg.num_patches * cfg.embed_dim

        def boundary(src_stage: int, dst_stage: int, op: str) -> None:
            # The engine records one fused event per (d, f, k); only the
            # (0, 0, k) class ranks can be critical, so those suffice.
            per_micro = token_nbytes / M
            for src, dst in zip(reps[src_stage], reps[dst_stage]):
                seconds = M * cost_model.point_to_point(src, dst, per_micro)
                timeline.record_comm([src, dst], seconds, token_nbytes, op=op)

        # Forward: front on stage 0, each stage's block slice, boundary
        # sends, head on the last stage.
        for s in range(S):
            offset = grid.rank(s, 0, 0, 0)
            if s == 0:
                dense_compute(s, dense.front_fwd_flops, "dense.front")
            start, end = bounds[s]
            for _ in range(end - start):
                timeline.replay(probe.forward, offset)
            if s + 1 < S:
                boundary(s, s + 1, "pipeline.send")
            if s == S - 1:
                dense_compute(s, dense.head_fwd_flops, "dense.head")
        # Backward: mirror order, gradient sends toward stage 0;
        # checkpointing re-runs each block's forward — re-gathering and
        # re-paying compute — before its backward, exactly as the trunk
        # does.
        for s in reversed(range(S)):
            offset = grid.rank(s, 0, 0, 0)
            if s == S - 1:
                dense_compute(s, dense.head_bwd_flops, "dense.head")
            start, end = bounds[s]
            for _ in range(end - start):
                if candidate.recompute:
                    timeline.replay(probe.forward, offset)
                timeline.replay(probe.backward, offset)
            if s > 0:
                boundary(s, s - 1, "pipeline.grad_send")
            if s == 0:
                dense_compute(s, dense.front_bwd_flops, "dense.front")

        # 1F1B makespan: stages overlap across micro-batches, so the
        # drained walltime is (M + S - 1) / M of the slowest stage; the
        # surplus over each stage's own busy time is its bubble stall.
        busy = [max(timeline.ledger(r).walltime_s for r in stage)
                for stage in reps]
        total = schedule_walltime(busy, M)
        if S > 1:  # a one-stage schedule has no bubble
            for stage, stage_busy in zip(reps, busy):
                for rank in stage:
                    timeline.record_compute(rank, total - stage_busy, 0.0,
                                            op="pipeline.stall")

        # Epilogue: each stage that holds dense parameters syncs them
        # over its replica.
        for stage, nbytes in dense_by_stage(
            S, sum(dense.front_param_nbytes), sum(dense.head_param_nbytes)
        ):
            replica_ranks = [
                grid.rank(stage, 0, f, k)
                for f in range(candidate.fsdp_size) for k in range(K)
            ]
            if len(replica_ranks) > 1:
                seconds = cost_model.all_reduce(replica_ranks, nbytes)
                timeline.record_comm(reps[stage], seconds, nbytes,
                                     op="dense_grad_sync")
        if candidate.ddp_size > 1:
            # A block's shard sizes repeat across its columns and
            # parameters: each distinct (group, bytes) pair is priced once.
            prices: dict = {}

            def all_reduce(group: list, nbytes) -> float:
                key = (tuple(group), nbytes)
                seconds = prices.get(key)
                if seconds is None:
                    seconds = prices[key] = cost_model.all_reduce(group, nbytes)
                return seconds

            # Each representative joins the shard-0 reduction group of
            # every sharded parameter on its column, once per block; the
            # reductions are non-overlappable, so recording depth-scaled
            # seconds once per parameter leaves the ledger identical to
            # one event per block.
            for s in range(S):
                start, end = bounds[s]
                stage_depth = end - start
                groups = [
                    [grid.rank(s, d, 0, column)
                     for d in range(candidate.ddp_size)]
                    for column in range(K)
                ]
                for column, shard_nbytes in probe.shard_columns:
                    seconds = all_reduce(groups[column], shard_nbytes)
                    timeline.record_comm(
                        [reps[s][column]],
                        seconds * stage_depth,
                        shard_nbytes * stage_depth,
                        op="all_reduce",
                    )
            for stage, nbytes_list in dense_by_stage(
                S, dense.front_param_nbytes, dense.head_param_nbytes
            ):
                lead_group = [
                    grid.rank(stage, d, 0, 0)
                    for d in range(candidate.ddp_size)
                ]
                for param_nbytes in nbytes_list:
                    seconds = all_reduce(lead_group, param_nbytes)
                    timeline.record_comm([lead_group[0]], seconds,
                                         param_nbytes, op="all_reduce")

        critical = max(
            (timeline.ledger(r) for stage in reps for r in stage),
            key=lambda l: l.walltime_s,
        )
        return Estimate(
            candidate=candidate,
            step_time_s=critical.walltime_s,
            compute_s=critical.compute_s,
            comm_s=critical.comm_s,
            exposed_comm_s=critical.exposed_comm_s,
            peak_memory_bytes=peak,
            fits=peak <= self.memory_model.gpu_memory_bytes,
            bubble_s=total - max(busy),
            bubble_fraction=bubble_fraction(S, M),
        )
