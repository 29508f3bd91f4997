"""The full Hybrid-STOP training engine for the ORBIT model.

Composes the three orthogonal axes of paper Fig 4 around a
:class:`~repro.models.climax_vit.ClimaXViT`:

* the transformer trunk (nearly all parameters) runs as a
  :class:`~repro.core.hybrid_block.HybridSTOPTrunk` — tensor-parallel
  column/row shards, FSDP flat shards, per-layer gather/free;
* the dense front (patch/variable/positional/lead-time embeddings and
  the cross-variable aggregator) and the prediction head are small and
  replicated on every rank of a replica; each FSDP index gets its own
  activation caches via structure clones that *share* the replica's
  parameters, so micro-batch gradients accumulate naturally.  The
  clones exist only while FSDP is not folded (a folded step visits
  ``f = 0`` alone); :meth:`HybridSTOPEngine.materialize_replicas`
  makes them when a folded run unfolds;
* DDP replicas are deep copies trained on different data subsets whose
  gradients are summed once per step (:meth:`allreduce_gradients`);
* the trunk is partitioned contiguously into ``plan.pp_size`` pipeline
  stages (stage-outermost ranks): each stage is a
  :class:`~repro.core.hybrid_block.HybridSTOPTrunk` over its own 3D
  sub-plan, activations/gradients cross stage boundaries as
  cost-accounted point-to-point sends, and a 1F1B micro-batch schedule
  is accounted by recording each stage's bubble stall
  (``(M+S-1) * slot - busy``) after the pipeline drains.  Numerics are
  exact at any depth — micro-batches traverse the same blocks in the
  same order as the serial model.

The paper's 3D layout is the one-stage pipeline, run by the same code:
``plan.stage_plan(0)`` is the plan itself, the stage list holds one
trunk and no boundary exists to send across.  Two facts set one stage
apart.  The dense front and head share it, so what each holds there is
one allocation, one gradient sync and one DDP reduction list
(:func:`~repro.parallel.stages.dense_by_stage`); and a one-stage
schedule has no bubble, so no stage clock is read and no
``pipeline.stall`` recorded.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.cluster.cluster import GroupAllocation
from repro.cluster.collectives import all_reduce
from repro.core.base import compute_on_rank
from repro.core.sharding import register_shards
from repro.meta import is_meta, nbytes_of
from repro.models.climax_vit import ClimaXViT
from repro.nn.module import Module
from repro.nn.ops import kernel
from repro.parallel.core_trunk import make_stage_templates
from repro.parallel.plan import HybridParallelPlan
from repro.parallel.stages import (
    dense_by_stage,
    partition_blocks,
    record_boundary_send,
    schedule_walltime,
)


def clone_module(module: Module) -> Module:
    """Deep-copy a module, including its parameters (a fresh replica)."""
    return copy.deepcopy(module)


def clone_module_shared_params(module: Module) -> Module:
    """Deep-copy the module *structure* while sharing Parameter objects.

    Clones share weights and accumulate gradients into the same slots —
    used to give each micro-batch its own activation caches without
    duplicating parameters.
    """
    memo = {id(p): p for p in module.parameters()}
    return copy.deepcopy(module, memo)


class _DenseFront(Module):
    """Embedding pipeline ahead of the trunk (replicated per rank)."""

    def __init__(self, model: ClimaXViT):
        super().__init__()
        self.patch_embed = model.patch_embed
        self.var_embed = model.var_embed
        self.aggregate = model.aggregate
        self.pos_embed = model.pos_embed
        self.lead_embed = model.lead_embed

    def forward(self, x, lead_time_hours):
        tokens = self.patch_embed(x)
        tokens = self.var_embed(tokens)
        tokens = self.aggregate(tokens)
        tokens = self.pos_embed(tokens)
        self._cache = True
        return self.lead_embed(tokens, lead_time_hours)

    def backward(self, grad_tokens):
        self._require_cache()
        self._cache = None
        grad = self.lead_embed.backward(grad_tokens)
        grad = self.pos_embed.backward(grad)
        grad = self.aggregate.backward(grad)
        grad = self.var_embed.backward(grad)
        return self.patch_embed.backward(grad)


class _DenseHead(Module):
    """Prediction head (replicated per rank)."""

    def __init__(self, model: ClimaXViT):
        super().__init__()
        self.head = model.head

    def forward(self, tokens):
        self._cache = True
        return self.head(tokens)

    def backward(self, grad_pred):
        self._require_cache()
        self._cache = None
        return self.head.backward(grad_pred)


class HybridSTOPEngine:
    """Train a ClimaX/ORBIT model with Hybrid-STOP hierarchical parallelism.

    Parameters
    ----------
    model:
        Serial model whose weights the engine shards.
    plan:
        Group layout; ``plan.cluster`` supplies devices and timeline.
    prefetch / layer_wrapping:
        The Sec III-B communication optimizations.
    recompute:
        Activation checkpointing (Table I "+ckpt"): the backward pass
        re-runs each trunk block's forward from its saved input,
        re-gathering shards and re-paying the compute.
    compute_model:
        Optional FLOPs-to-seconds model for walltime accounting.
    """

    def __init__(
        self,
        model: ClimaXViT,
        plan: HybridParallelPlan,
        prefetch: bool = False,
        layer_wrapping: bool = True,
        recompute: bool = False,
        compute_model=None,
    ):
        self.plan = plan
        self.compute_model = compute_model
        self.prefetch = prefetch
        self.layer_wrapping = layer_wrapping
        self.recompute = recompute
        self.tracer = plan.cluster.tracer
        self.config = model.config
        D = plan.ddp_size
        #: Contiguous block bounds per pipeline stage (raises
        #: PipelineLimitError past one stage per layer).
        self._stage_bounds = partition_blocks(len(model.blocks), plan.pp_size)
        self._stall_t0: dict[int, float] = {}
        self._num_micro = 1

        self.fronts: list[list[_DenseFront]] = []
        self.heads: list[list[_DenseHead]] = []
        self.trunks = []
        self._dense_allocs = []
        #: Kept to materialize skipped replicas if a folded run must
        #: drop to exact mode (see :meth:`materialize_replicas`).
        self._model_template = model
        replicas = 1 if plan.cluster.timeline.folds_axis("ddp") else D
        for d in range(replicas):
            self._build_replica(d, model if d == 0 else clone_module(model))

    def _build_replica(self, d: int, replica_model: ClimaXViT) -> None:
        plan = self.plan
        self.fronts.append([_DenseFront(replica_model)])
        self.heads.append([_DenseHead(replica_model)])
        if not plan.cluster.timeline.folds_axis("fsdp"):
            self._clone_per_fsdp_index((self.fronts[d], self.heads[d]))
        from repro.core.hybrid_block import HybridSTOPTrunk

        trunk_kwargs = dict(
            ddp_index=d,
            prefetch=self.prefetch,
            layer_wrapping=self.layer_wrapping,
            recompute=self.recompute,
            compute_model=self.compute_model,
            name=f"trunk{d}",
        )
        templates = make_stage_templates(replica_model, self._stage_bounds)
        self.trunks.append(_PipelinedTrunk([
            HybridSTOPTrunk(
                template, plan.stage_plan(s),
                block_offset=self._stage_bounds[s][0], **trunk_kwargs,
            )
            for s, template in enumerate(templates)
        ]))
        # Dense parameters are fully replicated on every rank of the
        # replica's stage that holds them.
        for stage, nbytes in dense_by_stage(
            plan.pp_size, self.fronts[d][0].parameter_bytes(),
            self.heads[d][0].parameter_bytes()
        ):
            self._dense_allocs.append(GroupAllocation(
                plan.cluster, self._stage_ranks(stage, d), nbytes, "params.dense"
            ))

    def materialize_replicas(self) -> None:
        """Build the modules a folded construction skipped.

        Called when a folded run drops to exact mode (fault window): the
        next step visits every ``d`` and ``f``, so each built replica
        gets its F - 1 front and head structure clones, then the unbuilt
        DDP replicas are built.  The memory registrations of the built
        ones — narrowed to the class representatives while folded — are
        back-filled onto every member device, so the trackers end up as
        a never-folded run leaves them.  Construction is pure
        bookkeeping — it records no timeline events.
        """
        for alloc in self._dense_allocs:
            alloc.fill()
        for trunk in self.trunks:
            register_shards(trunk.sharded_parameters())
        self._clone_per_fsdp_index(self.fronts + self.heads)
        for d in range(len(self.trunks), self.plan.ddp_size):
            self._build_replica(d, clone_module(self._model_template))

    def _clone_per_fsdp_index(self, rows) -> None:
        """Grow each row to one structure clone of its module per ``f``."""
        for row in rows:
            row.extend(clone_module_shared_params(row[0])
                       for _ in range(self.plan.fsdp_size - len(row)))

    # -- accounting helpers -------------------------------------------------------
    def _ranked(self, d: int, f: int, op: str = "dense", plan=None):
        plan = self.plan if plan is None else plan
        return compute_on_rank(self.plan.cluster, self.compute_model,
                               plan.rank(d, f, 0), op)

    def _record_dense_grad_sync(self, d: int) -> None:
        """Cost of reducing replicated dense grads across the replica:
        one all-reduce per stage that holds dense parameters."""
        cluster = self.plan.cluster
        for stage, dense_bytes in dense_by_stage(
            self.plan.pp_size,
            self.fronts[d][0].parameter_bytes(),
            self.heads[d][0].parameter_bytes(),
        ):
            replica_ranks = self._stage_ranks(stage, d)
            if len(replica_ranks) > 1:
                seconds = cluster.cost_model.all_reduce(replica_ranks, dense_bytes)
                cluster.timeline.record_comm(
                    replica_ranks, seconds, dense_bytes, op="dense_grad_sync"
                )

    # -- execution -----------------------------------------------------------------
    def forward(self, xs: list, lead_times: list) -> list:
        """``xs[d][f]`` is replica d / FSDP index f's micro-batch.

        Returns predictions with the same nesting.
        """
        plan = self.plan
        D, F, S = plan.ddp_size, plan.fsdp_size, plan.pp_size
        if len(xs) != D or any(len(batch) != F for batch in xs):
            raise ValueError(f"expected xs nested as [{D}][{F}]")
        timeline = plan.cluster.timeline
        last = plan.stage_plan(S - 1)
        self._num_micro = max(1, int(xs[0][0].shape[0]))
        if S > 1:  # a one-stage schedule has no bubble to measure
            self._snapshot_stage_clocks()
        ys = []
        with self.tracer.scope("engine.forward"):
            for d in timeline.fold_iter("ddp", range(D)):
                tokens = []
                for f in timeline.fold_iter("fsdp", range(F)):
                    with self._ranked(d, f, op="dense.front"):
                        tokens.append(self.fronts[d][f](xs[d][f], lead_times[d][f]))
                tokens = timeline.fold_pad("fsdp", tokens, F)
                for s, trunk in enumerate(self.trunks[d].stage_trunks):
                    tokens = trunk.forward(tokens)
                    if s + 1 < S:
                        self._record_boundary_sends(d, s, tokens, backward=False)
                preds = []
                for f in timeline.fold_iter("fsdp", range(F)):
                    with self._ranked(d, f, op="dense.head", plan=last):
                        preds.append(self.heads[d][f](tokens[f]))
                ys.append(timeline.fold_pad("fsdp", preds, F))
        return timeline.fold_pad("ddp", ys, D)

    def backward(self, grad_ys: list) -> list:
        """Backprop; returns per-micro-batch input gradients."""
        plan = self.plan
        D, F, S = plan.ddp_size, plan.fsdp_size, plan.pp_size
        timeline = plan.cluster.timeline
        last = plan.stage_plan(S - 1)
        grad_xs = []
        with self.tracer.scope("engine.backward"):
            for d in timeline.fold_iter("ddp", range(D)):
                grads = []
                for f in timeline.fold_iter("fsdp", range(F)):
                    with self._ranked(d, f, op="dense.head", plan=last):
                        grads.append(self.heads[d][f].backward(grad_ys[d][f]))
                grads = timeline.fold_pad("fsdp", grads, F)
                for s in reversed(range(S)):
                    grads = self.trunks[d].stage_trunks[s].backward(grads)
                    if s > 0:
                        self._record_boundary_sends(d, s, grads, backward=True)
                replica_grad_xs = []
                for f in timeline.fold_iter("fsdp", range(F)):
                    with self._ranked(d, f, op="dense.front"):
                        replica_grad_xs.append(self.fronts[d][f].backward(grads[f]))
                grad_xs.append(timeline.fold_pad("fsdp", replica_grad_xs, F))
                if S > 1:  # one stage: no bubble to pad
                    self._record_pipeline_stall(d)
                self._record_dense_grad_sync(d)
        return timeline.fold_pad("ddp", grad_xs, D)

    # -- pipeline stages ----------------------------------------------------------
    @property
    def step_stream_is_invariant(self) -> bool:
        """Whether every meta step asks the timeline to record the same
        stream (:meth:`repro.runtime.session.Session.meta_step` then
        replays one).  Not a pipeline: :meth:`_record_pipeline_stall`
        reads its seconds back from the ledgers, which carry the run's
        history and whatever a fault injector stretched.
        """
        return self.plan.pp_size == 1

    def _stage_ranks(self, stage: int, d: int) -> list[int]:
        sp = self.plan.stage_plan(stage)
        return [
            sp.rank(d, f, k)
            for f in range(self.plan.fsdp_size)
            for k in range(self.plan.tp_size)
        ]

    def _snapshot_stage_clocks(self) -> None:
        """Remember every stage rank's busy clock at step start.

        The per-stage busy time of this step (read back in
        :meth:`_record_pipeline_stall`) is the delta against this
        snapshot; on a folded timeline ``ledger`` resolves to class
        ledgers, which carry the identical floats.
        """
        timeline = self.plan.cluster.timeline
        self._stall_t0 = {}
        for s in range(self.plan.pp_size):
            for d in range(self.plan.ddp_size):
                for rank in self._stage_ranks(s, d):
                    self._stall_t0[rank] = timeline.ledger(rank).walltime_s

    def _record_boundary_sends(self, d: int, stage: int, payloads: list,
                               backward: bool) -> None:
        """Point-to-point activation (or gradient) sends at one boundary.

        Each rank ``(stage, d, f, k)`` exchanges with its same-coordinate
        peer in the adjacent stage: M micro-batch messages carrying one
        step's worth of boundary activations for FSDP index ``f``.
        """
        plan = self.plan
        timeline = plan.cluster.timeline
        src_plan = plan.stage_plan(stage)
        dst_plan = plan.stage_plan(stage - 1 if backward else stage + 1)
        op = "pipeline.grad_send" if backward else "pipeline.send"
        for f in timeline.fold_iter("fsdp", range(plan.fsdp_size)):
            payload_nbytes = nbytes_of(payloads[f])
            for k in range(plan.tp_size):
                record_boundary_send(
                    plan.cluster,
                    src_plan.rank(d, f, k),
                    dst_plan.rank(d, f, k),
                    payload_nbytes,
                    num_micro_batches=self._num_micro,
                    op=op,
                )

    def _record_pipeline_stall(self, d: int) -> None:
        """Account replica ``d``'s 1F1B schedule bubble.

        The ledgers are event-order independent per rank, so the engine
        runs each stage's work fused and reconstructs the schedule
        afterwards: with per-stage busy times ``b_s`` (this step's
        compute + exposed comm on the stage's busiest rank), the 1F1B
        makespan is ``(M + S - 1) * max_s(b_s) / M``, and each stage
        idles for the difference — recorded as a ``pipeline.stall``
        event on every stage rank so simulated walltime equals the
        schedule makespan.
        """
        plan = self.plan
        timeline = plan.cluster.timeline
        S, F, K = plan.pp_size, plan.fsdp_size, plan.tp_size
        busy = [
            max(
                timeline.ledger(rank).walltime_s - self._stall_t0[rank]
                for rank in self._stage_ranks(s, d)
            )
            for s in range(S)
        ]
        total = schedule_walltime(busy, self._num_micro)
        for f in timeline.fold_iter("fsdp", range(F)):
            for k in range(K):
                for s in range(S):
                    timeline.record_compute(
                        plan.stage_plan(s).rank(d, f, k),
                        total - busy[s], 0.0, op="pipeline.stall",
                    )

    # -- gradient synchronization ----------------------------------------------------
    def allreduce_gradients(self) -> None:
        """DDP reduction: sum gradients across replicas (trunk shards + dense).

        Written with the primitives :meth:`forward` and :meth:`backward`
        use, so the exact reduction is the unfolded fold.  A folded run
        builds replica 0 only; every replica records the same stream, so
        ``fold_pad`` stands its gradient in for the ``D`` members of the
        DDP group and the result goes back to the replicas that exist.
        The shard loop folds on the FSDP axis: each rank takes part in
        exactly the ``j == f`` reduction, which is what one folded event
        per parameter replays to.
        """
        D = self.plan.ddp_size
        if D == 1:
            return
        timeline = self.plan.cluster.timeline
        with self.tracer.scope("engine.grad_sync"):
            # Trunk: reduce shard-by-shard over the matching device positions.
            per_replica = [trunk.sharded_parameters() for trunk in self.trunks]
            for params in zip(*per_replica):
                first = params[0]
                for j in timeline.fold_iter("fsdp", range(first.num_shards)):
                    group = self._ddp_group_of(first.group.ranks[j])
                    grads = [p.grad_shards[j] for p in params]
                    reduced = all_reduce(
                        group, timeline.fold_pad("ddp", grads, D), op="sum")
                    for p, grad in zip(params, reduced):
                        p.grad_shards[j] = grad if is_meta(grad) else kernel(
                            np.array, grad, copy=True)
            # Dense modules: reduce each parameter across the replica
            # leads of the stage that holds it.
            for stage, rows in self._dense_reduction_sets():
                lead_group = self.plan.stage_plan(stage).ddp_group(0, 0)
                for name, params in rows:
                    grads = [p.grad for p in params]
                    if any(g is None for g in grads):
                        raise RuntimeError(f"dense parameter {name} missing a replica gradient")
                    reduced = all_reduce(
                        lead_group, timeline.fold_pad("ddp", grads, D), op="sum")
                    for p, grad in zip(params, reduced):
                        p.grad = grad if is_meta(grad) else kernel(np.array, grad, copy=True)

    def _ddp_group_of(self, rank: int):
        """The plan's (cached) DDP group through ``rank``: its replica-0
        member plus the same grid position of every other replica."""
        stage, _, fsdp, tp = self.plan.stage_coords(rank)
        return self.plan.stage_plan(stage).ddp_group(fsdp, tp)

    def _dense_reduction_sets(self) -> list[tuple[int, list]]:
        """``(stage, rows)`` per dense reduction group; a row is one
        parameter's name (the head's ``head.``-prefixed) and its holder
        in every replica built so far."""
        def rows(modules: list, prefix: str = "") -> list:
            named = zip(*(replica[0].named_parameters(prefix) for replica in modules))
            return [(holders[0][0], [p for _, p in holders]) for holders in named]

        return dense_by_stage(
            self.plan.pp_size, rows(self.fronts), rows(self.heads, "head."))

    # -- checkpoint interoperability ---------------------------------------------
    def gathered_state_dict(self, replica: int = 0) -> dict:
        """The serial model's state dict, reassembled from the shards.

        The keys match :meth:`ClimaXViT.state_dict`, so a serial model
        loaded from this dict carries a distributed run's weights
        anywhere (:meth:`Session.serving_model
        <repro.runtime.session.Session.serving_model>` builds one for the
        serve layer).
        """
        state: dict = {}
        state.update({n: p.data for n, p in self.fronts[replica][0].named_parameters()})
        state.update({n: p.data for n, p in self.heads[replica][0].named_parameters()})
        trunk = self.trunks[replica]
        for index, block in enumerate(trunk.blocks):
            prefix = f"block{index}"
            state[f"{prefix}.ln1.gamma"] = block.ln1.gamma.full()
            state[f"{prefix}.ln1.beta"] = block.ln1.beta.full()
            state[f"{prefix}.ln2.gamma"] = block.ln2.gamma.full()
            state[f"{prefix}.ln2.beta"] = block.ln2.beta.full()
            for name, value in block.attn.gathered_state().items():
                state[f"{prefix}.attn.{name}"] = value
            for name, value in block.mlp.gathered_state().items():
                state[f"{prefix}.mlp.{name}"] = value
        return state

    # -- parameter access ----------------------------------------------------------
    def dense_parameters(self, replica: int = 0) -> list:
        """Dense (replicated) Parameters of one replica."""
        return self.fronts[replica][0].parameters() + self.heads[replica][0].parameters()

    def sharded_parameters(self, replica: int = 0) -> list:
        """Trunk ShardedParameters of one replica."""
        return self.trunks[replica].sharded_parameters()

    def zero_grad(self) -> None:
        for d in range(len(self.trunks)):
            self.fronts[d][0].zero_grad()
            self.heads[d][0].zero_grad()
            self.trunks[d].zero_grad()


class _PipelinedTrunk:
    """One DDP replica's trunk: the list of its pipeline-stage sub-trunks.

    Presents the surface of a single
    :class:`~repro.core.hybrid_block.HybridSTOPTrunk` — ``blocks``,
    ``sharded_parameters`` and ``gathered_grads`` concatenate the
    stages in order, so gathered state dicts, checkpoint shard keys and
    gradient names do not depend on where the stages are cut (per-stage
    shards are contiguous key ranges).
    """

    def __init__(self, stage_trunks: list):
        self.stage_trunks = stage_trunks

    @property
    def blocks(self) -> list:
        return [b for trunk in self.stage_trunks for b in trunk.blocks]

    def sharded_parameters(self) -> list:
        return [p for trunk in self.stage_trunks for p in trunk.sharded_parameters()]

    def zero_grad(self) -> None:
        for trunk in self.stage_trunks:
            trunk.zero_grad()

    def gathered_grads(self) -> dict:
        grads: dict = {}
        for trunk in self.stage_trunks:
            grads.update(trunk.gathered_grads())
        return grads
