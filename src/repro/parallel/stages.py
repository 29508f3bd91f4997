"""Pipeline-stage machinery shared by the 4D engine and the GPipe demo.

Paper Sec II positions Hybrid-STOP against pipeline parallelism, whose
scalability "is limited by the number of model layers": a model can be
cut into at most one stage per transformer block, and the schedule
bubble wastes ``(S-1)/(M+S-1)`` of the machine for S stages and M
micro-batches.  This module holds the arithmetic both consumers share:

* :func:`partition_blocks` — the contiguous stage partition (remainder
  spread over the first stages) with the layer-count limit enforced as
  :class:`PipelineLimitError`;
* :func:`bubble_fraction` / :func:`schedule_walltime` — the 1F1B
  schedule model: S stages drain M micro-batches in ``(M + S - 1)``
  slots of the slowest stage's per-micro-batch busy time;
* :func:`dense_by_stage` — where the dense front and head live, and
  that on one stage they are one;
* :func:`record_boundary_send` — a cost-accounted point-to-point
  activation/gradient transfer at a stage boundary (M latency hits,
  one payload's worth of bytes);
* :class:`PipelineParallelTrunk` — the standalone GPipe-style engine,
  rebuilt on the helpers above (the 4D :class:`~repro.parallel.engine.
  HybridSTOPEngine` composes the same helpers with sharded stages).
"""

from __future__ import annotations

from repro.cluster.cluster import VirtualCluster
from repro.meta import nbytes_of
from repro.nn.context import ExecutionContext, execution_context
from repro.nn.transformer import TransformerStack


class PipelineLimitError(ValueError):
    """Raised when more stages are requested than there are layers."""


def partition_blocks(num_blocks: int, num_stages: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, end)`` block bounds per stage.

    The remainder is spread over the first stages, so stage sizes are
    ``ceil`` then ``floor`` of ``num_blocks / num_stages``.  Raises
    :class:`PipelineLimitError` beyond one stage per block — the
    layer-count limitation the paper cites against pipelining.
    """
    if num_stages < 1:
        raise ValueError("num_stages must be positive")
    if num_stages > num_blocks:
        raise PipelineLimitError(
            f"pipeline parallelism is limited by the number of layers: "
            f"requested {num_stages} stages for {num_blocks} blocks"
        )
    base, extra = divmod(num_blocks, num_stages)
    bounds = []
    index = 0
    for stage in range(num_stages):
        count = base + (1 if stage < extra else 0)
        bounds.append((index, index + count))
        index += count
    return bounds


def bubble_fraction(num_stages: int, num_micro_batches: int) -> float:
    """Idle fraction of the pipeline schedule: ``(S-1) / (M+S-1)``."""
    if num_micro_batches < 1:
        raise ValueError("num_micro_batches must be positive")
    return (num_stages - 1) / (num_micro_batches + num_stages - 1)


def schedule_walltime(
    stage_busy_s: list[float], num_micro_batches: int
) -> float:
    """1F1B makespan from per-stage busy times.

    ``stage_busy_s[s]`` is stage ``s``'s total (forward + backward)
    busy seconds over all M micro-batches; the schedule finishes in
    ``(M + S - 1)`` slots of the slowest stage's per-micro-batch time.
    One stage finishes in exactly its busy time.
    """
    if num_micro_batches < 1:
        raise ValueError("num_micro_batches must be positive")
    num_stages = len(stage_busy_s)
    slowest = max(stage_busy_s)
    if num_stages == 1:
        # No schedule, no bubble — and no rounding: M * (b / M) != b
        # for about one (b, M) in sixteen.
        return slowest
    return (num_micro_batches + num_stages - 1) * (slowest / num_micro_batches)


def dense_by_stage(num_stages: int, front, head) -> list[tuple]:
    """``(stage, value)`` of something the dense front and head each hold.

    The embedding front lives on stage 0 and the prediction head on the
    last stage.  One stage holds both, and there the two values are one
    — ``front + head``: parameter bytes become one allocation and one
    gradient all-reduce of the sum (one alpha term, one collective id,
    one span), reduction lists concatenate front first.
    """
    if num_stages == 1:
        return [(0, front + head)]
    return [(0, front), (num_stages - 1, head)]


def record_boundary_send(
    cluster: VirtualCluster,
    src: int,
    dst: int,
    payload_nbytes: float,
    num_micro_batches: int = 1,
    op: str = "pipeline.send",
) -> None:
    """Account one stage-boundary transfer of a full step's payload.

    The payload crosses the boundary as M micro-batch messages, so the
    cost is M point-to-point latencies plus the full payload over the
    link bandwidth — recorded as a single non-overlappable event on
    both endpoint ledgers (per-rank accounting is event-order
    independent, so the fused event is cost-exact for the schedule).
    """
    per_micro = payload_nbytes / num_micro_batches
    seconds = num_micro_batches * cluster.cost_model.point_to_point(
        src, dst, per_micro
    )
    cluster.timeline.record_comm([src, dst], seconds, payload_nbytes, op=op)


class PipelineParallelTrunk:
    """A transformer stack partitioned into pipeline stages (GPipe demo).

    The standalone, unsharded pipeline engine: one whole stage per
    rank, activations recomputed in backward, stage boundaries as
    point-to-point sends.  Kept as the minimal executable form of the
    paper's cited limitation; the production path is the ``pp_size``
    axis of :class:`~repro.parallel.engine.HybridSTOPEngine`, which
    composes the same stage machinery with TP/FSDP/DDP sharding.

    Parameters
    ----------
    serial:
        The stack to partition; its blocks are used in place.
    cluster:
        Stage ``s`` lives on rank ``s``.
    num_stages:
        Pipeline depth; at most ``len(serial.blocks)`` (the paper's
        layer-count limitation).
    """

    def __init__(
        self,
        serial: TransformerStack,
        cluster: VirtualCluster,
        num_stages: int,
        compute_model=None,
    ):
        num_blocks = len(serial.blocks)
        bounds = partition_blocks(num_blocks, num_stages)
        if num_stages > cluster.world_size:
            raise ValueError(
                f"{num_stages} stages need {num_stages} ranks; cluster has "
                f"{cluster.world_size}"
            )
        self.cluster = cluster
        self.compute_model = compute_model
        self.num_stages = num_stages
        self.stages: list[list] = []
        self._allocations = []
        for stage, (start, end) in enumerate(bounds):
            blocks = serial.blocks[start:end]
            self.stages.append(blocks)
            device = cluster.device(stage)
            stage_bytes = sum(
                p.nbytes for block in blocks for p in block.parameters()
            )
            self._allocations.append(
                device.memory.allocate(stage_bytes, tag=f"params.stage{stage}")
            )
        self._cache: list | None = None

    # -- accounting ------------------------------------------------------------
    def _record_compute(self, stage: int, ctx: ExecutionContext) -> None:
        if self.compute_model is not None:
            seconds = self.compute_model.seconds_for(ctx.flops, stage)
            self.cluster.timeline.record_compute(stage, seconds, ctx.flops)
        self._stage_flops[stage] += ctx.flops

    def _send(self, src: int, dst: int, payload) -> None:
        record_boundary_send(self.cluster, src, dst, nbytes_of(payload))

    # -- execution -----------------------------------------------------------------
    def forward(self, micro_batches: list) -> list:
        """Run M micro-batches through the pipeline; returns M outputs."""
        if not micro_batches:
            raise ValueError("need at least one micro-batch")
        self._stage_flops = [0.0] * self.num_stages
        outputs = []
        for x in micro_batches:
            for stage, blocks in enumerate(self.stages):
                ctx = ExecutionContext()
                with execution_context(ctx):
                    for block in blocks:
                        x = block(x)
                        # The schedule recomputes stage activations in
                        # backward; keep only the stage boundary here.
                self._record_compute(stage, ctx)
                if stage + 1 < self.num_stages:
                    self._send(stage, stage + 1, x)
            outputs.append(x)
        self._cache = list(micro_batches)
        # Each block's internal cache currently holds only the LAST
        # micro-batch; backward re-runs forward per micro-batch.
        return outputs

    def backward(self, grad_outputs: list) -> list:
        """Backward through the pipeline; returns input gradients."""
        if self._cache is None:
            raise RuntimeError("PipelineParallelTrunk.backward without a forward")
        micro_batches = self._cache
        self._cache = None
        if len(grad_outputs) != len(micro_batches):
            raise ValueError(
                f"{len(grad_outputs)} gradients for {len(micro_batches)} micro-batches"
            )
        grad_inputs = []
        for x, grad in zip(micro_batches, grad_outputs):
            # Recompute stage boundary activations for this micro-batch.
            boundaries = [x]
            for blocks in self.stages[:-1]:
                h = boundaries[-1]
                for block in blocks:
                    h = block(h)
                    block.clear_cache()
                boundaries.append(h)
            for stage in reversed(range(self.num_stages)):
                ctx = ExecutionContext()
                with execution_context(ctx):
                    h = boundaries[stage]
                    for block in self.stages[stage]:
                        h = block(h)  # rebuild caches for this stage
                    for block in reversed(self.stages[stage]):
                        grad = block.backward(grad)
                self._record_compute(stage, ctx)
                if stage > 0:
                    self._send(stage, stage - 1, grad)
            grad_inputs.append(grad)
        return grad_inputs

    # -- schedule model ------------------------------------------------------------
    def bubble_fraction(self, num_micro_batches: int) -> float:
        """Idle fraction of the schedule: ``(S-1) / (M+S-1)``."""
        return bubble_fraction(self.num_stages, num_micro_batches)

    def schedule_walltime(self, num_micro_batches: int) -> float:
        """Pipelined walltime from the recorded per-stage compute times.

        The timeline records each stage's *total* busy time; a balanced
        schedule finishes in ``(M + S - 1) * t_slot`` where ``t_slot``
        is the slowest stage's per-micro-batch time.
        """
        if self.compute_model is None:
            raise RuntimeError("schedule_walltime needs a compute_model")
        per_stage = [
            self.cluster.timeline.ledger(stage).compute_s
            for stage in range(self.num_stages)
        ]
        return schedule_walltime(per_stage, max(1, num_micro_batches))

    # -- parameters -----------------------------------------------------------------
    def stage_parameters(self, stage: int) -> list:
        """Parameters resident on one stage's device."""
        return [p for block in self.stages[stage] for p in block.parameters()]

    def parameters(self) -> list:
        return [p for stage in range(self.num_stages) for p in self.stage_parameters(stage)]

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()
