"""Pipeline-stage machinery of the 4D engine's ``pp_size`` axis.

Paper Sec II positions Hybrid-STOP against pipeline parallelism, whose
scalability "is limited by the number of model layers": a model can be
cut into at most one stage per transformer block, and the schedule
bubble wastes ``(S-1)/(M+S-1)`` of the machine for S stages and M
micro-batches.  The GPipe baseline is the engine's
``pp=S, tp=fsdp=ddp=1`` grid point; this module holds its arithmetic:

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
  one payload's worth of bytes).
"""

from __future__ import annotations

from repro.cluster.cluster import VirtualCluster


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

