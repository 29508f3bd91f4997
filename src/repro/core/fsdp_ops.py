"""Gather/scatter building blocks shared by the sharded engines.

These wrap the raw collectives with the bookkeeping every sharded
parameter operation needs: transient memory registration on the
participating devices, shape restoration after flat gathers, and
flatten-pad-reduce-scatter for gradients.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.cluster import GroupAllocation
from repro.cluster.collectives import (
    all_gather,
    all_reduce,
    distinct_buffers,
    reduce_scatter,
)
from repro.cluster.process_group import ProcessGroup
from repro.core.sharding import ShardedParameter, flat_pad, flat_unshard
from repro.meta import nbytes_of


class GatheredParam:
    """A transiently materialized full parameter.

    Holds the reassembled array plus the per-device allocation backing
    it; call :meth:`release` (or use as a context manager) when the
    layer is done with it (layer wrapping frees after every layer).
    Releases are marked on the owning cluster's tracer so a trace shows
    the gathered-shard lifetime, not just the gather.
    """

    def __init__(self, data, allocation=None, *, timeline=None,
                 ranks=(), name="param", nbytes=0.0):
        self.data = data
        self._allocation = allocation
        self._timeline = timeline
        self._ranks = tuple(ranks)
        self._name = name
        self._nbytes = nbytes
        self.released = False

    def release(self) -> None:
        if self.released:
            return
        if self._allocation is not None:
            self._allocation.release()
        self.released = True
        if self._timeline is not None:
            # Routed through the timeline so a folded run logs the
            # release for replay; lands on Tracer.mark_free either way.
            self._timeline.record_free(self._ranks, self._name, self._nbytes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.release()


def gather_param(
    param: ShardedParameter,
    group: ProcessGroup,
    overlappable: bool = False,
    track_memory: bool = True,
) -> GatheredParam:
    """All-gather a flat-sharded parameter back to its logical shape.

    Every member of ``group`` transiently holds the full (padded)
    buffer; the allocation is registered on each member's device so
    peak-memory effects of gathering are observable.  Engines that
    account gathered memory at a coarser granularity (the
    no-layer-wrapping mode pre-allocates all layers at once) pass
    ``track_memory=False`` to avoid double counting.
    """
    if param.num_shards != group.size:
        raise ValueError(
            f"{param.name}: {param.num_shards} shards but group size {group.size}"
        )
    with group.cluster.tracer.scope("gather", param.name, kind="gather"):
        gathered = all_gather(group, param.shards, overlappable=overlappable)
    nbytes = nbytes_of(gathered[0])
    allocation = None
    if track_memory:
        allocation = GroupAllocation(
            group.cluster, group.ranks, nbytes, f"gathered.{param.name}"
        )
    # All ranks receive identical gathered content; one array is shared.
    full = flat_unshard([gathered[0]], param.logical_shape)
    return GatheredParam(
        full, allocation,
        timeline=group.cluster.timeline, ranks=group.ranks,
        name=param.name, nbytes=nbytes,
    )


def reduce_scatter_grads(
    param: ShardedParameter,
    group: ProcessGroup,
    per_rank_grads: Sequence,
    overlappable: bool = False,
) -> None:
    """Reduce per-rank full gradients into the parameter's flat shards.

    ``per_rank_grads[i]`` is member *i*'s locally computed full
    gradient of the logical parameter (from its own micro-batch); the
    reduce-scatter sums them and leaves each member its shard — the
    FSDP backward step of paper Fig 2(b)/Fig 3(b).
    """
    if len(per_rank_grads) != group.size:
        raise ValueError(
            f"{param.name}: expected {group.size} gradient buffers, got {len(per_rank_grads)}"
        )
    # A folded engine pads its gradient list by repeating one object;
    # flatten each distinct buffer once (id-keyed, so numeric runs with
    # per-rank arrays are untouched).
    flat_of: dict[int, object] = {}
    for grad in distinct_buffers(per_rank_grads):
        if tuple(grad.shape) != param.logical_shape:
            raise ValueError(
                f"{param.name}: gradient shape {tuple(grad.shape)} != logical "
                f"{param.logical_shape}"
            )
        flat_of[id(grad)] = flat_pad(grad, group.size)
    flat_per_rank = list(map(flat_of.__getitem__, map(id, per_rank_grads)))
    with group.cluster.tracer.scope("grad", param.name):
        shard_lists = reduce_scatter(group, flat_per_rank, op="sum", overlappable=overlappable)
    param.set_grad_shards(shard_lists)


def tensor_parallel_sum(group: ProcessGroup, partials: Sequence, overlappable: bool = False):
    """Sum per-rank partial activations over the tensor-parallel group."""
    return all_reduce(group, partials, op="sum", overlappable=overlappable)[0]
