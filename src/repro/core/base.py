"""Shared machinery for Hybrid-STOP sublayer modules."""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING

from repro.core.sharding import ShardedParameter
from repro.nn.context import ExecutionContext, execution_context

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel.plan import HybridParallelPlan


@contextmanager
def compute_on_rank(cluster, compute_model, rank: int, op: str):
    """Attribute the enclosed work to ``rank``'s timeline.

    The body runs under a per-rank trace-log context and an
    :class:`ExecutionContext` that counts its FLOPs; on a clean exit
    they are priced by ``compute_model`` (skipped when it is ``None``)
    and recorded as one compute event named ``op``.
    """
    from repro.utils.logging import trace_log_context

    ctx = ExecutionContext()
    with trace_log_context(rank=rank), execution_context(ctx):
        yield
    if compute_model is not None:
        seconds = compute_model.seconds_for(ctx.flops, rank)
        cluster.timeline.record_compute(rank, seconds, ctx.flops, op=op)


class HybridModuleBase:
    """Base for sharded sublayers living on one DDP replica of a plan.

    Provides replica-scoped group accessors and per-rank compute
    recording: engine code wraps each rank's local math in
    :meth:`ranked_compute` so its FLOPs land on that rank's timeline
    ledger (converted to seconds by the optional ``compute_model``).
    """

    def __init__(
        self,
        plan: "HybridParallelPlan",
        ddp_index: int = 0,
        prefetch: bool = False,
        compute_model=None,
        name: str = "layer",
    ):
        if not 0 <= ddp_index < plan.ddp_size:
            raise ValueError(f"ddp_index {ddp_index} outside ddp_size {plan.ddp_size}")
        self.plan = plan
        self.ddp_index = ddp_index
        self.prefetch = prefetch
        self.compute_model = compute_model
        self.name = name
        self._cache = None
        #: Set False when a trunk accounts gathered memory wholesale
        #: (the no-layer-wrapping mode of Table I).
        self.track_gather_memory = True

    def _shard(self, full, suffix: str, tp: int = 0) -> ShardedParameter:
        """``full`` on FSDP group ``tp``, for the module's :func:`register_shards`."""
        return ShardedParameter(full, self.fsdp_size, f"{self.name}.{suffix}",
                                group=self.fsdp_group(tp))

    def _gather(self, param, group):
        """Gather a shard with this module's prefetch/track settings."""
        from repro.core.fsdp_ops import gather_param

        return gather_param(
            param, group, overlappable=self.prefetch, track_memory=self.track_gather_memory
        )

    # -- replica-scoped shortcuts ---------------------------------------------
    @property
    def tp_size(self) -> int:
        return self.plan.tp_size

    @property
    def fsdp_size(self) -> int:
        return self.plan.fsdp_size

    def tp_group(self, fsdp: int):
        return self.plan.tp_group(self.ddp_index, fsdp)

    def fsdp_group(self, tp: int):
        return self.plan.fsdp_group(self.ddp_index, tp)

    def rank(self, fsdp: int, tp: int) -> int:
        return self.plan.rank(self.ddp_index, fsdp, tp)

    # -- symmetry folding ------------------------------------------------------
    def fold_fsdp(self, iterable):
        """Iterate a per-shard (``f``) loop, folded when the timeline is.

        On a :class:`~repro.cluster.timeline.FoldedTimeline` only the
        first iteration runs (bracketed by a replayable segment marker);
        on the exact timeline this is plain iteration.
        """
        return self.plan.cluster.timeline.fold_iter("fsdp", iterable)

    def fold_pad(self, items: list) -> list:
        """Pad a folded ``f``-loop's outputs back to ``fsdp_size``."""
        return self.plan.cluster.timeline.fold_pad("fsdp", items, self.fsdp_size)

    # -- accounting --------------------------------------------------------------
    def ranked_compute(self, fsdp: int, tp: int):
        """Attribute the enclosed work to rank ``(fsdp, tp)``'s timeline."""
        return compute_on_rank(
            self.plan.cluster, self.compute_model, self.rank(fsdp, tp), self.name
        )

    def _require_cache(self):
        if self._cache is None:
            raise RuntimeError(
                f"{type(self).__name__} '{self.name}': backward called without a "
                "cached forward"
            )
        return self._cache
