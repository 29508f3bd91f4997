"""Fully Sharded Data Parallelism (paper Fig 2).

Each group member holds a flat shard of every parameter and its own
micro-batch.  Forward all-gathers parameters (per wrapping unit, or all
at once without layer wrapping — the peak-memory problem the paper
contrasts Hybrid-STOP against), computes, and frees; backward gathers
again, computes per-member full gradients, and reduce-scatters them so
each member keeps only its reduced shard.

Activations are handled checkpoint-style (each member's forward is
recomputed during backward), matching how FSDP is deployed for models
of this size.
"""

from __future__ import annotations


import numpy as np

from repro.cluster.process_group import ProcessGroup
from repro.core.fsdp_ops import gather_param, reduce_scatter_grads
from repro.core.sharding import ShardedParameter
from repro.meta import is_meta
from repro.nn.context import ExecutionContext, execution_context
from repro.nn.module import Module


class FSDPModule:
    """A serial module trained with fully sharded data parallelism.

    Parameters
    ----------
    serial:
        Template module; its parameters are consumed (sharded) and the
        module is reused as the compute graph with materialized values.
    group:
        The FSDP process group (one shard and one micro-batch per member).
    layer_wrapping:
        Gather one top-level child at a time (True) or every parameter
        at once (False) — the Table I "Layer Wrapping" toggle.
    prefetch:
        Mark gathers overlappable so their cost hides under compute.
    """

    def __init__(
        self,
        serial: Module,
        group: ProcessGroup,
        layer_wrapping: bool = True,
        prefetch: bool = False,
        compute_model=None,
    ):
        self.module = serial
        self.group = group
        self.layer_wrapping = layer_wrapping
        self.prefetch = prefetch
        self.compute_model = compute_model
        self.tracer = group.cluster.tracer
        self.params: dict[str, ShardedParameter] = {}
        self._units: list[list[str]] = []
        unit_map: dict[str, list[str]] = {}
        for name, param in serial.named_parameters():
            self.params[name] = ShardedParameter(param.data, group.size, name, group=group)
            param.data = None  # materialized transiently during execution
            unit = name.split(".", 1)[0]
            unit_map.setdefault(unit, []).append(name)
        self._units = list(unit_map.values())
        self._cache_inputs: list | None = None

    # -- parameter materialization ------------------------------------------------
    def _ranked_compute(self, member: int):
        return _RankedCompute(self, member)

    # -- execution -----------------------------------------------------------------
    def _materialize(self) -> list:
        """Gather every parameter into the module; return live handles.

        With layer wrapping, each unit's tracker allocation is released
        as soon as the next unit is gathered — modelling the sequenced
        per-layer lifetime (the gathered *values* stay assigned so the
        monolithic compute can run; only the memory accounting follows
        the wrapped schedule).  Without wrapping, all allocations stay
        live simultaneously — FSDP's peak-memory problem.
        """
        named = dict(self.module.named_parameters())
        live_handles = []
        for unit in self._units:
            unit_handles = []
            for name in unit:
                handle = gather_param(self.params[name], self.group, overlappable=self.prefetch)
                named[name].data = handle.data
                unit_handles.append(handle)
            if self.layer_wrapping:
                for handle in unit_handles:
                    handle.release()
            else:
                live_handles.extend(unit_handles)
        return live_handles

    def _dematerialize(self, handles) -> None:
        for handle in handles:
            handle.release()
        for param in self.module.parameters():
            param.data = None

    def forward(self, xs: list, *extra_per_member) -> list:
        """One micro-batch per group member; returns per-member outputs.

        ``extra_per_member`` are additional per-member argument lists
        (e.g. lead times) passed through to the module.
        """
        if len(xs) != self.group.size:
            raise ValueError(f"expected {self.group.size} micro-batches, got {len(xs)}")
        with self.tracer.scope("fsdp.forward"):
            handles = self._materialize()
            ys = []
            for member, x in enumerate(xs):
                extras = [arg[member] for arg in extra_per_member]
                with self._ranked_compute(member):
                    y = self.module(x, *extras)
                self.module.clear_cache()
                ys.append(y)
            self._dematerialize(handles)
        self._cache_inputs = (list(xs), [list(arg) for arg in extra_per_member])
        return ys

    def backward(self, grad_ys: list) -> list:
        """Recompute each member's forward, backprop, reduce-scatter grads."""
        if self._cache_inputs is None:
            raise RuntimeError("FSDPModule.backward called without a cached forward")
        xs, extra = self._cache_inputs
        self._cache_inputs = None
        per_member_grads: dict[str, list] = {name: [] for name in self.params}
        grad_xs = []
        with self.tracer.scope("fsdp.backward"):
            handles = self._materialize()
            named = dict(self.module.named_parameters())
            for member, (x, grad_y) in enumerate(zip(xs, grad_ys)):
                extras = [arg[member] for arg in extra]
                self.module.zero_grad()
                with self._ranked_compute(member):
                    self.module(x, *extras)  # recompute activations
                    grad_xs.append(self.module.backward(grad_y))
                for name in self.params:
                    grad = named[name].grad
                    if grad is None:
                        grad = _zeros_like_logical(self.params[name])
                    per_member_grads[name].append(grad)
                self.module.clear_cache()
            self.module.zero_grad()
            self._dematerialize(handles)
            for name, param in self.params.items():
                reduce_scatter_grads(param, self.group, per_member_grads[name])
        return grad_xs

    # -- state access ----------------------------------------------------------------
    def gathered_state(self) -> dict:
        return {name: param.full() for name, param in self.params.items()}

    def gathered_grads(self) -> dict:
        return {name: param.full_grad() for name, param in self.params.items()}

    def zero_grad(self) -> None:
        for param in self.params.values():
            param.zero_grad()

    def sharded_parameters(self) -> list[ShardedParameter]:
        return list(self.params.values())


def _zeros_like_logical(param: ShardedParameter):
    from repro.meta import MetaArray

    if any(is_meta(s) for s in param.shards):
        return MetaArray(param.logical_shape, param.dtype)
    return np.zeros(param.logical_shape, param.dtype)


class _RankedCompute:
    """Attribute enclosed compute to one group member's timeline ledger."""

    def __init__(self, owner: FSDPModule, member: int):
        self.owner = owner
        self.member = member
        self.ctx = ExecutionContext()
        self._mgr = None

    def __enter__(self):
        self._mgr = execution_context(self.ctx)
        self._mgr.__enter__()
        return self

    def __exit__(self, *exc):
        self._mgr.__exit__(*exc)
        owner = self.owner
        if owner.compute_model is not None:
            rank = owner.group.ranks[self.member]
            seconds = owner.compute_model.seconds_for(self.ctx.flops, rank)
            owner.group.cluster.timeline.record_compute(
                rank, seconds, self.ctx.flops, op="fsdp.module"
            )
        return False
