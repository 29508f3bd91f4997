"""Configuration-space enumeration for the parallelism planner.

A *candidate* is one complete engine configuration: a
(pipeline, tensor-parallel, FSDP, DDP) factorization of the world size
plus the micro-batch size, the activation-checkpointing policy,
prefetch on/off, and the ``tp_innermost`` rank layout.  :func:`enumerate_space` walks
every combination and splits it into legal candidates and
:class:`Rejection` records carrying the reason — non-divisible
factorizations, head-count constraints, tensor-parallel groups that
would span node boundaries — so a report can explain *why* a
configuration the user expected is absent.

Two legality regimes exist:

* **engine mode** (default): only configurations the simulated
  :class:`~repro.parallel.engine.HybridSTOPEngine` can actually run —
  whole heads per rank when ``qk_layernorm`` is on, tensor-parallel
  groups confined to one node (the paper's Fig 4 placement);
* **relaxed mode** (``engine_mode=False``): the analytic regime of the
  Fig 6 sweep, which admits sub-head sharding and node-spanning
  tensor-parallel groups because no engine step is ever taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.models.configs import OrbitConfig


@dataclass(frozen=True)
class Candidate:
    """One fully specified engine configuration."""

    tp_size: int
    fsdp_size: int
    ddp_size: int
    micro_batch: int
    recompute: bool = False
    prefetch: bool = True
    tp_innermost: bool = True
    pp_size: int = 1

    @property
    def world_size(self) -> int:
        return self.pp_size * self.tp_size * self.fsdp_size * self.ddp_size

    @property
    def observations(self) -> int:
        """Observations per step (global batch; the pipeline axis adds
        stages, not observations)."""
        return self.micro_batch * self.fsdp_size * self.ddp_size

    def label(self) -> str:
        """Compact human-readable tag (also the cache-key fragment).

        The ``pp{S}`` segment appears only for pipelined candidates, so
        3D labels — and the cache entries keyed on them — are unchanged,
        while a 4D plan can never collide with its ``pp=1`` projection.
        """
        flags = []
        if self.recompute:
            flags.append("ckpt")
        if self.prefetch:
            flags.append("pf")
        if not self.tp_innermost:
            flags.append("fsdp-inner")
        suffix = "+" + "+".join(flags) if flags else ""
        pp = f"pp{self.pp_size}." if self.pp_size > 1 else ""
        return (
            f"{pp}tp{self.tp_size}.f{self.fsdp_size}.d{self.ddp_size}"
            f".mb{self.micro_batch}{suffix}"
        )


@dataclass(frozen=True)
class Rejection:
    """A (factorization, layout) combination ruled out, and why.

    Policy axes (micro-batch, checkpointing, prefetch) never affect
    legality, so rejections are recorded once per factorization/layout
    rather than once per candidate.
    """

    tp_size: int
    fsdp_size: int
    ddp_size: int
    tp_innermost: bool
    reason: str
    pp_size: int = 1


@dataclass(frozen=True)
class TuneRequest:
    """What to search: model, machine, and the policy axes to sweep."""

    config: OrbitConfig
    num_gpus: int
    gpus_per_node: int = 8
    micro_batches: tuple[int, ...] = (1, 2, 4)
    recompute_options: tuple[bool, ...] = (False, True)
    prefetch_options: tuple[bool, ...] = (True, False)
    #: Restrict the tensor-parallel axis (the Fig 6 sweep pins it);
    #: ``None`` sweeps every divisor of the world size.
    tp_sizes: tuple[int, ...] | None = None
    #: Pipeline depths to sweep.  The default keeps the search 3D; the
    #: ``repro tune --pp`` flag widens it to the 4D space.
    pp_sizes: tuple[int, ...] = (1,)
    #: Engine-runnable legality vs the relaxed analytic regime.
    engine_mode: bool = True
    #: Canonical key of the hardware/degradation profile the request is
    #: priced against (:meth:`repro.replan.DegradationProfile.key`).
    #: Empty for a clean machine — the historical cache-key shape — so
    #: degraded-topology estimates can never collide with (or poison)
    #: clean-topology cache entries.
    degradation_key: str = ""

    def __post_init__(self):
        from repro.runtime.spec import RunSpecError, node_shape_error

        if self.num_gpus < 1 or self.gpus_per_node < 1:
            raise ValueError("num_gpus and gpus_per_node must be positive")
        node_problem = node_shape_error(self.num_gpus, self.gpus_per_node)
        if node_problem:
            raise RunSpecError(node_problem)
        if not self.micro_batches or min(self.micro_batches) < 1:
            raise ValueError("micro_batches must be positive")
        if not self.pp_sizes or min(self.pp_sizes) < 1:
            raise ValueError("pp_sizes must be positive")
        # A repeated value would score every candidate it spans twice.
        for name, values in (("micro_batches", self.micro_batches),
                             ("pp_sizes", self.pp_sizes)):
            if len(set(values)) != len(values):
                raise RunSpecError(
                    f"{name} {','.join(map(str, values))} repeats a value")

    @property
    def nodes(self) -> int:
        return max(1, self.num_gpus // self.gpus_per_node)

    def topology_key(self) -> str:
        return f"g{self.num_gpus}x{self.gpus_per_node}"


@dataclass(frozen=True)
class SearchSpace:
    """The outcome of enumeration: legal candidates plus rejections."""

    request: TuneRequest
    candidates: tuple[Candidate, ...]
    rejections: tuple[Rejection, ...] = field(default=())

    def rejection_reasons(self) -> dict[str, int]:
        """Histogram of rejection reasons (for the report)."""
        counts: dict[str, int] = {}
        for rejection in self.rejections:
            counts[rejection.reason] = counts.get(rejection.reason, 0) + 1
        return counts


def _factorization_reason(request: TuneRequest, tp: int, fsdp: int, ddp: int,
                          tp_innermost: bool, pp: int = 1) -> str | None:
    """Why (pp, tp, fsdp, ddp) under this layout is illegal; None if legal.

    Delegates to the runtime layer's
    :func:`~repro.runtime.spec.engine_legality_reason`, so the tuner
    rejects exactly what a :class:`~repro.runtime.spec.RunSpec` would.
    """
    from repro.runtime.spec import engine_legality_reason

    return engine_legality_reason(
        request.config, tp, fsdp, ddp,
        tp_innermost=tp_innermost,
        gpus_per_node=request.gpus_per_node,
        engine_mode=request.engine_mode,
        pp=pp,
    )


def enumerate_space(request: TuneRequest) -> SearchSpace:
    """All legal candidates for ``request``, plus why the rest are not.

    The policy axes (micro-batch, checkpointing, prefetch) multiply
    only the *legal* factorizations; ``tp_innermost=False`` is
    enumerated only when both the tensor-parallel and FSDP axes are
    non-trivial (otherwise the two layouts give the identical rank
    map and would duplicate candidates).
    """
    world = request.num_gpus
    candidates: list[Candidate] = []
    rejections: list[Rejection] = []

    for pp in request.pp_sizes:
        if world % pp:
            rejections.append(Rejection(
                0, 0, 0, True, f"pp {pp} does not divide world size {world}",
                pp_size=pp,
            ))
            continue
        stage_world = world // pp
        tp_axis = request.tp_sizes if request.tp_sizes is not None else tuple(
            tp for tp in range(1, stage_world + 1) if stage_world % tp == 0
        )
        for tp in tp_axis:
            if stage_world % tp:
                scope = "world size" if pp == 1 else "per-stage world size"
                rejections.append(Rejection(
                    tp, 0, 0, True,
                    f"tp {tp} does not divide {scope} {stage_world}",
                    pp_size=pp,
                ))
                continue
            remainder = stage_world // tp
            for fsdp in (f for f in range(1, remainder + 1) if remainder % f == 0):
                ddp = remainder // fsdp
                layouts = (True, False) if (tp > 1 and fsdp > 1) else (True,)
                for tp_innermost in layouts:
                    reason = _factorization_reason(
                        request, tp, fsdp, ddp, tp_innermost, pp=pp
                    )
                    if reason is not None:
                        rejections.append(Rejection(
                            tp, fsdp, ddp, tp_innermost, reason, pp_size=pp
                        ))
                        continue
                    for micro_batch in request.micro_batches:
                        for recompute in request.recompute_options:
                            for prefetch in request.prefetch_options:
                                candidates.append(Candidate(
                                    tp_size=tp, fsdp_size=fsdp, ddp_size=ddp,
                                    micro_batch=micro_batch, recompute=recompute,
                                    prefetch=prefetch, tp_innermost=tp_innermost,
                                    pp_size=pp,
                                ))
    return SearchSpace(request, tuple(candidates), tuple(rejections))
