"""The validated run specification shared by every stack consumer.

A :class:`RunSpec` is the single source of truth for one simulated
Hybrid-STOP run: the model configuration, the machine shape, the
(PP, TP, FSDP, DDP) factorization, and the policy knobs of Table I /
Sec III-B.  Construction validates the topology with the same
diagnostics the CLI used to hand-roll (``repro trace``'s exit-2
messages) and the same legality rules the tuner's space enumeration
records as rejection reasons — so an illegal run fails identically no
matter which door it comes through.

Policy knobs are marked with dataclass field metadata
(``{"policy": True}``): they change *how* a configuration runs, not
*which* configuration it is.  The bench harness derives the committed
``BENCH_obs.json`` schema from that metadata, so adding a new policy
knob can never silently churn the baseline document.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Mapping

from repro.models.configs import OrbitConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memory.estimator import TrainingSetup

#: Field-metadata key marking a policy knob (see module docstring).
POLICY_METADATA_KEY = "policy"

_POLICY = {POLICY_METADATA_KEY: True}


class RunSpecError(ValueError):
    """An invalid run specification (the CLI maps this to exit 2)."""


def policy_field_names() -> frozenset[str]:
    """Names of the RunSpec policy knobs, from field metadata."""
    return frozenset(
        f.name for f in fields(RunSpec) if f.metadata.get(POLICY_METADATA_KEY)
    )


def grid_rank(ddp: int, fsdp: int, tp: int, fsdp_size: int, tp_size: int,
              tp_innermost: bool) -> int:
    """Global rank of grid coordinate ``(d, f, k)`` — the
    :meth:`~repro.parallel.plan.HybridParallelPlan.rank` layout without
    needing a cluster."""
    per_replica = tp_size * fsdp_size
    if tp_innermost:
        return ddp * per_replica + fsdp * tp_size + tp
    return ddp * per_replica + tp * fsdp_size + fsdp


def tp_group_spans_nodes(tp: int, fsdp: int, ddp: int, tp_innermost: bool,
                         gpus_per_node: int, pp: int = 1) -> bool:
    """Whether any tensor-parallel group crosses a node boundary.

    With a pipeline axis each stage's grid sits at a rank offset of
    ``s * tp * fsdp * ddp``; when that stage size is not a whole number
    of nodes, a deeper stage's TP groups can straddle a boundary even
    though stage 0's do not — so every stage is checked.
    """
    stage_size = tp * fsdp * ddp
    for s in range(pp):
        offset = s * stage_size
        for d in range(ddp):
            for f in range(fsdp):
                nodes = {
                    (offset + grid_rank(d, f, k, fsdp, tp, tp_innermost))
                    // gpus_per_node
                    for k in range(tp)
                }
                if len(nodes) > 1:
                    return True
    return False


def engine_legality_reason(
    config: OrbitConfig,
    tp: int,
    fsdp: int,
    ddp: int,
    tp_innermost: bool = True,
    gpus_per_node: int = 8,
    engine_mode: bool = True,
    pp: int = 1,
) -> str | None:
    """Why this factorization/layout is illegal; ``None`` when legal.

    ``engine_mode=True`` applies the constraints the simulated engine
    actually enforces (whole heads under qk_layernorm, tensor-parallel
    groups confined to one node); ``False`` is the relaxed analytic
    regime of the Fig 6 sweep.
    """
    if pp > config.depth:
        # Mirrors repro.parallel.stages.PipelineLimitError: one stage
        # needs at least one transformer block.
        return (
            f"pipeline parallelism is limited by the number of layers: "
            f"requested {pp} stages for {config.depth} blocks"
        )
    if config.embed_dim % tp:
        return f"embed_dim {config.embed_dim} not divisible by tp {tp}"
    if config.hidden_dim % tp:
        return f"hidden_dim {config.hidden_dim} not divisible by tp {tp}"
    if tp > config.num_heads:
        # Sub-head sharding regime (paper Sec III-A head independence).
        if tp % config.num_heads:
            return f"tp {tp} not divisible by num_heads {config.num_heads}"
        subhead = tp // config.num_heads
        if config.head_dim % subhead:
            return (
                f"head_dim {config.head_dim} not divisible by "
                f"sub-head factor {subhead}"
            )
        if engine_mode and config.qk_layernorm:
            return (
                f"sub-head sharding (tp {tp} > {config.num_heads} heads) "
                "incompatible with qk_layernorm"
            )
    elif config.num_heads % tp:
        return f"num_heads {config.num_heads} not divisible by tp {tp}"
    if engine_mode and tp_group_spans_nodes(
        tp, fsdp, ddp, tp_innermost, gpus_per_node, pp=pp
    ):
        layout = "" if tp_innermost else " under the fsdp-innermost layout"
        return f"tp group of size {tp} spans node boundaries{layout}"
    return None


@dataclass(frozen=True)
class RunSpec:
    """One fully specified run of the simulated Hybrid-STOP stack.

    ``ddp_size=None`` derives the replica count from the world size
    (``num_gpus // (pp_size * tp_size * fsdp_size)``) — how the Fig 7
    sweep scales out a fixed replica shape.
    """

    config: OrbitConfig
    num_gpus: int
    gpus_per_node: int = 8
    tp_size: int = 1
    fsdp_size: int = 1
    ddp_size: int | None = 1
    #: Pipeline depth S (stage-outermost; identity, like the other grid
    #: axes — a pipelined run's checkpoints shard per stage).
    pp_size: int = 1
    micro_batch: int = 1
    #: Policy knobs (Table I / Sec III-B): change how a configuration
    #: runs, not which configuration it is.  Field metadata marks them
    #: so downstream schemas (BENCH_obs.json) exclude them structurally.
    prefetch: bool = field(default=True, metadata=_POLICY)
    recompute: bool = field(default=False, metadata=_POLICY)
    tp_innermost: bool = field(default=True, metadata=_POLICY)
    layer_wrapping: bool = field(default=True, metadata=_POLICY)
    bf16: bool = field(default=False, metadata=_POLICY)
    #: Rank-symmetry folding: ``"off"`` always simulates every rank,
    #: ``"on"`` folds symmetric ranks into equivalence
    #: classes when eligible (meta mode, no skew, uniform topology) and
    #: silently run exact otherwise.  Folded and exact runs are bitwise
    #: identical, so this is a policy knob, not an identity field.
    fold: str = field(default="off", metadata=_POLICY)
    #: Streaming telemetry: ``"on"`` attaches a
    #: :class:`~repro.obs.monitor.RunMonitor` (per-step timeseries,
    #: anomaly detectors, event journal); ``"off"`` installs
    #: :data:`~repro.obs.off.OFF`.  Telemetry reads the
    #: ledgers but never writes them, so monitored and unmonitored
    #: runs are bitwise identical — a policy knob, not identity.
    monitor: str = field(default="off", metadata=_POLICY)
    #: Online adaptive re-planning: ``"on"`` lets the fault supervisor
    #: consult a :class:`~repro.replan.ReplanController` after health
    #: checks and fault events, and migrate the run to a better plan
    #: when the projected gain clears the migration cost.  ``"off"``
    #: (default) never evaluates — and a replan-on run whose every
    #: decision is "stay" changes zero bytes of training state, so this
    #: is a policy knob, not identity.
    replan: str = field(default="off", metadata=_POLICY)
    #: Serving-policy knobs (see :class:`repro.serve.policy.ServePolicy`
    #: — :meth:`~repro.serve.policy.ServePolicy.from_spec` reads these).
    #: Like the training policies above, they change how forecasts are
    #: *delivered* (batching, queueing, caching, scaling), never what a
    #: forecast is: served results are bitwise-equal to direct rollout
    #: output under every setting.
    serve_max_batch: int = field(default=8, metadata=_POLICY)
    serve_window_s: float = field(default=0.005, metadata=_POLICY)
    serve_queue_limit: int = field(default=256, metadata=_POLICY)
    serve_cache_entries: int = field(default=32, metadata=_POLICY)
    serve_min_replicas: int = field(default=1, metadata=_POLICY)
    serve_max_replicas: int = field(default=4, metadata=_POLICY)
    #: Run mode: shape-only meta arrays (exact cost accounting, no
    #: numerics) vs real numeric training.
    meta: bool = True
    seed: int = 0
    num_steps: int = 1
    dtype: str = "float32"
    #: rank -> compute-slowdown multipliers (straggler injection);
    #: normalized to a sorted tuple of pairs so specs stay hashable.
    compute_skew: tuple[tuple[int, float], ...] = ()
    track_device_memory: bool = True

    def __post_init__(self):
        if self.ddp_size is None:
            per_replica = self.pp_size * self.tp_size * self.fsdp_size
            if per_replica < 1 or self.num_gpus % per_replica:
                raise RunSpecError(
                    f"invalid topology: pp * tp * fsdp = {self.pp_size} * "
                    f"{self.tp_size} * {self.fsdp_size} = {per_replica} does "
                    f"not divide num_gpus {self.num_gpus}"
                )
            object.__setattr__(self, "ddp_size", self.num_gpus // per_replica)
        if isinstance(self.compute_skew, Mapping):
            object.__setattr__(
                self,
                "compute_skew",
                tuple(sorted((int(r), float(s)) for r, s in self.compute_skew.items())),
            )
        else:
            object.__setattr__(
                self,
                "compute_skew",
                tuple(sorted((int(r), float(s)) for r, s in self.compute_skew)),
            )
        self.validate()

    # -- validation ---------------------------------------------------------
    def topology_errors(self) -> list[str]:
        """Human-readable explanations of every invalid field; empty = valid."""
        problems: list[str] = []
        if min(self.tp_size, self.fsdp_size, self.ddp_size, self.pp_size) < 1:
            problems.append("invalid topology: group sizes must be positive")
        if self.num_gpus < 1:
            problems.append(f"invalid num_gpus {self.num_gpus}: must be at least 1")
        product = self.pp_size * self.tp_size * self.fsdp_size * self.ddp_size
        if product != self.num_gpus:
            axes = f"{self.tp_size} * {self.fsdp_size} * {self.ddp_size}"
            if self.pp_size > 1:
                problems.append(
                    f"invalid topology: pp * tp * fsdp * ddp = "
                    f"{self.pp_size} * {axes} = {product}, which does not "
                    f"equal num_gpus {self.num_gpus}"
                )
            else:
                problems.append(
                    f"invalid topology: tp * fsdp * ddp = {axes} = {product}, "
                    f"which does not equal num_gpus {self.num_gpus}"
                )
        if self.gpus_per_node <= 0 or (
            self.num_gpus >= 1 and self.num_gpus % self.gpus_per_node != 0
        ):
            problems.append(
                f"invalid topology: num_gpus {self.num_gpus} is not a whole "
                f"number of {self.gpus_per_node}-GCD nodes"
            )
        if self.micro_batch < 1:
            problems.append(
                f"invalid micro_batch {self.micro_batch}: must be at least 1"
            )
        if self.num_steps < 1:
            problems.append(
                f"invalid num_steps {self.num_steps}: must be at least 1"
            )
        if self.fold not in ("off", "on"):
            problems.append(
                f"invalid fold {self.fold!r}: must be 'off' or 'on'"
            )
        if self.monitor not in ("off", "on"):
            problems.append(
                f"invalid monitor {self.monitor!r}: must be 'off' or 'on'"
            )
        if self.replan not in ("off", "on"):
            problems.append(
                f"invalid replan {self.replan!r}: must be 'off' or 'on'"
            )
        for rank, factor in self.compute_skew:
            if not 0 <= rank < self.num_gpus:
                problems.append(
                    f"invalid compute_skew rank {rank}: outside "
                    f"[0, {self.num_gpus})"
                )
            if not (math.isfinite(factor) and factor > 0):
                problems.append(
                    f"invalid compute_skew factor {factor} for rank {rank}: "
                    "must be finite and > 0"
                )
        problems.extend(self._serve_problems())
        return problems

    def _serve_problems(self) -> list[str]:
        """Serving-knob diagnostics, phrased by the serving layer.

        Deferred import: the serve package owns its validation rules
        (:func:`repro.serve.policy.policy_problems`); the spec routes
        its knobs through them so ``repro serve`` rejects a bad policy
        with exit 2 exactly like a bad topology.
        """
        from repro.serve.policy import policy_problems

        return policy_problems(
            max_batch=self.serve_max_batch,
            batch_window_s=self.serve_window_s,
            queue_limit=self.serve_queue_limit,
            cache_entries=self.serve_cache_entries,
            min_replicas=self.serve_min_replicas,
            max_replicas=self.serve_max_replicas,
        )

    def validate(self) -> None:
        """Raise :class:`RunSpecError` describing every topology problem."""
        problems = self.topology_errors()
        if problems:
            raise RunSpecError("; ".join(problems))

    def legality_reason(self, engine_mode: bool = True) -> str | None:
        """Why the engine (or relaxed analytic regime) rejects this spec."""
        return engine_legality_reason(
            self.config,
            self.tp_size,
            self.fsdp_size,
            self.ddp_size,
            tp_innermost=self.tp_innermost,
            gpus_per_node=self.gpus_per_node,
            engine_mode=engine_mode,
            pp=self.pp_size,
        )

    # -- derived quantities --------------------------------------------------
    @property
    def nodes(self) -> int:
        return -(-self.num_gpus // self.gpus_per_node)

    @property
    def observations(self) -> int:
        """Observations processed per step (global batch)."""
        return self.micro_batch * self.fsdp_size * self.ddp_size

    def identity(self) -> dict:
        """JSON-able structural identity (checkpoint compatibility key)."""
        c = self.config
        return {
            "config": (
                f"{c.name}:d{c.embed_dim}:L{c.depth}:h{c.num_heads}"
                f":v{c.in_vars}-{c.out_vars}:i{c.img_height}x{c.img_width}"
                f":p{c.patch_size}:m{c.mlp_ratio}:q{int(c.qk_layernorm)}"
            ),
            "topology": f"g{self.num_gpus}x{self.gpus_per_node}",
            "grid": [self.tp_size, self.fsdp_size, self.ddp_size, self.pp_size],
            "micro_batch": self.micro_batch,
            "tp_innermost": self.tp_innermost,
            "dtype": self.dtype,
        }

    # -- bridges to the analytic layers --------------------------------------
    def training_setup(self, parallelism=None) -> "TrainingSetup":
        """The closed-form memory/perf models' view of this spec.

        The analytic experiments (Table I, Fig 6, Fig 7) size their
        configurations through here so the spec remains the single
        place a run's shape is described.
        """
        from repro.memory.estimator import Parallelism, TrainingSetup

        return TrainingSetup(
            self.config,
            self.num_gpus,
            parallelism if parallelism is not None else Parallelism.HYBRID_STOP,
            tp_size=self.tp_size,
            fsdp_size=self.fsdp_size,
            pp_size=self.pp_size,
            micro_batch=self.micro_batch,
            bf16=self.bf16,
            activation_checkpointing=self.recompute,
            layer_wrapping=self.layer_wrapping,
            prefetch=self.prefetch,
        )

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_case(cls, case, config: OrbitConfig | None = None) -> "RunSpec":
        """Spec for one :class:`~repro.bench.harness.BenchCase` (meta mode)."""
        if config is None:
            from repro.models import PAPER_MODELS

            config = PAPER_MODELS[case.model]
        return cls(
            config=config,
            num_gpus=case.num_gpus,
            gpus_per_node=case.gpus_per_node,
            tp_size=case.tp_size,
            fsdp_size=case.fsdp_size,
            ddp_size=case.ddp_size,
            pp_size=case.pp_size,
            micro_batch=case.micro_batch,
            prefetch=case.prefetch,
            recompute=case.recompute,
            tp_innermost=case.tp_innermost,
            fold=case.fold,
            meta=True,
        )

    def replace(self, **changes) -> "RunSpec":
        """A copy with fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)
