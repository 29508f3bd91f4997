"""The validated run specification shared by every stack consumer.

A :class:`RunSpec` describes exactly what a
:class:`~repro.runtime.session.Session` executes: the model
configuration, the machine shape, the (PP, TP, FSDP, DDP)
factorization, the engine policies it runs with, and the run mode.
Every field is read by the executed stack.  The closed-form models
take their own :class:`~repro.memory.estimator.TrainingSetup`, and a
serving deployment its own :class:`~repro.serve.policy.ServePolicy`.

Construction validates the topology with the same diagnostics the CLI
prints (``repro trace``'s exit-2 messages), and
:meth:`RunSpec.legality_reason` applies the legality rules the tuner's
space enumeration records as rejection reasons — so an illegal run
fails identically no matter which door it comes through.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping

from repro.cluster.symmetry import RankClassPartition
from repro.models.configs import OrbitConfig


class RunSpecError(ValueError):
    """An invalid run specification (the CLI maps this to exit 2)."""


def tp_group_spans_nodes(tp: int, fsdp: int, ddp: int, tp_innermost: bool,
                         gpus_per_node: int, pp: int = 1) -> bool:
    """Whether any tensor-parallel group crosses a node boundary.

    With a pipeline axis each stage's grid sits at a rank offset of
    ``s * tp * fsdp * ddp``; when that stage size is not a whole number
    of nodes, a deeper stage's TP groups can straddle a boundary even
    though stage 0's do not — so every stage is checked.
    """
    grid = RankClassPartition(tp, fsdp, ddp, tp_innermost)
    for s in range(pp):
        offset = s * grid.stage_size
        for d in range(ddp):
            for f in range(fsdp):
                nodes = {
                    (offset + grid.rank(d, f, k)) // gpus_per_node
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
    """One fully specified run of the simulated Hybrid-STOP stack."""

    config: OrbitConfig
    num_gpus: int
    gpus_per_node: int = 8
    tp_size: int = 1
    fsdp_size: int = 1
    ddp_size: int = 1
    #: Pipeline depth S (stage-outermost; identity, like the other grid
    #: axes — a pipelined run's checkpoints shard per stage).
    pp_size: int = 1
    micro_batch: int = 1
    #: Engine policies (Table I / Sec III-B): change how a configuration
    #: runs, not which configuration it is, so only ``tp_innermost``
    #: (rank placement) is part of :meth:`identity`.
    prefetch: bool = True
    recompute: bool = False
    tp_innermost: bool = True
    layer_wrapping: bool = True
    #: Rank-symmetry folding: ``"off"`` always simulates every rank,
    #: ``"on"`` folds symmetric ranks into equivalence
    #: classes when eligible (meta mode, no skew, uniform topology) and
    #: silently run exact otherwise.  Folded and exact runs are bitwise
    #: identical, so this is a policy knob, not an identity field.
    fold: str = "off"
    #: Streaming telemetry: ``"on"`` attaches a
    #: :class:`~repro.obs.monitor.RunMonitor` (per-step timeseries,
    #: anomaly detectors, event journal); ``"off"`` installs
    #: :data:`~repro.obs.off.OFF`.  Telemetry reads the
    #: ledgers but never writes them, so monitored and unmonitored
    #: runs are bitwise identical — a policy knob, not identity.
    monitor: str = "off"
    #: Online adaptive re-planning: ``"on"`` lets the fault supervisor
    #: consult a :class:`~repro.replan.ReplanController` after health
    #: checks and fault events, and migrate the run to a better plan
    #: when the projected gain clears the migration cost.  ``"off"``
    #: (default) never evaluates — and a replan-on run whose every
    #: decision is "stay" changes zero bytes of training state, so this
    #: is a policy knob, not identity.
    replan: str = "off"
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
        return problems

    def validate(self) -> None:
        """Raise :class:`RunSpecError` describing every topology problem."""
        problems = self.topology_errors()
        if problems:
            raise RunSpecError("; ".join(problems))

    def legality_reason(self) -> str | None:
        """Why the engine rejects this spec; ``None`` when legal."""
        return engine_legality_reason(
            self.config,
            self.tp_size,
            self.fsdp_size,
            self.ddp_size,
            tp_innermost=self.tp_innermost,
            gpus_per_node=self.gpus_per_node,
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
        return {
            "config": self.config.key(),
            "topology": f"g{self.num_gpus}x{self.gpus_per_node}",
            "grid": [self.tp_size, self.fsdp_size, self.ddp_size, self.pp_size],
            "micro_batch": self.micro_batch,
            "tp_innermost": self.tp_innermost,
            "dtype": self.dtype,
        }

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
