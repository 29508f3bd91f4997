"""Rank-symmetry analysis for folded Timeline simulation.

ORBIT's Hybrid-STOP layout is almost perfectly symmetric: every DDP
replica runs the identical event stream, and within a replica every
FSDP shard index ``f`` runs the identical stream *except* that the
dense (unsharded) gradient all-reduce involves only the ``f == 0``
lead ranks.  That leaves exactly ``2 * tp_size`` behaviourally
distinct rank classes per pipeline stage (``tp_size`` when
``fsdp_size == 1``), keyed by

    ``(s, k, f == 0)``   where ``s`` is the pipeline stage and ``k``
    the tensor-parallel index.

Pipeline stages are *never* folded — each runs different blocks of the
model — but every stage is a self-similar 3D sub-grid at a constant
rank offset, so the within-stage FSDP/DDP fold arithmetic (strides,
member enumeration, replay offsets) is unchanged from the 3D case.

:class:`RankClassPartition` is the arithmetic of that partition and
the one spelling of the 4D rank layout; :func:`decide_fold` is the
eligibility gate that checks — with one vectorized numpy sweep over
every collective-group family — that the machine topology really does
give every group of a family the identical effective link spec
(:meth:`~repro.cluster.topology.FrontierTopology.effective_specs`), and
so every class member the identical alpha-beta cost: one
representative per class can stand in for the whole class bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.cluster.topology import FrontierTopology

#: (pipeline stage s, tp index k, is lead shard f == 0)
ClassKey = tuple[int, int, bool]


@dataclass(frozen=True)
class RankClassPartition:
    """The (PP, TP, FSDP, DDP) equivalence classes of a Hybrid-STOP layout."""

    tp_size: int
    fsdp_size: int
    ddp_size: int
    tp_innermost: bool = True
    pp_size: int = 1

    @property
    def stage_size(self) -> int:
        """Ranks per pipeline stage (the 3D sub-grid size)."""
        return self.tp_size * self.fsdp_size * self.ddp_size

    @property
    def num_gpus(self) -> int:
        return self.stage_size * self.pp_size

    def rank(self, s, d, f, k):
        """Global rank of grid coordinate ``(s, d, f, k)`` (paper Fig 4).

        Stage outermost, then the DDP replica, then FSDP and TP with TP
        innermost (FSDP innermost when ``tp_innermost`` is False).  The
        one spelling of the layout: pure integer arithmetic, so it also
        maps NumPy coordinate arrays elementwise (:meth:`rank_grid`).
        """
        if self.tp_innermost:
            inner = f * self.tp_size + k
        else:
            inner = k * self.fsdp_size + f
        return (s * self.ddp_size + d) * self.fsdp_size * self.tp_size + inner

    def coords(self, rank: int) -> tuple[int, int, int]:
        """Within-stage (ddp, fsdp, tp) coordinates of a global rank."""
        if not 0 <= rank < self.num_gpus:
            raise ValueError(f"rank {rank} outside world of {self.num_gpus}")
        rem = rank % self.stage_size
        per_replica = self.fsdp_size * self.tp_size
        d, rem = divmod(rem, per_replica)
        if self.tp_innermost:
            f, k = divmod(rem, self.tp_size)
        else:
            k, f = divmod(rem, self.fsdp_size)
        return d, f, k

    def stage_of(self, rank: int) -> int:
        """Pipeline stage hosting a global rank (stage-outermost layout)."""
        if not 0 <= rank < self.num_gpus:
            raise ValueError(f"rank {rank} outside world of {self.num_gpus}")
        return rank // self.stage_size

    def class_of(self, rank: int) -> ClassKey:
        _, f, k = self.coords(rank)
        return (self.stage_of(rank), k, f == 0)

    @property
    def keys(self) -> tuple[ClassKey, ...]:
        """All class keys, ordered by representative rank."""
        out = [(s, k, True)
               for s in range(self.pp_size) for k in range(self.tp_size)]
        if self.fsdp_size > 1:
            out.extend((s, k, False)
                       for s in range(self.pp_size) for k in range(self.tp_size))
        return tuple(sorted(out, key=self.representative))

    def representative(self, key: ClassKey) -> int:
        stage, k, lead = key
        return self.rank(stage, 0, 0 if lead else 1, k)

    def size(self, key: ClassKey) -> int:
        _, _, lead = key
        if lead:
            return self.ddp_size
        return self.ddp_size * (self.fsdp_size - 1)

    def members(self, key: ClassKey) -> list[int]:
        stage, k, lead = key
        shards = (0,) if lead else range(1, self.fsdp_size)
        return sorted(
            self.rank(stage, d, f, k)
            for d in range(self.ddp_size) for f in shards
        )

    @cached_property
    def fsdp_stride(self) -> int:
        """Rank delta between consecutive FSDP shard indices."""
        return self.rank(0, 0, 1, 0) - self.rank(0, 0, 0, 0) \
            if self.fsdp_size > 1 else 0

    @property
    def ddp_stride(self) -> int:
        """Rank delta between consecutive DDP replicas (both layouts)."""
        return self.fsdp_size * self.tp_size

    def rank_grid(self) -> np.ndarray:
        """``R[s, d, f, k]``: :meth:`rank` over the whole grid."""
        return self.rank(*np.indices(
            (self.pp_size, self.ddp_size, self.fsdp_size, self.tp_size)))

    def tp_spans_nodes(self, gpus_per_node: int) -> bool:
        """Whether any tensor-parallel group crosses a node boundary.

        Every stage is checked: when the stage size is not a whole
        number of nodes, a deeper stage's TP groups can straddle a
        boundary even though stage 0's do not.
        """
        nodes = self.rank_grid() // gpus_per_node
        return bool(np.any(nodes.max(axis=-1) > nodes.min(axis=-1)))


@dataclass(frozen=True)
class FoldDecision:
    """Outcome of :func:`decide_fold`: whether to fold, and why (not)."""

    folded: bool
    reason: str
    partition: RankClassPartition | None = None


def _family_uniform(topology: FrontierTopology, rows: np.ndarray) -> bool:
    """True iff every group in the family has the identical effective
    link spec (then every alpha-beta cost over them is identical too)."""
    lat, bw = topology.effective_specs(rows)
    return bool(np.all(lat == lat[:1]) and np.all(bw == bw[:1]))


def symmetry_blockers(spec, topology: FrontierTopology) -> list[str]:
    """Every reason the given RunSpec cannot be folded on ``topology``.

    Empty list means the (PP, TP, FSDP, DDP) class partition is exact:
    for each collective-group family, all groups a class replicates over
    share one effective link spec, so one representative's alpha-beta
    costs are bitwise valid for every member.  Each pipeline stage is a
    rank-offset copy of the 3D grid, so stage ``s``'s families are the
    stage-0 rows plus ``s * stage_size``; the dense front lives on
    stage 0 and the head on the last stage (separate replica groups
    unless those are one stage), and the stage-boundary
    activation/gradient sends add a family of 2-wide point-to-point
    rows (none for one stage).
    """
    blockers: list[str] = []
    S = getattr(spec, "pp_size", 1)
    part = RankClassPartition(spec.tp_size, spec.fsdp_size, spec.ddp_size,
                              tp_innermost=spec.tp_innermost, pp_size=S)
    grid4 = part.rank_grid()  # [s, d, f, k]
    D, F, K = spec.ddp_size, spec.fsdp_size, spec.tp_size
    families = {
        "tensor-parallel": grid4.reshape(S * D * F, K),
        "fsdp-shard": grid4.transpose(0, 1, 3, 2).reshape(S * D * K, F),
        "ddp-replica-sync": grid4.transpose(0, 2, 3, 1).reshape(S * F * K, D),
        # Front embeddings sync on stage 0, the head on the last stage.
        "dense-replica": grid4[sorted({0, S - 1})].reshape(-1, F * K),
        # Activation/gradient sends pair rank (s,d,f,k) with (s+1,d,f,k).
        "pipeline-boundary": np.stack(
            [grid4[:-1].reshape(-1), grid4[1:].reshape(-1)], axis=1),
    }
    for name, rows in families.items():
        if not _family_uniform(topology, rows):
            blockers.append(f"{name} groups have non-uniform link specs")
    # Sub-head sharding all-reduces over per-head subsets of the TP
    # group; they share one spec only when TP groups stay on-node.
    if K > spec.config.num_heads and part.tp_spans_nodes(topology.gpus_per_node):
        blockers.append("sub-head regime with node-spanning TP groups")
    return blockers


def decide_fold(spec, topology: FrontierTopology) -> FoldDecision:
    """Should this run fold ranks into equivalence classes?

    ``fold="off"`` never folds; ``"on"`` folds whenever the
    run is eligible and silently fall back to exact mode otherwise
    (numeric runs, skewed compute, asymmetric topologies).  A Session
    decides before its cluster (and so its compute model) exists —
    ``spec.compute_skew`` is the only rank-dependent model it builds.
    """
    if spec.fold == "off":
        return FoldDecision(False, "fold=off")
    if not spec.meta:
        return FoldDecision(False, "numeric runs always use exact mode")
    if spec.compute_skew:
        return FoldDecision(False, "compute_skew breaks rank symmetry")
    blockers = symmetry_blockers(spec, topology)
    if blockers:
        return FoldDecision(False, "; ".join(blockers))
    part = RankClassPartition(spec.tp_size, spec.fsdp_size, spec.ddp_size,
                              tp_innermost=spec.tp_innermost,
                              pp_size=getattr(spec, "pp_size", 1))
    return FoldDecision(True, "eligible", part)
