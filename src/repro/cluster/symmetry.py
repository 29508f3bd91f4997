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

:class:`RankClassPartition` is the arithmetic of that partition;
:func:`decide_fold` is the eligibility gate that checks — with one
vectorized numpy sweep over every collective-group family — that the
machine topology really does give every class member the identical
alpha-beta cost, so one representative per class can stand in for the
whole class bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.costmodel import CollectiveCostModel
from repro.cluster.topology import FrontierTopology

#: (pipeline stage s, tp index k, is lead shard f == 0)
ClassKey = tuple[int, int, bool]

#: Byte size used by the vectorized alpha-beta probe in
#: :func:`decide_fold`; any positive finite value works because the
#: probe only compares predictions *within* a group family.
PROBE_BYTES = 1 << 20


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

    def rank(self, d: int, f: int, k: int) -> int:
        """Mirror of :meth:`repro.parallel.plan.HybridParallelPlan.rank`
        (stage-local: stage 0)."""
        if self.tp_innermost:
            return (d * self.fsdp_size + f) * self.tp_size + k
        return (d * self.tp_size + k) * self.fsdp_size + f

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
        return stage * self.stage_size + self.rank(0, 0 if lead else 1, k)

    def size(self, key: ClassKey) -> int:
        _, _, lead = key
        if lead:
            return self.ddp_size
        return self.ddp_size * (self.fsdp_size - 1)

    def members(self, key: ClassKey) -> list[int]:
        stage, k, lead = key
        shards = (0,) if lead else range(1, self.fsdp_size)
        offset = stage * self.stage_size
        return sorted(
            offset + self.rank(d, f, k)
            for d in range(self.ddp_size) for f in shards
        )

    @property
    def fsdp_stride(self) -> int:
        """Rank delta between consecutive FSDP shard indices."""
        return self.rank(0, 1, 0) - self.rank(0, 0, 0) if self.fsdp_size > 1 \
            else 0

    @property
    def ddp_stride(self) -> int:
        """Rank delta between consecutive DDP replicas (both layouts)."""
        return self.fsdp_size * self.tp_size

    def rank_grid(self) -> np.ndarray:
        """``R[d, f, k]`` rank array, vectorized."""
        dd, ff, kk = np.meshgrid(
            np.arange(self.ddp_size), np.arange(self.fsdp_size),
            np.arange(self.tp_size), indexing="ij",
        )
        if self.tp_innermost:
            return (dd * self.fsdp_size + ff) * self.tp_size + kk
        return (dd * self.tp_size + kk) * self.fsdp_size + ff


@dataclass(frozen=True)
class FoldDecision:
    """Outcome of :func:`decide_fold`: whether to fold, and why (not)."""

    folded: bool
    reason: str
    partition: RankClassPartition | None = None


def _effective_specs(topology: FrontierTopology,
                     rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized mirror of :meth:`FrontierTopology.effective_bandwidth`.

    ``rows`` is an (n_groups, group_size) rank matrix; returns per-row
    (latency_s, bandwidth_Bps) arrays that match the scalar method
    float-for-float (pinned by the property test in
    ``tests/cluster/test_topology.py``).
    """
    rows = np.asarray(rows)
    n, g = rows.shape
    if g <= 1:  # SELF links
        return np.zeros(n), np.full(n, np.inf)
    nodes = np.sort(rows // topology.gpus_per_node, axis=1)
    inter = nodes[:, -1] > nodes[:, 0]
    # max ranks sharing one node, per group (mirrors the per_node dict):
    # the longest run of equal ids in each sorted row — O(n*g) memory,
    # where an all-pairs comparison would need n*g*g.
    position = np.arange(g)
    run_start = np.maximum.accumulate(
        np.where(np.diff(nodes, axis=1, prepend=-1) != 0, position, 0), axis=1)
    sharers = (position - run_start).max(axis=1) + 1
    occupancy = min(topology.gpus_per_node, topology.num_gpus)
    contention = np.maximum(1, occupancy // sharers)
    lat = np.where(inter, topology.inter_node.latency_s,
                   topology.intra_node.latency_s)
    bw = np.where(inter, topology.inter_node.bandwidth_Bps / contention,
                  topology.intra_node.bandwidth_Bps)
    return lat, bw


def _family_uniform(topology: FrontierTopology, rows: np.ndarray) -> bool:
    """True iff every group in the family has the identical effective
    link spec *and* the identical vectorized alpha-beta prediction."""
    rows = np.asarray(rows)
    if rows.shape[0] <= 1:
        return True
    lat, bw = _effective_specs(topology, rows)
    if not (np.all(lat == lat[0]) and np.all(bw == bw[0])):
        return False
    # Belt and braces: evaluate the ring all-reduce alpha-beta model
    # across every group at once and require bitwise-equal predictions.
    g = rows.shape[1]
    seconds = CollectiveCostModel._steps_batch(
        lat, bw, 2 * (g - 1), PROBE_BYTES / g if g else 0.0
    )
    return bool(np.all(seconds == seconds[0]))


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
    grid = part.rank_grid()
    D, F, K = spec.ddp_size, spec.fsdp_size, spec.tp_size
    offsets = np.arange(S).reshape(S, 1, 1, 1) * part.stage_size
    grid4 = grid[None, ...] + offsets  # [s, d, f, k]
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
    if K > spec.config.num_heads:
        # Sub-head sharding all-reduces over per-head subsets of the TP
        # group; they share one spec only when TP groups stay on-node.
        tp_rows = families["tensor-parallel"]
        nodes = tp_rows // topology.gpus_per_node
        if np.any(nodes.max(axis=1) > nodes.min(axis=1)):
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
