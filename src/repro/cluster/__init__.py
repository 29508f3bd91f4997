"""Simulated Frontier-class cluster.

The substrate the ORBIT scaling study ran on (49,152 MI250X GCDs on
Frontier) is reproduced here as a single-process virtual cluster:

* :mod:`~repro.cluster.topology` — nodes, Infinity Fabric intra-node
  links, Slingshot-11 inter-node links;
* :mod:`~repro.cluster.device` — per-GCD memory tracking (64 GB);
* :mod:`~repro.cluster.process_group` — rank groups over which
  collectives operate;
* :mod:`~repro.cluster.collectives` — functional all-gather /
  reduce-scatter / all-reduce over per-rank buffers with alpha-beta
  communication cost accounting;
* :mod:`~repro.cluster.timeline` — per-rank compute/communication time
  ledger including prefetch overlap, plus the rank-symmetry-folded
  variant that simulates one representative per equivalence class;
* :mod:`~repro.cluster.symmetry` — the (TP, FSDP, DDP) rank-class
  partition and the fold-eligibility decision.
"""

from repro.cluster.cluster import VirtualCluster
from repro.cluster.collectives import all_gather, all_reduce, reduce_scatter
from repro.cluster.costmodel import CollectiveCostModel
from repro.cluster.device import VirtualGPU
from repro.cluster.process_group import ProcessGroup
from repro.cluster.symmetry import FoldDecision, RankClassPartition, decide_fold
from repro.cluster.timeline import FoldedTimeline, Timeline
from repro.cluster.topology import FrontierTopology, LinkKind

__all__ = [
    "CollectiveCostModel",
    "FoldDecision",
    "FoldedTimeline",
    "FrontierTopology",
    "LinkKind",
    "ProcessGroup",
    "RankClassPartition",
    "Timeline",
    "decide_fold",
    "VirtualCluster",
    "VirtualGPU",
    "all_gather",
    "all_reduce",
    "reduce_scatter",
]
