"""Frontier-like interconnect topology.

The model follows the System Details of the paper (Sec IV):

* each node has 8 GPUs (GCDs, two per MI250X card);
* GCDs within a node are connected by Infinity Fabric at 50 GB/s;
* nodes are connected by a Slingshot-11 fabric at 100 GB/s per node.

Inter-node bandwidth is a *node* resource: when all 8 GCDs of a node
drive the NICs concurrently (the usual case when FSDP groups are mapped
across nodes, Fig 4), each GCD sees roughly 1/8 of the node
injection bandwidth.  :meth:`FrontierTopology.effective_specs` is the
one formula for that contention.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class LinkKind(enum.Enum):
    """Classification of the bottleneck link used by a communication."""

    SELF = "self"
    INTRA_NODE = "intra_node"
    INTER_NODE = "inter_node"


@dataclass(frozen=True)
class LinkSpec:
    """Latency (s) and point-to-point bandwidth (B/s) of one link kind."""

    latency_s: float
    bandwidth_Bps: float


@dataclass(frozen=True)
class FrontierTopology:
    """Node-structured two-level topology.

    Parameters
    ----------
    num_gpus:
        Total GCD count; must be a multiple of ``gpus_per_node`` unless
        smaller than one node.
    gpus_per_node:
        GCDs per node (8 on Frontier).
    intra_node:
        Infinity Fabric link spec (default 50 GB/s, 2 us).
    inter_node:
        Slingshot-11 *per-node* injection spec (default 100 GB/s, 10 us).
    """

    num_gpus: int
    gpus_per_node: int = 8
    intra_node: LinkSpec = LinkSpec(latency_s=2e-6, bandwidth_Bps=50e9)
    inter_node: LinkSpec = LinkSpec(latency_s=10e-6, bandwidth_Bps=100e9)

    def __post_init__(self):
        if self.num_gpus < 1:
            raise ValueError("num_gpus must be positive")
        if self.gpus_per_node < 1:
            raise ValueError("gpus_per_node must be positive")
        if self.num_gpus > self.gpus_per_node and self.num_gpus % self.gpus_per_node:
            raise ValueError(
                f"num_gpus={self.num_gpus} is not a whole number of "
                f"{self.gpus_per_node}-GPU nodes"
            )

    # -- structure ---------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of (possibly partial) nodes."""
        return -(-self.num_gpus // self.gpus_per_node)

    def node_of(self, rank: int) -> int:
        """Node index hosting global ``rank``."""
        self._check_rank(rank)
        return rank // self.gpus_per_node

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_gpus:
            raise ValueError(f"rank {rank} out of range [0, {self.num_gpus})")

    # -- link classification -------------------------------------------------
    def link_kind(self, rank_a: int, rank_b: int) -> LinkKind:
        """Classify the link between two ranks."""
        if rank_a == rank_b:
            return LinkKind.SELF
        if self.node_of(rank_a) == self.node_of(rank_b):
            return LinkKind.INTRA_NODE
        return LinkKind.INTER_NODE

    def link_spec(self, kind: LinkKind) -> LinkSpec:
        """Raw link spec for a link kind (SELF has zero latency, inf bandwidth)."""
        if kind is LinkKind.SELF:
            return LinkSpec(latency_s=0.0, bandwidth_Bps=float("inf"))
        if kind is LinkKind.INTRA_NODE:
            return self.intra_node
        return self.inter_node

    def effective_specs(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """Per-rank effective link specs of collectives over each row.

        ``rows`` is an (n_groups, group_size) rank matrix; returns the
        per-row (latency_s, bandwidth_Bps) arrays.  For inter-node
        groups the node injection bandwidth is divided by the number of
        group members sharing each node NIC concurrently (e.g. 8 FSDP
        groups per node each see 1/8 of 100 GB/s); the latency is the
        inter-node latency.  Ranks are not range-checked here
        (:meth:`effective_bandwidth` checks them).
        """
        rows = np.asarray(rows)
        n, g = rows.shape
        if g <= 1:  # SELF links
            return np.zeros(n), np.full(n, np.inf)
        nodes = np.sort(rows // self.gpus_per_node, axis=1)
        inter = nodes[:, -1] > nodes[:, 0]
        # Max ranks sharing one node, per group: the longest run of
        # equal ids in each sorted row — O(n*g) memory, where an
        # all-pairs comparison would need n*g*g.
        position = np.arange(g)
        run_start = np.maximum.accumulate(
            np.where(np.diff(nodes, axis=1, prepend=-1) != 0, position, 0),
            axis=1)
        sharers = (position - run_start).max(axis=1) + 1
        # Concurrent same-shaped groups occupy the remaining GCDs of each
        # node, so a group using m GCDs of a node competes with the
        # gpus_per_node/m sibling groups for the NIC.
        occupancy = min(self.gpus_per_node, self.num_gpus)
        contention = np.maximum(1, occupancy // sharers)
        lat = np.where(inter, self.inter_node.latency_s,
                       self.intra_node.latency_s)
        bw = np.where(inter, self.inter_node.bandwidth_Bps / contention,
                      self.intra_node.bandwidth_Bps)
        return lat, bw

    def effective_bandwidth(self, ranks: Sequence[int]) -> LinkSpec:
        """:meth:`effective_specs` of the one group ``ranks``."""
        for rank in ranks:
            self._check_rank(rank)
        lat, bw = self.effective_specs([list(ranks)])
        return LinkSpec(latency_s=float(lat[0]), bandwidth_Bps=float(bw[0]))
