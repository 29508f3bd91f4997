"""Alpha-beta cost models for ring/tree collectives.

Costs follow the standard LogP-style formulation used to reason about
RCCL/NCCL ring algorithms: a collective over ``g`` ranks moving a
per-rank shard of ``s`` bytes on a link with latency ``alpha`` and
bandwidth ``beta`` costs

* ring all-gather / reduce-scatter:  ``(g-1) * (alpha + s / beta)``
* ring all-reduce:                   ``2 * (g-1) * (alpha + s / beta)``
* binomial-tree broadcast/gather:    ``ceil(log2 g) * (alpha + S / beta)``

where ``S`` is the full buffer and ``s = S / g``.  The link spec comes
from :meth:`~repro.cluster.topology.FrontierTopology.effective_bandwidth`,
so NIC contention between co-located groups is already folded in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.cluster.topology import FrontierTopology, LinkKind, LinkSpec


@dataclass(frozen=True)
class CollectiveCostModel:
    """Maps (collective, group, bytes) to seconds on a topology.

    The effective link spec of a rank group is priced once per distinct
    group and read from the memo by every later collective over it.
    That is safe because the topology is frozen; faults stretch the
    *seconds* afterwards (``injector.before_comm``), never the link spec.
    """

    topology: FrontierTopology
    _specs: dict[tuple[int, ...], LinkSpec] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _spec(self, ranks: Sequence[int]) -> LinkSpec:
        key = tuple(ranks)
        spec = self._specs.get(key)
        if spec is None:
            spec = self._specs[key] = self.topology.effective_bandwidth(key)
        return spec

    @staticmethod
    def _steps(alpha: float, beta: float, steps: int, bytes_per_step: float) -> float:
        if steps <= 0 or bytes_per_step < 0:
            return 0.0
        if math.isinf(beta):
            return steps * alpha
        return steps * (alpha + bytes_per_step / beta)

    @staticmethod
    def _steps_batch(alpha, beta, steps: int, bytes_per_step: float):
        """Vectorized :meth:`_steps` over arrays of link specs.

        ``alpha``/``beta`` are numpy arrays of per-group latency and
        bandwidth; the return value is elementwise identical (same
        float operations, same order) to calling :meth:`_steps` per
        group.  Used by :mod:`repro.cluster.symmetry` to evaluate the
        alpha-beta model across every member of a rank equivalence
        class in one sweep.
        """
        import numpy as np

        alpha = np.asarray(alpha, dtype=float)
        beta = np.asarray(beta, dtype=float)
        if steps <= 0 or bytes_per_step < 0:
            return np.zeros_like(alpha)
        return np.where(np.isinf(beta), steps * alpha,
                        steps * (alpha + bytes_per_step / beta))

    def all_gather(self, ranks: Sequence[int], total_bytes: int) -> float:
        """Ring all-gather producing ``total_bytes`` on every rank."""
        g = len(ranks)
        if g <= 1:
            return 0.0
        spec = self._spec(ranks)
        return self._steps(spec.latency_s, spec.bandwidth_Bps, g - 1, total_bytes / g)

    def reduce_scatter(self, ranks: Sequence[int], total_bytes: int) -> float:
        """Ring reduce-scatter of a ``total_bytes`` buffer (per-rank share out)."""
        return self.all_gather(ranks, total_bytes)

    def all_reduce(self, ranks: Sequence[int], total_bytes: int) -> float:
        """Ring all-reduce (reduce-scatter followed by all-gather)."""
        g = len(ranks)
        if g <= 1:
            return 0.0
        spec = self._spec(ranks)
        return self._steps(spec.latency_s, spec.bandwidth_Bps, 2 * (g - 1), total_bytes / g)

    def broadcast(self, ranks: Sequence[int], total_bytes: int) -> float:
        """Binomial-tree broadcast of the full buffer."""
        g = len(ranks)
        if g <= 1:
            return 0.0
        spec = self._spec(ranks)
        return self._steps(spec.latency_s, spec.bandwidth_Bps, math.ceil(math.log2(g)), total_bytes)

    def gather(self, ranks: Sequence[int], total_bytes: int) -> float:
        """Binomial-tree gather of ``total_bytes`` onto the root."""
        return self.broadcast(ranks, total_bytes)

    def scatter(self, ranks: Sequence[int], total_bytes: int) -> float:
        """Binomial-tree scatter of ``total_bytes`` from the root."""
        return self.broadcast(ranks, total_bytes)

    def all_to_all(self, ranks: Sequence[int], total_bytes: int) -> float:
        """Pairwise-exchange all-to-all; ``total_bytes`` is the per-rank send total."""
        g = len(ranks)
        if g <= 1:
            return 0.0
        spec = self._spec(ranks)
        return self._steps(spec.latency_s, spec.bandwidth_Bps, g - 1, total_bytes / g)

    #: A single inter-node flow is bound by one NIC, not the whole node
    #: injection bandwidth (Frontier has 4x25 GB/s NICs per node).
    NICS_PER_NODE = 4

    def point_to_point(self, src: int, dst: int, nbytes: int) -> float:
        """Single message between two ranks."""
        if src == dst:
            return 0.0
        kind = self.topology.link_kind(src, dst)
        spec = self.topology.link_spec(kind)
        bandwidth = spec.bandwidth_Bps

        if kind is LinkKind.INTER_NODE:
            bandwidth /= self.NICS_PER_NODE
        return self._steps(spec.latency_s, bandwidth, 1, nbytes)
