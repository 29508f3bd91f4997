"""Compute-time models used when engines record work on the timeline."""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.cluster.cluster import VirtualCluster


class ComputeTimeModel(Protocol):
    """Maps FLOPs executed on a rank to seconds."""

    def seconds_for(self, flops: float, rank: int) -> float:  # pragma: no cover
        ...


class PeakFractionCompute:
    """Constant-efficiency model: ``seconds = flops / (peak * efficiency)``.

    The sustained fraction of peak for large GEMMs on MI250X-class GCDs
    is ~40-55%; the perf model (:mod:`repro.perf.model`) refines this
    with batch-dependent efficiency, which matters for the activation-
    checkpointing row of Table I.  Per-rank slowdowns (stragglers) wrap
    it in :class:`repro.faults.degradation.SkewedCompute`.
    """

    def __init__(
        self,
        cluster: VirtualCluster,
        efficiency: float = 0.45,
        dtype=np.float32,
    ):
        if not 0 < efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")
        self.cluster = cluster
        self.efficiency = efficiency
        self.dtype = np.dtype(dtype)

    def seconds_for(self, flops: float, rank: int) -> float:
        peak = self.cluster.device(rank).peak_flops_for(self.dtype)
        return flops / (peak * self.efficiency)

