"""Compute-time models used when engines record work on the timeline."""

from __future__ import annotations

from typing import Protocol

from repro.cluster.cluster import VirtualCluster

#: Sustained fraction of a GCD's fp32 peak that every engine step is
#: priced at.
EFFICIENCY = 0.45


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

    def __init__(self, cluster: VirtualCluster):
        self.cluster = cluster

    def seconds_for(self, flops: float, rank: int) -> float:
        # The device lookup also creates the device touched_devices() reports.
        return flops / (self.cluster.device(rank).peak_flops * EFFICIENCY)

