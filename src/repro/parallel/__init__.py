"""The Hybrid-STOP engine over the virtual cluster.

One engine runs every parallelism the paper compares: each baseline
is a grid point of the 4D ``(pp, tp, fsdp, ddp)`` plan, not a
separate system.  Plain FSDP (paper Fig 2) is ``tp=1`` — without
layer wrapping it shows the full-model gather behind its peak-memory
problem; Megatron tensor parallelism is ``fsdp=1``; DDP is
``tp=fsdp=1, ddp=D``; GPipe is ``pp=S, tp=fsdp=ddp=1``, capped by the
layer count (the paper's Sec II point).

* :mod:`repro.parallel.plan` — the hierarchical group layout of paper
  Fig 4 (tensor-parallel in-node, FSDP across nodes, DDP across
  sub-clusters, pipeline stages outermost);
* :mod:`repro.parallel.stages` — pipeline-stage machinery: the
  contiguous partition, 1F1B schedule arithmetic and boundary sends;
* :mod:`repro.parallel.engine` — the Hybrid-STOP training engine
  combining all four axes (PP x TP x FSDP x DDP);
* :mod:`repro.core` — the sharded sublayer modules the engine is
  built from (:class:`~repro.core.hybrid_block.HybridSTOPTrunk` runs a
  bare transformer stack at any ``(tp, fsdp)`` point).
"""

from repro.parallel.compute import ComputeTimeModel, PeakFractionCompute
from repro.parallel.engine import HybridSTOPEngine
from repro.parallel.plan import HybridParallelPlan
from repro.parallel.stages import PipelineLimitError

__all__ = [
    "ComputeTimeModel",
    "HybridParallelPlan",
    "HybridSTOPEngine",
    "PeakFractionCompute",
    "PipelineLimitError",
]
