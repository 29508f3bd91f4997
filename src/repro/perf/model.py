"""Analytic walltime model for large-scale training steps.

Estimates one bulk-synchronous training step of a
:class:`~repro.memory.estimator.TrainingSetup` on a Frontier-like
machine, from four structural components:

* **compute** — the per-rank FLOPs (trunk tensor-parallel sharded, the
  dense front replicated), divided by the sustained matrix throughput;
* **shard gathers** — the FSDP all-gathers of each layer's
  tensor-parallel shard (forward + backward re-gather + gradient
  reduce-scatter: 3x the layer shard per step), over the inter-node
  links with NIC contention; hidden under compute when prefetching;
* **tensor-parallel all-reduces** — activation reductions per sublayer
  over the in-node fabric;
* **DDP gradient reduction** — once per step over replica leads.

Calibration constants (documented on :class:`PerfConstants`) are fixed
against two anchors of the paper: the Table I optimization ablation
(113B, 512 GPUs) and the Fig 7 time-to-solution/throughput points at
49,152 GPUs.  Everything else — who wins, crossovers, channel and
model-size trends — follows from structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.cluster.costmodel import CollectiveCostModel
from repro.hardware import MI250X_GCD_PEAK_FP32
from repro.cluster.topology import FrontierTopology
from repro.memory.estimator import MemoryModel, Parallelism, TrainingSetup
from repro.models.flops import forward_flops_per_sample, parameter_breakdown


@dataclass(frozen=True)
class PerfConstants:
    """Calibrated machine constants.

    The four anchors used for calibration are Table I's first two rows
    (0.97 s fp32 / 0.49 s bf16 per observation for the 113B model on
    512 GPUs) and Fig 7's 49,152-GPU points (3e-3 s per observation at
    684 PFLOPS for 113B, ~1e-4 s at 1.6 EFLOPS for 10B).

    sustained_fraction_fp32:
        Fraction of the GCD fp32 matrix peak sustained on large GEMMs.
        BF16 sustains exactly twice the fp32 *rate* — the paper's 2x
        end-to-end mixed-precision gain (hardware peak is 4x, but
        memory-bound epilogues halve the realizable gain).
    batch_efficiency_halfpoint:
        GEMM efficiency rises with per-rank micro-batch as
        ``b / (b + halfpoint)`` — why activation checkpointing, which
        buys a 3x larger micro-batch, wins far more than its 33%
        recompute cost (Table I's last column).
    network_efficiency:
        Fraction of link bandwidth RCCL sustains.
    prefetch_overlap_fraction:
        Share of compute time that prefetched gathers can hide under
        (per-layer granularity keeps it well below 1).
    congestion_per_doubling:
        Inter-node bandwidth derate per doubling of the world size
        beyond 512 GPUs (fabric congestion at scale; produces the
        efficiency falloff of Fig 7).
    front_unsharded_fraction:
        Fraction of the non-trunk (embedding front) compute that stays
        replicated across tensor-parallel ranks.
    """

    sustained_fraction_fp32: float = 0.86
    batch_efficiency_halfpoint: float = 0.715
    network_efficiency: float = 0.29
    prefetch_overlap_fraction: float = 0.6
    congestion_per_doubling: float = 0.15
    front_unsharded_fraction: float = 0.02

    def sustained_flops(self, bf16: bool, micro_batch: int) -> float:
        batch_eff = micro_batch / (micro_batch + self.batch_efficiency_halfpoint)
        fp32_rate = MI250X_GCD_PEAK_FP32 * self.sustained_fraction_fp32 * batch_eff
        return 2.0 * fp32_rate if bf16 else fp32_rate

    def congestion_factor(self, num_gpus: int) -> float:
        """Bandwidth divisor for worlds larger than the 512-GPU baseline."""
        if num_gpus <= 512:
            return 1.0
        return 1.0 + self.congestion_per_doubling * math.log2(num_gpus / 512)


@dataclass(frozen=True)
class StepTimeBreakdown:
    """Seconds per training step, by component."""

    compute_s: float
    gather_s: float
    exposed_gather_s: float
    tp_allreduce_s: float
    ddp_allreduce_s: float
    observations_per_step: int
    flops_per_step: float

    @property
    def step_s(self) -> float:
        return self.compute_s + self.exposed_gather_s + self.tp_allreduce_s + self.ddp_allreduce_s

    @property
    def time_per_observation_s(self) -> float:
        return self.step_s / self.observations_per_step

    @property
    def sustained_flops(self) -> float:
        return self.flops_per_step / self.step_s


class PerformanceModel:
    """Walltime/throughput estimates for training setups at scale."""

    #: GCDs per Frontier node.
    gpus_per_node = 8

    def __init__(self):
        self.constants = PerfConstants()
        self.memory_model = MemoryModel()

    # -- plumbing ------------------------------------------------------------
    def _cost_model(self, num_gpus: int) -> CollectiveCostModel:
        eff = self.constants.network_efficiency
        congestion = self.constants.congestion_factor(num_gpus)
        # the topology's default links, derated by RCCL and congestion
        intra, inter = FrontierTopology.intra_node, FrontierTopology.inter_node
        topo = FrontierTopology(
            num_gpus=max(num_gpus, 1),
            gpus_per_node=min(self.gpus_per_node, max(num_gpus, 1)),
            intra_node=replace(intra, bandwidth_Bps=intra.bandwidth_Bps * eff),
            inter_node=replace(
                inter, bandwidth_Bps=inter.bandwidth_Bps * eff / congestion),
        )
        return CollectiveCostModel(topo)

    @staticmethod
    def _replica_grid(setup: TrainingSetup) -> tuple[int, int, int]:
        """(K, F, D) for the setup; DDP fills whatever GPUs remain."""
        K, F = max(1, setup.tp_size), max(1, setup.fsdp_size)
        D = max(1, setup.num_gpus // (K * F))
        return K, F, D

    # -- main estimate ---------------------------------------------------------
    def step_time(self, setup: TrainingSetup, tp_in_node: bool = True) -> StepTimeBreakdown:
        """One training step; raises nothing for OOM (see ``fits``).

        ``tp_in_node`` selects the paper's Fig 4 placement (tensor-
        parallel groups on consecutive in-node ranks, FSDP strided
        across nodes); ``False`` inverts it — the hierarchy ablation.
        """
        cfg = setup.config
        K, F, D = self._replica_grid(setup)
        b = setup.micro_batch
        item = setup.buffer_itemsize
        cost = self._cost_model(setup.num_gpus)

        breakdown = parameter_breakdown(cfg)
        trunk_params = breakdown["blocks"]
        layer_params = trunk_params / cfg.depth

        # FLOPs: forward * (3 without recompute, 4 with).  Both trunk and
        # front are tensor-parallel sharded except a small replicated
        # residue (layer norms, reshapes, elementwise work).
        fwd = forward_flops_per_sample(cfg)
        passes = 4.0 if setup.activation_checkpointing else 3.0
        residue = self.constants.front_unsharded_fraction
        per_rank_flops = passes * fwd * b * ((1 - residue) / K + residue)
        sustained = self.constants.sustained_flops(setup.bf16, b)
        compute_s = per_rank_flops / sustained

        # FSDP shard gathers: forward gather + backward re-gather +
        # gradient reduce-scatter = 3x one layer's TP shard per layer.
        gather_s = 0.0
        if F > 1:
            shard_bytes = layer_params * item / K
            if tp_in_node:
                fsdp_ranks = list(range(0, F * K, K))  # strided across nodes
            else:
                fsdp_ranks = list(range(F))  # consecutive (inverted mapping)
            per_gather = cost.all_gather(fsdp_ranks, shard_bytes)
            gathers_per_step = 3 * cfg.depth
            if not setup.layer_wrapping:
                # One monolithic gather of everything, same total bytes but
                # fewer latency terms; bandwidth-bound so nearly identical.
                per_gather = cost.all_gather(fsdp_ranks, shard_bytes * cfg.depth)
                gathers_per_step = 3
            gather_s = per_gather * gathers_per_step
        # The backward gradient reduce-scatter (one of the three shard
        # movements) is on the critical path and cannot be prefetched.
        reduce_scatter_s = gather_s / 3.0
        prefetchable_s = gather_s - reduce_scatter_s
        if setup.prefetch:
            hideable = self.constants.prefetch_overlap_fraction * compute_s
            exposed_gather_s = reduce_scatter_s + max(0.0, prefetchable_s - hideable)
        else:
            exposed_gather_s = gather_s

        # Tensor-parallel activation all-reduces: 2 sublayers x (fwd + bwd).
        tp_s = 0.0
        if K > 1:
            act_bytes = b * cfg.num_patches * cfg.embed_dim * item
            if tp_in_node:
                tp_ranks = list(range(K))  # consecutive: in-node fabric
            else:
                tp_ranks = list(range(0, K * F, F))  # strided across nodes
            tp_s = 4 * cfg.depth * cost.all_reduce(tp_ranks, act_bytes)
            if K > cfg.num_heads:
                # Sub-head sharding (Hybrid-STOP beyond the head limit)
                # all-reduces the partial attention scores — a
                # b x H x L^2 buffer per layer in forward and backward.
                # This is what makes extreme tensor-parallel degrees
                # (Fig 6's FSDP=2 / TP=256 point) so slow.
                subgroup = list(range(max(1, K // cfg.num_heads)))
                score_bytes = b * cfg.num_heads * cfg.num_patches**2 * item
                tp_s += 2 * cfg.depth * cost.all_reduce(subgroup, score_bytes)

        # DDP gradient reduction: each rank's gradient shard, once per step.
        ddp_s = 0.0
        if D > 1:
            grad_bytes = (trunk_params / (K * F)) * item
            stride = K * F
            ddp_ranks = list(range(0, D * stride, stride))
            ddp_s = cost.all_reduce(ddp_ranks, grad_bytes)

        obs_per_step = b * F * D
        flops_per_step = passes * fwd * b * F * D
        return StepTimeBreakdown(
            compute_s=compute_s,
            gather_s=gather_s,
            exposed_gather_s=exposed_gather_s,
            tp_allreduce_s=tp_s,
            ddp_allreduce_s=ddp_s,
            observations_per_step=obs_per_step,
            flops_per_step=flops_per_step,
        )

    def fits(self, setup: TrainingSetup) -> bool:
        """Whether the setup fits device memory (delegates to the estimator)."""
        return self.memory_model.fits(setup)

    def time_per_observation(self, setup: TrainingSetup) -> float:
        """Seconds of walltime per observation data point."""
        return self.step_time(setup).time_per_observation_s

    def max_micro_batch(self, setup: TrainingSetup, limit: int = 64) -> int:
        """Largest micro-batch that fits device memory (0 if none)."""
        best = 0
        for b in range(1, limit + 1):
            if self.memory_model.fits(replace(setup, micro_batch=b)):
                best = b
            else:
                break
        return best
