"""Fig 5 — maximal model size per parallelism vs GPU count.

Paper result (batch 2, 48 channels, 64 GB GCDs): at 512 GPUs FSDP
saturates near 20B parameters (full-model gather), plain tensor
parallelism near 73B (head-count limit), and Hybrid-STOP reaches 143B.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import format_params, format_table
from repro.memory.estimator import MemoryModel, Parallelism
from repro.models.configs import ORBIT_113B, OrbitConfig

DEFAULT_GPU_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

PAPER_ANCHORS_512 = {
    Parallelism.FSDP: 20e9,
    Parallelism.TENSOR: 73e9,
    Parallelism.HYBRID_STOP: 143e9,
}


@dataclass
class Fig5Result:
    """Max fitted parameter count per (parallelism, GPU count)."""

    max_params: dict[Parallelism, dict[int, int]] = field(default_factory=dict)

    def at(self, parallelism: Parallelism, gpus: int) -> int:
        return self.max_params[parallelism][gpus]

    def format(self) -> str:
        gpu_counts = sorted(next(iter(self.max_params.values())))
        headers = ["GPUs"] + [p.value for p in self.max_params]
        rows = [
            [gpus] + [format_params(self.max_params[p][gpus]) for p in self.max_params]
            for gpus in gpu_counts
        ]
        return format_table(headers, rows, title="Fig 5: maximal model size (parameters)")


def run(
    gpu_counts=DEFAULT_GPU_COUNTS,
    template: OrbitConfig = ORBIT_113B,
    micro_batch: int = 2,
) -> Fig5Result:
    """Scan the maximal model size for each parallelism and GPU count."""
    model = MemoryModel()
    result = Fig5Result()
    for parallelism in (Parallelism.FSDP, Parallelism.TENSOR, Parallelism.HYBRID_STOP):
        result.max_params[parallelism] = {
            gpus: model.max_model_size(parallelism, gpus, template, micro_batch)[0]
            for gpus in gpu_counts
        }
    return result
