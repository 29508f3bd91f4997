"""Fig 7 — strong scaling from 512 to 49,152 GPUs.

Paper result: all four model sizes keep 44-82% (48 channels) and
41-85% (91 channels) strong-scaling efficiency at 49,152 GPUs relative
to the 512-GPU baseline; the 113B model processes a 48-channel
observation in 3e-3 s (684 PFLOPS sustained) and the 10B model in
~1e-4 s (1.6 EFLOPS); 91-channel observations cost more.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.experiments.common import format_seconds, format_table
from repro.memory.estimator import Parallelism, TrainingSetup
from repro.models.configs import PAPER_MODELS, OrbitConfig
from repro.perf.metrics import scaling_efficiency
from repro.perf.model import PerformanceModel
from repro.utils.units import format_flops

DEFAULT_GPU_COUNTS = (512, 1024, 2048, 4096, 8192, 16384, 49152)

#: Per-model replica shapes (tensor-parallel in-node; FSDP spanning what
#: the persistent state needs).
REPLICA_SHAPES = {
    "orbit-115m": (1, 4),
    "orbit-1b": (2, 8),
    "orbit-10b": (8, 8),
    "orbit-113b": (8, 64),
}

#: Bound on the per-rank batch: global-batch constraints keep it modest
#: on the real system even where memory would allow more.
MICRO_BATCH_CAP = 8


@dataclass
class ScalingPoint:
    gpus: int
    time_per_obs_s: float
    efficiency: float
    sustained_flops: float


@dataclass
class Fig7Result:
    """``points[model_name][gpus]`` for one channel count."""

    channels: int
    points: dict[str, dict[int, ScalingPoint]] = field(default_factory=dict)

    def format(self) -> str:
        rows = []
        for name, series in self.points.items():
            for gpus, point in sorted(series.items()):
                rows.append(
                    [
                        name,
                        gpus,
                        format_seconds(point.time_per_obs_s),
                        f"{point.efficiency:.0%}",
                        format_flops(point.sustained_flops),
                    ]
                )
        return format_table(
            ["model", "GPUs", "T (s/obs)", "E", "sustained"],
            rows,
            title=f"Fig 7: strong scaling, {self.channels} channels",
        )


def run(
    channels: int = 48,
    gpu_counts=DEFAULT_GPU_COUNTS,
    models: dict[str, OrbitConfig] | None = None,
) -> Fig7Result:
    """Strong-scaling sweep for every paper model size at one channel count."""
    pm = PerformanceModel()
    models = models or PAPER_MODELS
    result = Fig7Result(channels=channels)
    baseline_gpus = min(gpu_counts)
    for name, base_config in models.items():
        config = base_config.with_channels(channels, out_vars=channels)
        tp, fsdp = REPLICA_SHAPES.get(name, (8, 8))
        # The replica shape is fixed; the DDP axis is what the world
        # size leaves at each scaling point.
        setup0 = TrainingSetup(
            config, baseline_gpus, Parallelism.HYBRID_STOP, tp_size=tp,
            fsdp_size=fsdp, micro_batch=1, bf16=True,
            activation_checkpointing=True,
        )
        batch = min(MICRO_BATCH_CAP, max(1, pm.max_micro_batch(setup0)))
        series: dict[int, ScalingPoint] = {}
        base_time = None
        for gpus in sorted(gpu_counts):
            setup = dataclasses.replace(setup0, num_gpus=gpus, micro_batch=batch)
            step = pm.step_time(setup)
            t = step.time_per_observation_s
            if base_time is None:
                base_time = t
            series[gpus] = ScalingPoint(
                gpus=gpus,
                time_per_obs_s=t,
                efficiency=scaling_efficiency(baseline_gpus, base_time, gpus, t),
                sustained_flops=step.sustained_flops,
            )
        result.points[name] = series
    return result
