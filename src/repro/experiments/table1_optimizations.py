"""Table I — optimization ablation for the 113B model on 512 GPUs.

Paper values (walltime per 48-channel observation data point):

=====================  =========
configuration          walltime
=====================  =========
none                   OOM
+ layer wrapping       0.97 s
+ mixed precision      0.49 s
+ prefetching          0.40 s
+ activation ckpt      0.17 s
=====================  =========

The micro-batch of each row is the largest that fits (checkpointing's
win comes from tripling it).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.experiments.common import format_table
from repro.memory.estimator import Parallelism, TrainingSetup
from repro.models.configs import ORBIT_113B, OrbitConfig
from repro.perf.model import PerformanceModel

PAPER_WALLTIMES = ("OOM", 0.97, 0.49, 0.40, 0.17)


@dataclass
class Table1Row:
    name: str
    layer_wrapping: bool
    mixed_precision: bool
    prefetching: bool
    activation_checkpointing: bool
    micro_batch: int
    walltime_per_obs_s: float | None  # None == OOM

    @property
    def oom(self) -> bool:
        return self.walltime_per_obs_s is None


@dataclass
class Table1Result:
    rows: list[Table1Row] = field(default_factory=list)

    def walltimes(self) -> list[float | None]:
        return [row.walltime_per_obs_s for row in self.rows]

    def format(self) -> str:
        mark = lambda b: "yes" if b else "-"
        rows = [
            [
                row.name,
                mark(row.layer_wrapping),
                mark(row.mixed_precision),
                mark(row.prefetching),
                mark(row.activation_checkpointing),
                row.micro_batch,
                "OOM" if row.oom else f"{row.walltime_per_obs_s:.2f} s",
            ]
            for row in self.rows
        ]
        return format_table(
            ["config", "wrap", "bf16", "prefetch", "ckpt", "batch", "walltime/obs"],
            rows,
            title="Table I: 113B walltime per observation on 512 GPUs",
        )


def run(
    config: OrbitConfig = ORBIT_113B,
    num_gpus: int = 512,
    tp_size: int = 8,
    fsdp_size: int = 64,
) -> Table1Result:
    """Reproduce the five-column ablation."""
    pm = PerformanceModel()
    toggles = [
        ("none", dict(layer_wrapping=False, bf16=False, prefetch=False,
                      activation_checkpointing=False)),
        ("+wrap", dict(layer_wrapping=True, bf16=False, prefetch=False,
                       activation_checkpointing=False)),
        ("+bf16", dict(layer_wrapping=True, bf16=True, prefetch=False,
                       activation_checkpointing=False)),
        ("+prefetch", dict(layer_wrapping=True, bf16=True, prefetch=True,
                           activation_checkpointing=False)),
        ("+ckpt", dict(layer_wrapping=True, bf16=True, prefetch=True,
                       activation_checkpointing=True)),
    ]
    result = Table1Result()
    for name, opts in toggles:
        setup = TrainingSetup(
            config, num_gpus, Parallelism.HYBRID_STOP, tp_size=tp_size,
            fsdp_size=fsdp_size, micro_batch=1, **opts,
        )
        # The paper's ablation holds the micro-batch at 1 until
        # activation checkpointing frees the memory for a larger one
        # (its walltime sequence halves exactly with mixed precision,
        # which only happens at constant batch).
        if opts["activation_checkpointing"]:
            batch = pm.max_micro_batch(setup)
        else:
            batch = 1 if pm.fits(setup) else 0
        if batch == 0:
            result.rows.append(
                Table1Row(name, opts["layer_wrapping"], opts["bf16"], opts["prefetch"],
                          opts["activation_checkpointing"], 0, None)
            )
            continue
        setup = dataclasses.replace(setup, micro_batch=batch)
        walltime = pm.time_per_observation(setup)
        result.rows.append(
            Table1Row(name, opts["layer_wrapping"], opts["bf16"], opts["prefetch"],
                      opts["activation_checkpointing"], batch, walltime)
        )
    return result
