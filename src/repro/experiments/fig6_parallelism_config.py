"""Fig 6 — walltime and memory vs the (FSDP, tensor) group-size split.

Paper result (113B model, 512 GPUs, DDP=1): the program runs out of
memory with FSDP alone; FSDP=64 x TP=8 is the fastest configuration
(0.33 s per observation at batch 3), about 25x faster than
FSDP=2 x TP=256; memory increases mildly as the FSDP share grows.

The sweep's configuration axis is drawn from the tuner's space
enumeration (:func:`repro.tune.enumerate_space` in relaxed mode — the
Fig 6 regime admits sub-head sharding and node-spanning tensor-parallel
groups), so a factorization this figure skips is skipped for the same
recorded reason ``repro tune`` would report.  Each point is priced by
the closed-form memory and performance models as a
:class:`~repro.memory.estimator.TrainingSetup` in the paper's regime:
bf16 with activation checkpointing, layer wrapping and prefetch.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.experiments.common import format_table
from repro.memory.estimator import Parallelism, TrainingSetup
from repro.models.configs import ORBIT_113B, OrbitConfig
from repro.perf.model import PerformanceModel
from repro.tune.space import TuneRequest, enumerate_space

DEFAULT_TP_SIZES = (1, 2, 8, 32, 64, 128, 256, 512)

#: The paper's operating regime (micro-batches of 2-3): configurations
#: that cannot fit it are the "out of memory" points of Fig 6 — FSDP
#: alone among them.
MIN_MICRO_BATCH = 2


@dataclass
class Fig6Row:
    tp_size: int
    fsdp_size: int
    micro_batch: int
    walltime_per_obs_s: float | None  # None == OOM or invalid
    memory_per_gpu_bytes: float
    note: str = ""

    @property
    def oom(self) -> bool:
        return self.walltime_per_obs_s is None


@dataclass
class Fig6Result:
    rows: list[Fig6Row] = field(default_factory=list)

    def fastest(self) -> Fig6Row:
        viable = [r for r in self.rows if not r.oom]
        if not viable:
            raise RuntimeError("every configuration failed")
        return min(viable, key=lambda r: r.walltime_per_obs_s)

    def row_for(self, tp_size: int) -> Fig6Row:
        for row in self.rows:
            if row.tp_size == tp_size:
                return row
        raise KeyError(f"no row for tp_size={tp_size}")

    def format(self) -> str:
        rows = [
            [
                r.fsdp_size,
                r.tp_size,
                r.micro_batch or "-",
                "OOM" if r.oom else f"{r.walltime_per_obs_s:.2f} s",
                f"{r.memory_per_gpu_bytes / 2**30:.0f} GiB",
                r.note,
            ]
            for r in self.rows
        ]
        return format_table(
            ["FSDP", "TP", "batch", "walltime/obs", "mem/GPU", "note"],
            rows,
            title="Fig 6: 113B hierarchical-parallelism configurations on 512 GPUs",
        )


def run(
    config: OrbitConfig = ORBIT_113B,
    num_gpus: int = 512,
    tp_sizes=DEFAULT_TP_SIZES,
) -> Fig6Result:
    """Sweep the (FSDP, TP) factorizations of a fixed GPU count."""
    pm = PerformanceModel()
    result = Fig6Result()
    # Policy axes pinned to one value each: Fig 6 varies only the
    # (FSDP, TP) split, and the micro-batch comes from the memory model
    # below rather than the enumeration.
    space = enumerate_space(TuneRequest(
        config, num_gpus,
        micro_batches=(1,), recompute_options=(True,), prefetch_options=(True,),
        tp_sizes=tuple(tp for tp in tp_sizes if num_gpus % tp == 0),
        engine_mode=False,
    ))
    legal = {
        (c.tp_size, c.fsdp_size)
        for c in space.candidates
        if c.ddp_size == 1 and c.tp_innermost
    }
    why_rejected = {r.tp_size: r.reason for r in space.rejections}
    for tp in tp_sizes:
        if num_gpus % tp:
            continue
        fsdp = num_gpus // tp
        setup = TrainingSetup(
            config, num_gpus, Parallelism.HYBRID_STOP, tp_size=tp,
            fsdp_size=fsdp, micro_batch=1, bf16=True,
            activation_checkpointing=True,
        )
        if (tp, fsdp) not in legal:
            result.rows.append(Fig6Row(
                tp, fsdp, 0, None,
                pm.memory_model.per_gpu_bytes(setup),
                why_rejected.get(tp, "rejected"),
            ))
            continue
        note = ""
        if tp > config.num_heads:
            note = "sub-head sharding"
        batch = pm.max_micro_batch(setup)
        if batch < MIN_MICRO_BATCH:
            batch = 0
        if batch == 0:
            result.rows.append(
                Fig6Row(tp, fsdp, 0, None, pm.memory_model.per_gpu_bytes(setup), "OOM")
            )
            continue
        setup = dataclasses.replace(setup, micro_batch=batch)
        result.rows.append(
            Fig6Row(
                tp, fsdp, batch,
                pm.time_per_observation(setup),
                pm.memory_model.per_gpu_bytes(setup),
                note,
            )
        )
    return result
