"""Virtual GPU devices.

A :class:`VirtualGPU` stands in for one Frontier MI250X GCD: 64 GB of
HBM (tracked by a :class:`~repro.memory.tracker.MemoryTracker`) and a
sustained matrix-engine throughput used by the performance model.  The
throughput defaults follow the MI250X datasheet derated to the
sustained efficiency observed for large GEMMs (the calibration note in
:mod:`repro.perf.model` explains the derating).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware import MI250X_GCD_MEMORY_BYTES, MI250X_GCD_PEAK_FP32
from repro.memory.tracker import MemoryTracker


@dataclass
class VirtualGPU:
    """One simulated GPU (GCD).

    Parameters
    ----------
    rank:
        Global rank of the device in its cluster.
    memory_capacity:
        HBM size in bytes (default 64 GB, matching Frontier).
    peak_flops:
        Peak fp32 matrix throughput, FLOP/s (every step is priced in
        fp32).
    """

    rank: int
    memory_capacity: int = MI250X_GCD_MEMORY_BYTES
    peak_flops: float = MI250X_GCD_PEAK_FP32
    memory: MemoryTracker = field(init=False)

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        self.memory = MemoryTracker(self.memory_capacity, name=f"gpu{self.rank}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualGPU(rank={self.rank}, {self.memory!r})"
