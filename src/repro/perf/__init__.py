"""Performance accounting: scaling metrics and the walltime model."""

from repro.perf.metrics import scaling_efficiency
from repro.perf.model import PerfConstants, PerformanceModel, StepTimeBreakdown

__all__ = [
    "PerfConstants",
    "PerformanceModel",
    "StepTimeBreakdown",
    "scaling_efficiency",
]
