"""Non-crash degradations: stragglers as a first-class fault kind.

:class:`SkewedCompute` wraps any compute-time model
(:mod:`repro.parallel.compute`) with the per-rank slowdown multipliers
of ``RunSpec.compute_skew`` — the whole-run form of straggler
injection, set by ``--skew``.  The step-windowed form lives in the
:class:`~repro.faults.injector.FaultInjector`
(:data:`~repro.faults.plan.FaultKind.STRAGGLER`), set by fault plans.
"""

from __future__ import annotations


class SkewedCompute:
    """Per-rank slowdown wrapper around any compute-time model.

    Multiplies the base model's seconds by a rank-specific factor —
    the controlled way to inject stragglers (a flaky GCD, a thermally
    throttled node) into a simulated run, used by the health-monitor
    tests and a traced ``RunSpec(compute_skew=...)``.
    """

    def __init__(self, base, multipliers: dict[int, float]):
        for rank, factor in multipliers.items():
            if factor <= 0:
                raise ValueError(f"skew multiplier for rank {rank} must be positive")
        self.base = base
        self.multipliers = dict(multipliers)

    def seconds_for(self, flops: float, rank: int) -> float:
        return self.base.seconds_for(flops, rank) * self.multipliers.get(rank, 1.0)

