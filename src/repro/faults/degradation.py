"""Non-crash degradations: stragglers as a first-class fault kind.

:class:`SkewedCompute` wraps any compute-time model
(:mod:`repro.parallel.compute`) with per-rank slowdown multipliers — the
whole-run form of straggler injection, used by ``repro trace --skew``
and the health-monitor tests.  The step-windowed form lives in the
:class:`~repro.faults.injector.FaultInjector`
(:data:`~repro.faults.plan.FaultKind.STRAGGLER`).

:func:`seeded_skew_profile` derives the multipliers from a seed, so a
straggler scenario is reproducible across runs from ``(seed, world)``
alone — the fault-model analogue of seeded synthetic batches.
"""

from __future__ import annotations

import numpy as np


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


def seeded_skew_profile(
    seed: int,
    world_size: int,
    num_stragglers: int = 1,
    min_factor: float = 1.2,
    max_factor: float = 2.5,
) -> dict[int, float]:
    """Reproducible straggler profile: rank -> slowdown multiplier.

    Draws ``num_stragglers`` distinct ranks and a slowdown factor per
    rank from ``default_rng(seed)`` — the same arguments always produce
    the same profile, bit for bit, so a skewed run can be named by its
    seed in tests and reports.
    """
    if world_size < 1:
        raise ValueError("world_size must be positive")
    if not 0 <= num_stragglers <= world_size:
        raise ValueError(
            f"num_stragglers {num_stragglers} outside [0, {world_size}]"
        )
    if not 1.0 < min_factor <= max_factor:
        raise ValueError("need 1 < min_factor <= max_factor")
    rng = np.random.default_rng(seed)
    ranks = rng.choice(world_size, size=num_stragglers, replace=False)
    factors = rng.uniform(min_factor, max_factor, size=num_stragglers)
    return {int(r): float(f) for r, f in zip(sorted(ranks), factors)}
