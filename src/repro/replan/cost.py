"""What a live plan switch costs, priced from the run's own history.

A migration is: sharded checkpoint save -> session rebuild (elastic
regroup of the collective groups) -> warm-up of the new plan.  Each
component is priced from :class:`~repro.faults.goodput.GoodputLedger`
history when the run has already paid for one (average realized cost
beats any configured constant), falling back to the Supervisor's
configured cost-model charges otherwise:

* checkpoint: ``ledger.checkpoint_s / ledger.checkpoints`` — the
  realized cost of the periodic durable checkpoints;
* rebuild: ``ledger.lost_restart_s / ledger.restarts`` — the realized
  incarnation-restart latency (scheduler requeue, process spawn,
  archive load), which is exactly what a rebuild-and-resume pays;
* warm-up: a configured surcharge for the new plan's first step
  (gather-path cache warm, overlap budgets resetting).

The resulting total feeds the controller's break-even test: a switch
only happens when the projected goodput gain over the remaining
horizon clears ``total_s`` by the hysteresis margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class MigrationCostModel:
    """Priced components of one live plan migration."""

    checkpoint_s: float
    rebuild_s: float
    warmup_s: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(s) and s >= 0
                   for s in (self.checkpoint_s, self.rebuild_s, self.warmup_s)):
            raise ValueError(
                "migration cost components must be finite and non-negative"
            )

    @property
    def total_s(self) -> float:
        return self.checkpoint_s + self.rebuild_s + self.warmup_s

    def as_dict(self) -> dict:
        return {
            "checkpoint_s": self.checkpoint_s,
            "rebuild_s": self.rebuild_s,
            "warmup_s": self.warmup_s,
            "total_s": self.total_s,
        }

    @classmethod
    def from_ledger(
        cls,
        ledger,
        checkpoint_cost_s: float,
        restart_latency_s: float,
        warmup_s: float = 0.0,
    ) -> "MigrationCostModel":
        """Realized average costs where history exists, configured
        charges where it does not."""
        checkpoint = (
            ledger.checkpoint_s / ledger.checkpoints
            if ledger.checkpoints
            else checkpoint_cost_s
        )
        rebuild = (
            ledger.lost_restart_s / ledger.restarts
            if ledger.restarts
            else restart_latency_s
        )
        return cls(checkpoint_s=checkpoint, rebuild_s=rebuild,
                   warmup_s=warmup_s)
