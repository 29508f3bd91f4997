"""The serving policy: every knob of the front-end in one frozen record.

Mirrors the training stack's split between *identity* and *policy*:
none of these knobs change what a forecast **is** (served responses
are bitwise-equal to direct :class:`~repro.eval.rollout.
RolloutForecaster` output under every setting) — they change queueing,
batching, caching, and scaling behaviour, i.e. *when* a response
arrives and what it costs.  The knobs and their legality rules are
spelled once, here; ``repro serve`` builds a :class:`ServePolicy` from
its flags and exits 2 with the constructor's message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ServePolicy:
    """Queue/batcher/cache/autoscaler configuration for one deployment.

    Construction raises ``ValueError`` naming every invalid knob; a
    float knob must also be finite.
    """

    #: Dynamic micro-batching: coalesce up to ``max_batch`` compatible
    #: requests, waiting at most ``batch_window_s`` after the first.
    max_batch: int = 8
    batch_window_s: float = 0.005
    #: Admission control: requests beyond this many waiting (in batcher
    #: groups or ready batches) are rejected instead of queued.
    queue_limit: int = 256
    #: Rollout prefix cache capacity, in synoptic windows (0 disables).
    cache_entries: int = 32
    #: Replica-pool bounds for the autoscaler.
    min_replicas: int = 1
    max_replicas: int = 4
    #: Autoscaler cadence and objectives.
    autoscale_tick_s: float = 0.25
    target_p99_s: float = 0.25
    queue_high: int = 16
    utilization_low: float = 0.30
    cooldown_s: float = 0.5

    def __post_init__(self):
        def rule(name: str, ok: bool, requirement: str) -> str | None:
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                return f"invalid serve {name} {value}: must be finite"
            return None if ok else f"invalid serve {name} {value}: {requirement}"

        problems = [
            rule("max_batch", self.max_batch >= 1, "must be >= 1"),
            rule("batch_window_s", self.batch_window_s >= 0, "must be >= 0"),
            rule("queue_limit", self.queue_limit >= 1, "must be >= 1"),
            rule("cache_entries", self.cache_entries >= 0, "must be >= 0"),
            rule("min_replicas", self.min_replicas >= 1, "must be >= 1"),
            None if self.max_replicas >= self.min_replicas else (
                f"invalid serve replica bounds: max {self.max_replicas} < "
                f"min {self.min_replicas}"
            ),
            rule("autoscale_tick_s", self.autoscale_tick_s > 0, "must be > 0"),
            rule("target_p99_s", self.target_p99_s > 0, "must be > 0"),
            rule("queue_high", self.queue_high >= 1, "must be >= 1"),
            rule("utilization_low", 0 <= self.utilization_low <= 1,
                 "must be in [0, 1]"),
            rule("cooldown_s", self.cooldown_s >= 0, "must be >= 0"),
        ]
        problems = [problem for problem in problems if problem]
        if problems:
            raise ValueError("; ".join(problems))
