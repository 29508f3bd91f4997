"""Streaming anomaly detectors over per-step metric timeseries.

The post-hoc :mod:`repro.obs.health` checks ask "is this one step
imbalanced?"; the detectors here ask "is this run *degrading*?" — a
question that only makes sense against history.  Each
:class:`AlertRule` watches one series in a
:class:`~repro.obs.timeseries.TimeseriesStore` and fires when the rule
is violated for ``sustain`` consecutive observed steps:

``threshold``
    The value crosses a fixed limit (``direction`` above/below) —
    e.g. straggler excess over 10%, goodput fraction under 90%.
``zscore``
    The value deviates from the series' EWMA mean by more than
    ``threshold`` EW standard deviations — drift relative to the run's
    own recent regime, after a ``warmup`` of observations establishes
    one.  The z-score is evaluated against the statistics *before* the
    current point is folded in, so the anomaly can't dilute its own
    baseline.

Alerts are the existing :class:`~repro.obs.health.Finding` type:
``warning`` when a violation first sustains, escalated once to
``critical`` if it persists ``escalate``× longer.  Everything is pure
arithmetic on recorded values — given a seeded run, the alert stream
is deterministic, and the clean-run case (bitwise-identical steps,
hence zero deviation) produces zero alerts by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs.health import MEMORY_WATERMARK_FRAC, STRAGGLER_FRAC, Finding
from repro.obs.timeseries import TimeseriesStore

#: Supported rule kinds / directions (validated in ``AlertRule``).
RULE_KINDS = ("threshold", "zscore")
DIRECTIONS = ("above", "below")


@dataclass(frozen=True)
class AlertRule:
    """One detector: a metric, a test, and a persistence requirement."""

    #: Series name in the timeseries store (e.g. ``step.time_s``).
    metric: str
    #: Finding category emitted on violation (e.g. ``step_time_drift``).
    detector: str
    kind: str = "threshold"
    #: Fixed limit for ``threshold`` rules; z-score limit for ``zscore``.
    threshold: float = 0.0
    direction: str = "above"
    #: Consecutive violating steps before the first alert fires.
    sustain: int = 1
    #: ``zscore`` only: observations needed before the rule is live.
    warmup: int = 8
    #: Violation streak length (in multiples of ``sustain``) at which a
    #: second, ``critical`` alert fires.  ``0`` disables escalation.
    escalate: float = 2.0

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"rule kind {self.kind!r} not in {RULE_KINDS}")
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"rule direction {self.direction!r} not in {DIRECTIONS}"
            )
        if self.sustain < 1:
            raise ValueError(f"sustain {self.sustain} must be >= 1")
        if self.kind == "zscore" and self.threshold <= 0.0:
            raise ValueError("zscore rules need a positive threshold")

    def as_dict(self) -> dict:
        return {
            "metric": self.metric,
            "detector": self.detector,
            "kind": self.kind,
            "threshold": self.threshold,
            "direction": self.direction,
            "sustain": self.sustain,
            "warmup": self.warmup,
            "escalate": self.escalate,
        }


def default_rules() -> tuple[AlertRule, ...]:
    """The stock detector set for a monitored run.

    Threshold rules reuse the post-hoc health limits
    (:data:`~repro.obs.health.STRAGGLER_FRAC`,
    :data:`~repro.obs.health.MEMORY_WATERMARK_FRAC`); drift rules are
    z-score against the run's own EWMA regime so they need no absolute
    calibration.
    """
    return (
        AlertRule(metric="step.time_s", detector="step_time_drift",
                  kind="zscore", threshold=4.0, sustain=3, warmup=8),
        AlertRule(metric="step.exposed_comm_ratio",
                  detector="exposed_comm_regression",
                  kind="zscore", threshold=4.0, sustain=3, warmup=8),
        AlertRule(metric="step.straggler_excess", detector="straggler",
                  kind="threshold", threshold=STRAGGLER_FRAC, sustain=2),
        AlertRule(metric="memory.peak_fraction",
                  detector="memory_watermark_creep",
                  kind="threshold", threshold=MEMORY_WATERMARK_FRAC,
                  sustain=1),
        AlertRule(metric="goodput.fraction", detector="goodput_decay",
                  kind="threshold", threshold=0.90, direction="below",
                  sustain=2),
        # Only published under the Supervisor's degradation-aware
        # accounting (the metric is absent otherwise, so the rule is
        # inert for every default run): sustained slowdown surcharge —
        # the signal the replan controller acts on.
        AlertRule(metric="goodput.degraded_fraction",
                  detector="degraded_goodput",
                  kind="threshold", threshold=0.05, sustain=2),
    )


class _RuleState:
    """Mutable per-rule streak bookkeeping."""

    __slots__ = ("streak", "alerted", "escalated")

    def __init__(self):
        self.streak = 0        # consecutive violating observations
        self.alerted = False   # warning already emitted for this streak
        self.escalated = False # critical already emitted for this streak


class DetectorBank:
    """Evaluate a set of :class:`AlertRule` against incoming samples.

    Call :meth:`observe` once per step *before* the samples are
    appended to the store (z-score baselines must exclude the point
    under test); the caller then records the samples.  Returned
    findings carry the detector name as ``category`` and the violating
    step in ``ranks`` is left empty — step attribution lives in the
    journal entry that wraps the finding.
    """

    def __init__(self, rules: tuple[AlertRule, ...] | None = None):
        self.rules = tuple(rules if rules is not None else default_rules())
        seen = set()
        for rule in self.rules:
            key = (rule.metric, rule.detector)
            if key in seen:
                raise ValueError(f"duplicate rule for {key}")
            seen.add(key)
        self._state = {id(rule): _RuleState() for rule in self.rules}

    def _violates(self, rule: AlertRule, value: float,
                  store: TimeseriesStore) -> tuple[bool, float, float]:
        """(violating?, measured value, effective limit) for one sample."""
        if rule.kind == "threshold":
            if rule.direction == "above":
                return value > rule.threshold, value, rule.threshold
            return value < rule.threshold, value, rule.threshold
        # zscore: deviation from the EWMA regime *before* this point.
        if rule.metric not in store:
            return False, 0.0, rule.threshold
        stats = store.series(rule.metric).stats
        if stats.count < rule.warmup:
            return False, 0.0, rule.threshold
        deviation = value - stats.ewma
        if rule.direction == "above" and deviation <= 0.0:
            return False, 0.0, rule.threshold
        if rule.direction == "below" and deviation >= 0.0:
            return False, 0.0, rule.threshold
        spread = stats.ewstd
        if spread == 0.0:
            # A bitwise-steady regime: any deviation at all is an
            # infinite-sigma event, no deviation is a zero-sigma one.
            z = math.inf if deviation != 0.0 else 0.0
        else:
            z = abs(deviation) / spread
        return z > rule.threshold, z, rule.threshold

    def observe(self, step: int, values: dict[str, float],
                store: TimeseriesStore) -> list[Finding]:
        """Evaluate every rule against one step's samples.

        Must run before ``store.record(step, values)`` for this step.
        """
        findings: list[Finding] = []
        for rule in self.rules:
            if rule.metric not in values:
                continue
            state = self._state[id(rule)]
            violating, measured, limit = self._violates(
                rule, float(values[rule.metric]), store
            )
            if not violating:
                state.streak = 0
                state.alerted = False
                state.escalated = False
                continue
            state.streak += 1
            finding = None
            if not state.alerted and state.streak >= rule.sustain:
                state.alerted = True
                finding = Finding(
                    category=rule.detector,
                    severity="warning",
                    message=(
                        f"{rule.metric} {rule.kind} violation at step {step}: "
                        f"{measured:.6g} vs limit {limit:.6g} "
                        f"({rule.direction}, sustained {state.streak} step(s))"
                    ),
                    value=measured,
                    threshold=limit,
                )
            elif (
                state.alerted
                and not state.escalated
                and rule.escalate > 0.0
                and state.streak >= math.ceil(rule.sustain * rule.escalate)
            ):
                state.escalated = True
                finding = Finding(
                    category=rule.detector,
                    severity="critical",
                    message=(
                        f"{rule.metric} {rule.kind} violation persists at "
                        f"step {step}: {measured:.6g} vs limit {limit:.6g} "
                        f"({state.streak} consecutive step(s)); escalating"
                    ),
                    value=measured,
                    threshold=limit,
                )
            if finding is not None:
                findings.append(finding)
        return findings
