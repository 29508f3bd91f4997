"""Goodput accounting: what recovery actually costs.

*Throughput* is observations per second of busy time; *goodput* is
observations per second of total walltime, where the total includes
every second recovery burned.  The :class:`GoodputLedger` charges each
recovery path of the supervisor to its own bucket:

``retry``
    Wasted attempt time plus exponential-backoff delays plus the
    timeout-detection window, for transient faults retried in place.
``rollback``
    Committed-but-uncheckpointed step time lost at a crash, plus the
    partial attempt that died, plus the re-execution of those steps.
    (Re-executed steps count as useful when they commit again — the
    *original* executions are the ones the crash destroyed.)
``restart``
    Fixed restart latency per incarnation (scheduler requeue, process
    spawn, checkpoint load).
``skipped``
    Steps whose update the grad scaler rejected (NaN/inf gradients):
    full step cost, zero useful progress.
``checkpoint``
    Time spent writing checkpoints — the insurance premium.
``degraded``
    Opt-in (the Supervisor's ``degradation_aware`` mode): the *excess*
    seconds a step spent over the run's own clean-step baseline while a
    straggler / link-degradation window was active.  The step still
    commits — only the slowdown surcharge is charged here.
``replan``
    Mid-run plan-migration time (pre-migration checkpoint, session
    rebuild, warm-up).  Neither useful work nor a rollback: the run
    keeps every committed step, but the walltime is gone — so it is its
    own term of the total-time identity, next to ``checkpoint_s``.

The analytic side (:func:`expected_goodput_fraction`,
:func:`recommend_checkpoint_interval`) is the classic Young/Daly
first-order model; :func:`checkpoint_plan` applies it to one step time
for both ``repro bench --mtbf`` and the tuner's recovery-aware
checkpoint-interval recommendation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class GoodputLedger:
    """Simulated-walltime charges, bucketed by recovery path."""

    useful_s: float = 0.0
    lost_retry_s: float = 0.0
    lost_rollback_s: float = 0.0
    lost_restart_s: float = 0.0
    lost_skipped_s: float = 0.0
    lost_degraded_s: float = 0.0
    checkpoint_s: float = 0.0
    replan_s: float = 0.0
    skipped_steps: int = 0
    retries: int = 0
    restarts: int = 0
    regroups: int = 0
    checkpoints: int = 0
    replans: int = 0
    #: ``(step, useful_seconds)`` committed since the last durable
    #: checkpoint — the work a crash would destroy.
    _window: list[tuple[int, float]] = field(default_factory=list)

    # -- charging ------------------------------------------------------------
    def commit_step(self, step: int, seconds: float, skipped: bool = False,
                    degraded_s: float = 0.0) -> None:
        """One completed step: useful, unless the update was skipped.

        ``degraded_s`` (degradation-aware accounting) is the slice of
        ``seconds`` attributed to an active straggler / link-degradation
        window rather than to useful work; it moves to the degraded
        bucket while the remainder stays useful.
        """
        if seconds < 0:
            raise ValueError("step seconds must be non-negative")
        if not 0.0 <= degraded_s <= seconds:
            raise ValueError("degraded_s must lie within the step seconds")
        if skipped:
            self.lost_skipped_s += seconds
            self.skipped_steps += 1
            self._window.append((step, 0.0))
        else:
            self.useful_s += seconds - degraded_s
            self.lost_degraded_s += degraded_s
            self._window.append((step, seconds - degraded_s))

    def checkpoint(self, seconds: float) -> None:
        """A durable checkpoint: charge its cost, seal the window."""
        self.checkpoint_s += seconds
        self.checkpoints += 1
        self._window.clear()

    def replan(self, seconds: float) -> None:
        """A plan migration: charge its cost, seal the window.

        The migration writes its own durable checkpoint (the bitwise
        resume point of the new plan), so — like :meth:`checkpoint` —
        nothing committed before the switch can be lost to a later
        crash.
        """
        if seconds < 0:
            raise ValueError("replan seconds must be non-negative")
        self.replan_s += seconds
        self.replans += 1
        self._window.clear()

    def retry(self, wasted_s: float, backoff_s: float = 0.0) -> None:
        """One failed attempt retried in place."""
        self.lost_retry_s += wasted_s + backoff_s
        self.retries += 1

    def rollback(self, attempt_s: float = 0.0) -> tuple[int, float]:
        """A crash: everything since the last checkpoint is lost.

        Moves the window's useful seconds to the rollback bucket (those
        steps will be re-executed) and charges the dead partial attempt.
        Returns ``(lost_steps, lost_seconds)`` for the recovery report.
        """
        lost_useful = sum(seconds for _, seconds in self._window)
        lost_steps = len(self._window)
        self.useful_s -= lost_useful
        self.lost_rollback_s += lost_useful + attempt_s
        self._window.clear()
        return lost_steps, lost_useful + attempt_s

    def restart(self, latency_s: float, elastic: bool = False) -> None:
        self.lost_restart_s += latency_s
        self.restarts += 1
        if elastic:
            self.regroups += 1

    # -- summaries -----------------------------------------------------------
    @property
    def lost_s(self) -> float:
        return (
            self.lost_retry_s
            + self.lost_rollback_s
            + self.lost_restart_s
            + self.lost_skipped_s
            + self.lost_degraded_s
        )

    @property
    def total_s(self) -> float:
        """Everything: useful + lost + checkpoint + replan overhead."""
        return self.useful_s + self.lost_s + self.checkpoint_s + self.replan_s

    @property
    def goodput_fraction(self) -> float:
        """Useful walltime over total walltime (1.0 for a clean run)."""
        total = self.total_s
        return self.useful_s / total if total > 0 else 1.0

    def bucket_fractions(self) -> dict:
        """Every bucket as a fraction of total walltime, gauge-named.

        ``goodput.fraction`` is the headline number (1.0 for a clean
        run, even before any step commits); the per-bucket fractions
        attribute the remainder.
        """
        total = self.total_s

        def frac(seconds: float) -> float:
            return seconds / total if total > 0 else 0.0

        fractions = {
            "goodput.fraction": self.goodput_fraction,
            "goodput.useful_fraction": frac(self.useful_s),
            "goodput.retry_fraction": frac(self.lost_retry_s),
            "goodput.rollback_fraction": frac(self.lost_rollback_s),
            "goodput.restart_fraction": frac(self.lost_restart_s),
            "goodput.skipped_fraction": frac(self.lost_skipped_s),
            "goodput.checkpoint_fraction": frac(self.checkpoint_s),
        }
        # Opt-in buckets appear only once charged, so default runs —
        # and their journal/timeseries bytes — are untouched.
        if self.lost_degraded_s:
            fractions["goodput.degraded_fraction"] = frac(self.lost_degraded_s)
        if self.replan_s:
            fractions["goodput.replan_fraction"] = frac(self.replan_s)
        return fractions

    def publish_gauges(self, metrics) -> dict:
        """Set every bucket fraction on a MetricsRegistry; returns them.

        Called once per committed step by the Supervisor, so goodput
        shows up in step reports and the monitor's timeseries without
        a separate code path.
        """
        fractions = self.bucket_fractions()
        for name, value in fractions.items():
            metrics.gauge(name).set(value)
        return fractions

    def as_dict(self) -> dict:
        return {
            "useful_s": self.useful_s,
            "lost_retry_s": self.lost_retry_s,
            "lost_rollback_s": self.lost_rollback_s,
            "lost_restart_s": self.lost_restart_s,
            "lost_skipped_s": self.lost_skipped_s,
            "lost_degraded_s": self.lost_degraded_s,
            "checkpoint_s": self.checkpoint_s,
            "replan_s": self.replan_s,
            "lost_s": self.lost_s,
            "total_s": self.total_s,
            "goodput_fraction": self.goodput_fraction,
            "skipped_steps": self.skipped_steps,
            "retries": self.retries,
            "restarts": self.restarts,
            "regroups": self.regroups,
            "checkpoints": self.checkpoints,
            "replans": self.replans,
        }


# -- analytic MTBF model (Young/Daly) ----------------------------------------
def recommend_checkpoint_interval(
    mtbf_s: float, checkpoint_cost_s: float, step_time_s: float | None = None
) -> float:
    """Young/Daly optimal seconds of work between checkpoints.

    ``T_opt = sqrt(2 * C * M)`` for checkpoint cost ``C`` and MTBF
    ``M`` (first-order; valid while ``C << M``).  When ``step_time_s``
    is given the interval is floored to one step, so the
    recommendation is always actionable as a ``checkpoint_every``.
    """
    if mtbf_s <= 0 or checkpoint_cost_s < 0:
        raise ValueError("mtbf_s must be positive and checkpoint_cost_s >= 0")
    interval = math.sqrt(2.0 * checkpoint_cost_s * mtbf_s)
    if step_time_s:
        interval = max(interval, step_time_s)
    return interval


def expected_goodput_fraction(
    mtbf_s: float,
    checkpoint_cost_s: float,
    restart_latency_s: float,
    checkpoint_interval_s: float,
) -> float:
    """First-order expected goodput under a Poisson failure model.

    Per useful second the run pays ``C/T`` in checkpoint overhead and,
    at rate ``1/M``, a failure costing the restart latency ``R`` plus
    on average half a checkpoint interval of lost work:

    ``goodput = 1 / (1 + C/T + (R + (T + C) / 2) / M)``
    """
    T, C, R, M = checkpoint_interval_s, checkpoint_cost_s, restart_latency_s, mtbf_s
    if T <= 0 or M <= 0 or C < 0 or R < 0:
        raise ValueError("interval and MTBF must be positive; costs non-negative")
    overhead = C / T + (R + (T + C) / 2.0) / M
    return 1.0 / (1.0 + overhead)


def checkpoint_plan(mtbf_s: float, checkpoint_cost_s: float,
                    restart_latency_s: float, step_time_s: float) -> dict:
    """The Young/Daly plan for steps of ``step_time_s``: the interval in
    seconds and in whole steps (at least one), and its goodput."""
    interval = recommend_checkpoint_interval(
        mtbf_s, checkpoint_cost_s, step_time_s=step_time_s
    )
    return {
        "checkpoint_interval_s": interval,
        "checkpoint_every_steps": max(1, round(interval / step_time_s)),
        "goodput_fraction": expected_goodput_fraction(
            mtbf_s, checkpoint_cost_s, restart_latency_s, interval
        ),
    }


def bench_goodput(
    doc: dict,
    mtbf_s: float,
    checkpoint_cost_s: float = 30.0,
    restart_latency_s: float = 120.0,
) -> dict:
    """Expected goodput per bench case of a ``BENCH_obs.json`` document.

    For each case: the Young/Daly checkpoint interval, the expected
    goodput fraction, and goodput observations/s — which is *exactly*
    ``throughput * fraction``, so goodput trails raw throughput by
    precisely the charged overhead.
    """
    out = {}
    for name, case in sorted(doc.get("cases", {}).items()):
        plan = checkpoint_plan(
            mtbf_s, checkpoint_cost_s, restart_latency_s, case["step_time_s"]
        )
        throughput = 1.0 / case["time_per_obs_s"]
        out[name] = {
            "mtbf_s": mtbf_s,
            **plan,
            "throughput_obs_per_s": throughput,
            "goodput_obs_per_s": throughput * plan["goodput_fraction"],
        }
    return out


def goodput_table(goodput: dict) -> str:
    """Paper-style text table of :func:`bench_goodput` output."""
    from repro.experiments.common import format_table

    rows = []
    for name, entry in sorted(goodput.items()):
        rows.append(
            [
                name,
                f"{entry['throughput_obs_per_s']:.1f}",
                f"{entry['goodput_obs_per_s']:.1f}",
                f"{entry['goodput_fraction']:.4f}",
                f"{entry['checkpoint_interval_s']:.1f}",
                entry["checkpoint_every_steps"],
            ]
        )
    return format_table(
        ["case", "obs/s", "goodput obs/s", "fraction", "ckpt interval s",
         "ckpt every"],
        rows,
        title=(
            f"goodput under MTBF {next(iter(goodput.values()))['mtbf_s']:.0f} s"
            if goodput
            else "goodput (no cases)"
        ),
    )
