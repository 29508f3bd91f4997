"""RunMonitor: the streaming-telemetry StepLoop hook.

The monitor is the live counterpart of the post-hoc analysis stack: it
rides the :class:`~repro.runtime.steploop.StepLoop` hook protocol,
reads per-step deltas straight off the Timeline ledgers, feeds a
:class:`~repro.obs.timeseries.TimeseriesStore`, evaluates a
:class:`~repro.obs.detect.DetectorBank`, and appends its alerts to its
:class:`~repro.obs.journal.EventJournal` — the run's one record, which
every other writer (Session, Supervisor, ``repro monitor``) appends to
directly.

Ledger reads are safe across fold-mode switches: ``unfold()``
materializes member ledgers as bitwise copies of their class ledger
and ``try_refold()`` copies the representative back, so
``timeline.ledger(rank)`` is value-continuous no matter when the mode
flips relative to the step boundary.  Per-step deltas (and sums over
the whole world) therefore never see a discontinuity.

One monitor instance survives Supervisor incarnations: the Supervisor
rebuilds the Session after a crash or node loss, and
:meth:`RunMonitor.attach_session` re-bases the ledger baselines on the
fresh (zeroed) timeline — the same external-ownership pattern as the
:class:`~repro.faults.injector.FaultInjector`.

With monitoring off the handle is :data:`~repro.obs.off.OFF`, the one
disabled handle every observability channel shares: each hook is a
no-op call and allocates nothing.
"""

from __future__ import annotations

import json
import math
import statistics

from repro.obs.detect import DetectorBank
from repro.obs.journal import EventJournal, journal_summary
from repro.obs.off import OFF
from repro.obs.timeseries import TimeseriesStore


class RunMonitor:
    """Streaming telemetry over one run (possibly many sessions).

    The detector bank runs :func:`~repro.obs.detect.default_rules`.
    ``on_event`` is an optional callable invoked with each appended
    :class:`~repro.obs.journal.JournalEvent` — the live tail.
    """

    enabled = True

    def __init__(self, on_event=None):
        self.store = TimeseriesStore()
        self.bank = DetectorBank()
        self.journal = EventJournal(on_event)
        self._session = None
        #: rank -> (compute_s, exposed_comm_s) at step start.
        self._baseline: dict[int, tuple[float, float]] = {}
        #: rank -> first observed per-step busy time: the run's own
        #: static imbalance profile.  ``step.straggler_excess`` measures
        #: *emergence* — per-rank slowdown relative to this profile —
        #: because topology-induced spread (FSDP lead ranks do extra
        #: dense work) is structural, not a degradation.
        self._busy_profile: dict[int, float] = {}

    # -- session lifecycle ---------------------------------------------------
    def attach_session(self, session) -> None:
        """(Re-)bind to a session; re-bases ledger baselines.

        Called at Session construction and again by the Supervisor when
        it rebuilds the stack after a crash/elastic regroup — the new
        timeline starts from zero, so the old baselines are void.
        """
        self._session = session
        self._baseline = {}
        self._busy_profile = {}
        self._snapshot_baseline()

    def _snapshot_baseline(self) -> None:
        session = self._session
        if session is None:
            return
        timeline = session.cluster.timeline
        self._baseline = {
            rank: (ledger.compute_s, ledger.exposed_comm_s)
            for rank in range(session.cluster.world_size)
            for ledger in (timeline.ledger(rank),)
        }

    # -- StepLoop hook protocol ---------------------------------------------
    def on_step_start(self, loop, step: int) -> None:
        self._snapshot_baseline()

    def on_step_end(self, loop, event) -> None:
        session = self._session
        if session is None:
            return
        step = event.step
        timeline = session.cluster.timeline
        compute_sum = exposed_sum = 0.0
        busy_deltas: dict[int, float] = {}
        for rank in range(session.cluster.world_size):
            ledger = timeline.ledger(rank)
            base_c, base_e = self._baseline.get(rank, (0.0, 0.0))
            d_compute = ledger.compute_s - base_c
            d_exposed = ledger.exposed_comm_s - base_e
            compute_sum += d_compute
            exposed_sum += d_exposed
            busy_deltas[rank] = d_compute + d_exposed
        if not self._busy_profile:
            self._busy_profile = dict(busy_deltas)
        values: dict[str, float] = {}
        if busy_deltas:
            values["step.time_s"] = max(busy_deltas.values())
            # Per-rank slowdown vs the run's own first-step profile:
            # a clean step reproduces the profile exactly (every ratio
            # 1.0, excess 0), so only emergent degradation registers.
            ratios = [
                delta / self._busy_profile[rank]
                if self._busy_profile.get(rank, 0.0) > 0.0 else 1.0
                for rank, delta in busy_deltas.items()
            ]
            median = statistics.median(ratios)
            values["step.straggler_excess"] = (
                max(ratios) / median - 1.0 if median > 0.0 else 0.0
            )
        total = compute_sum + exposed_sum
        values["step.exposed_comm_ratio"] = (
            exposed_sum / total if total > 0.0 else 0.0
        )
        if math.isfinite(event.loss):
            values["step.loss"] = event.loss
        fraction = self._peak_memory_fraction()
        if fraction is not None:
            values["memory.peak_fraction"] = fraction
        self._observe(step, values)

    def _peak_memory_fraction(self):
        best = None
        for device in self._session.cluster.touched_devices():
            fraction = device.memory.peak_fraction
            if fraction is not None and (best is None or fraction > best):
                best = fraction
        return best

    def _observe(self, step: int, values: dict[str, float]) -> None:
        """Detectors first (their baselines must exclude this point),
        then the store, then the journal."""
        for finding in self.bank.observe(step, values, self.store):
            self.journal.append(
                step, "alert",
                category=finding.category,
                severity=finding.severity,
                message=finding.message,
                data={
                    "ranks": list(finding.ranks),
                    "value": finding.value,
                    "threshold": finding.threshold,
                },
            )
        self.store.record(step, values)

    # -- out-of-loop telemetry (Supervisor, Session) -------------------------
    def observe_gauges(self, step: int, values: dict[str, float]) -> None:
        """Record supervisor-side samples (e.g. goodput fractions).

        The Supervisor commits a step *after* the StepLoop hooks have
        fired, so these samples arrive through this side door instead
        of ``on_step_end`` — same detector-then-store path, attributed
        to the committing step.
        """
        self._observe(step, values)

    # -- results (read off the journal) ---------------------------------------
    def _alerts(self, severity: str) -> int:
        return sum(1 for event in self.journal.events
                   if event.kind == "alert" and event.severity == severity)

    @property
    def critical_alerts(self) -> int:
        return self._alerts("critical")

    @property
    def warning_alerts(self) -> int:
        return self._alerts("warning")

    def as_document(self) -> dict:
        """Machine-readable run summary (``repro monitor --json``)."""
        return {
            "journal": [event.as_dict() for event in self.journal],
            "journal_summary": journal_summary(self.journal),
            "timeseries": self.store.summaries(),
            "alerts": {
                "warning": self.warning_alerts,
                "critical": self.critical_alerts,
            },
            "rules": [rule.as_dict() for rule in self.bank.rules],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_document(), indent=indent, sort_keys=True)

    def summary_table(self) -> str:
        """End-of-run plain-text summary: series stats + event counts."""
        lines = ["metric                         count      last      mean       p95"]
        for row in self.store.summaries():
            lines.append(
                f"{row['name']:<30s} {row['count']:>5d} "
                f"{row['last']:>9.4g} {row['mean']:>9.4g} {row['p95']:>9.4g}"
            )
        summary = journal_summary(self.journal)
        kinds = ", ".join(
            f"{kind}={count}" for kind, count in summary["by_kind"].items()
        ) or "none"
        lines.append(f"journal: {summary['events']} event(s) ({kinds})")
        lines.append(
            f"alerts: {self.warning_alerts} warning, "
            f"{self.critical_alerts} critical"
        )
        return "\n".join(lines)


def monitor_for(spec):
    """The default handle for ``spec``: a fresh :class:`RunMonitor` when
    ``spec.monitor == "on"``, :data:`~repro.obs.off.OFF` otherwise."""
    return RunMonitor() if spec.monitor == "on" else OFF
