"""Recovery reports: what fired, what the supervisor did, what it cost.

The JSON form (``RecoveryReport.as_dict``) is the artifact the CI
fault-suite job uploads; the text form is what ``repro faults``
prints.  A report with a non-empty ``unrecovered`` list is a failed
run — the CLI maps that to a non-zero exit status.  A report holds no
event of its own: :func:`recovery_events` reads them off the run's
journal.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.faults.goodput import GoodputLedger
from repro.faults.plan import FaultSpec

#: Report format version.
REPORT_SCHEMA = 1


@dataclass(frozen=True)
class RecoveryEvent:
    """One supervisor reaction to one fired (or observed) fault."""

    step: int
    kind: str
    action: str  #: retry | retry_exhausted | rollback_restart | elastic_regroup | skip_step | observed | unrecovered | plan_switch
    rank: int | None = None
    attempts: int = 0
    lost_s: float = 0.0
    lost_steps: int = 0
    detail: str = ""


def recovery_events(journal_events) -> list[RecoveryEvent]:
    """The report's view of a run's journal: each ``recovery`` event,
    and each executed ``replan`` switch decision as a ``plan_switch``."""
    events = []
    for event in journal_events:
        data = event.data
        if event.kind == "recovery":
            events.append(RecoveryEvent(**data))
        elif event.kind == "replan" and data.get("action") == "switch":
            events.append(RecoveryEvent(
                step=event.step, kind="replan", action="plan_switch",
                lost_s=data["migration_cost_s"],
                detail=f"{data['current']} -> {data['best']}: {data['reason']}",
            ))
    return events


@dataclass
class RecoveryReport:
    """Everything a supervised run produced, failure-wise."""

    events: list[RecoveryEvent] = field(default_factory=list)
    ledger: GoodputLedger = field(default_factory=GoodputLedger)
    #: ``(observations_seen, loss)`` trajectory, as a plain list.
    history: list[tuple[int, float]] = field(default_factory=list)
    #: Faults that fired but could not be recovered from.
    unrecovered: list[str] = field(default_factory=list)
    #: Faults scheduled but never triggered (e.g. beyond the step budget).
    pending: list[FaultSpec] = field(default_factory=list)
    #: Faults dropped because their target rank was lost in a regroup.
    moot: list[FaultSpec] = field(default_factory=list)
    #: Final world shape (identity dict of the last RunSpec).
    final_spec: dict = field(default_factory=dict)
    steps_completed: int = 0

    @property
    def recovered(self) -> bool:
        return not self.unrecovered

    def as_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "recovered": self.recovered,
            "steps_completed": self.steps_completed,
            "events": [asdict(event) for event in self.events],
            "goodput": self.ledger.as_dict(),
            "unrecovered": list(self.unrecovered),
            "pending": [spec.as_dict() for spec in self.pending],
            "moot": [spec.as_dict() for spec in self.moot],
            "final_spec": dict(self.final_spec),
            "history": [[obs, loss] for obs, loss in self.history],
        }

    def render(self) -> str:
        """Human-readable recovery report."""
        led = self.ledger
        lines = [
            f"recovery report: {self.steps_completed} step(s) completed, "
            f"{len(self.events)} recovery event(s), "
            f"{'all recovered' if self.recovered else 'UNRECOVERED FAULTS'}"
        ]
        for event in self.events:
            extra = f", {event.attempts} attempt(s)" if event.attempts else ""
            extra += f", {event.lost_steps} step(s) re-run" if event.lost_steps else ""
            lines.append(
                f"  step {event.step:>4d}  {event.kind:<20s} -> {event.action}"
                f"  (lost {event.lost_s:.6f} s{extra})"
                + (f"  {event.detail}" if event.detail else "")
            )
        for message in self.unrecovered:
            lines.append(f"  UNRECOVERED: {message}")
        if self.pending:
            lines.append(f"  {len(self.pending)} scheduled fault(s) never fired")
        if self.moot:
            lines.append(
                f"  {len(self.moot)} fault(s) dropped with their lost ranks"
            )
        lines.append(
            "goodput: "
            f"{led.goodput_fraction:.4f} "
            f"(useful {led.useful_s:.6f} s / total {led.total_s:.6f} s; "
            f"retry {led.lost_retry_s:.6f} s, rollback {led.lost_rollback_s:.6f} s, "
            f"restart {led.lost_restart_s:.6f} s, skipped {led.lost_skipped_s:.6f} s, "
            f"checkpoints {led.checkpoint_s:.6f} s)"
        )
        return "\n".join(lines)
