"""Unified append-only event journal: the one record of a run.

A run emits events from several subsystems — detector alerts, post-hoc
health findings, Supervisor recovery actions, checkpoint saves and
rollbacks, fold/unfold mode switches, replan decisions.  The journal is
their **one ordered, schema-versioned store**, so "what happened to
this run?" has a single answer, monitored or not: the monitor appends
its detectors' alerts (and counts them off the journal), the Session
its fold switches, the Supervisor (which hands its journal to each
incarnation) every other event once, and reads its
:class:`~repro.faults.report.RecoveryReport` back off its slice.

Ordering guarantee: events are journaled in the order the run emits
them — program order, which for the simulated stack is deterministic
given the seed and fault plan.  Each event gets a monotonically
increasing ``seq`` stamped at append time; the serialized file sorts
by nothing (append order *is* the order).  Combined with canonical
JSON encoding (sorted keys, compact separators, pure floats from the
cost model), two identical seeded runs write **byte-identical**
journal files — the repo's bitwise-reproducibility invariant extended
to telemetry.

Event kinds (``JOURNAL_KINDS``): ``run`` (start/end markers), ``alert``
(detector findings), ``recovery`` (Supervisor actions, incl. fault
skips and health observations), ``checkpoint`` (save / rollback),
``fold`` (mode switches), ``serve`` (forecast-serving lifecycle),
``replan`` (mid-run plan-migration decisions, switches and outcomes).
New kinds may be added under the same schema as long as existing fields
keep their meaning; breaking changes bump ``JOURNAL_SCHEMA``.

:meth:`EventJournal.append` is the one write path (there is no
wrapper over it): each emitting subsystem spells out its own category,
severity, message and data, so this module knows no other package's
event types.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.utils.artifacts import (
    CANONICAL_JSON,
    ArtifactFormatError,
    read_jsonl,
    write_artifact,
)

#: Format version of the journal JSONL artifact.
JOURNAL_SCHEMA = 1

#: Known event kinds (open set — see module docstring).  ``serve``
#: events come from the forecast-serving front-end (admission
#: rejections, autoscaler actions, run markers); their ``step`` field
#: is the response count at emission time, and — like every other kind
#: — their payloads are pure simulated-clock floats, so seeded serve
#: replays journal byte-identically.
JOURNAL_KINDS = ("run", "alert", "recovery", "checkpoint", "fold", "serve",
                 "replan")


@dataclass(frozen=True)
class JournalEvent:
    """One journal line: where (step), what (kind), and details."""

    seq: int
    step: int
    kind: str
    category: str = ""
    severity: str = "info"
    message: str = ""
    data: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "step": self.step,
            "kind": self.kind,
            "category": self.category,
            "severity": self.severity,
            "message": self.message,
            "data": self.data,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), **CANONICAL_JSON)

    def render(self) -> str:
        """One human-readable tail line."""
        return (
            f"[{self.seq:4d}] step {self.step:>4} "
            f"{self.kind}/{self.category or '-'} "
            f"[{self.severity}] {self.message}"
        )


class EventJournal:
    """Append-only, seq-stamped event stream.

    ``on_event`` (optional) is invoked synchronously with each appended
    :class:`JournalEvent` — the live-tail hook for ``repro monitor``.
    """

    def __init__(self, on_event: Callable[[JournalEvent], None] | None = None):
        self.events: list[JournalEvent] = []
        self.on_event = on_event

    def append(self, step: int, kind: str, *, category: str = "",
               severity: str = "info", message: str = "",
               data: dict | None = None) -> JournalEvent:
        """Journal one event: the only way an event enters the journal."""
        event = JournalEvent(
            seq=len(self.events),
            step=int(step),
            kind=kind,
            category=category,
            severity=severity,
            message=message,
            data=dict(data or {}),
        )
        self.events.append(event)
        if self.on_event is not None:
            self.on_event(event)
        return event

    # -- queries ------------------------------------------------------------
    def by_kind(self, kind: str) -> list[JournalEvent]:
        return [e for e in self.events if e.kind == kind]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- persistence ---------------------------------------------------------
    def to_jsonl(self) -> str:
        """Canonical byte-deterministic JSONL (header + one line/event)."""
        lines = [json.dumps(
            {"kind": "journal", "schema": JOURNAL_SCHEMA,
             "events": len(self.events)},
            **CANONICAL_JSON,
        )]
        lines.extend(event.to_json() for event in self.events)
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path) -> Path:
        return write_artifact(path, self.to_jsonl())


def load_journal(path) -> list[JournalEvent]:
    """Read a journal artifact back into :class:`JournalEvent` records."""
    header, entries = read_jsonl(path, "journal", "journal", JOURNAL_SCHEMA)
    events = []
    for number, entry in entries:
        try:
            events.append(JournalEvent(**entry))
        except TypeError as exc:  # an unknown or a missing field
            raise ArtifactFormatError(
                f"{path}: line {number}: not a journal event ({exc})") from exc
    if [e.seq for e in events] != list(range(len(events))):
        raise ArtifactFormatError(
            f"{path} has a gap or reorder in event seq numbers")
    if len(events) != header.get("events"):
        raise ArtifactFormatError(
            f"{path} header promises {header.get('events')} events, "
            f"found {len(events)}"
        )
    return events


def journal_summary(events: Iterable[JournalEvent]) -> dict:
    """Counts by kind and severity (the summary table's numbers)."""
    events = list(events)
    kinds: dict[str, int] = {}
    severities: dict[str, int] = {}
    for event in events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
        severities[event.severity] = severities.get(event.severity, 0) + 1
    return {
        "events": len(events),
        "by_kind": dict(sorted(kinds.items())),
        "by_severity": dict(sorted(severities.items())),
    }
