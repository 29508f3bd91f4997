"""Span-based event tracing keyed to the simulated cluster clock.

Every piece of modeled time in the system flows through
:class:`~repro.cluster.timeline.Timeline` — compute via
``record_compute``, communication via ``record_comm``.  The tracer
hooks those two choke points, so a span's placement is exact by
construction:

* a **compute** span starts at the rank's busy clock
  (``ledger.walltime_s``) before the record and runs for its full
  duration;
* a **collective**/**gather** span starts at the busy clock before the
  record, carries its full modeled duration ``dur`` plus the portion
  ``hidden_s`` that prefetch overlap hid under compute slack; only the
  exposed remainder (:attr:`Span.busy_s`) advances the clock.

This makes the trace an *exact decomposition* of the ledgers: for every
rank, the compute-span durations sum to ``ledger.compute_s`` and the
comm-span exposed portions sum to ``ledger.exposed_comm_s`` — float
for float, since both accumulate the same values in the same order.
The invariant suite (``tests/obs/test_invariants.py``) asserts this.

Call sites annotate, they never branch: code holds a tracer handle
(the cluster's, or :data:`NULL_TRACER`), and the disabled path is a
no-op object with the same methods — zero events, no conditionals in
instrumented code.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.utils.logging import trace_log_context

_STEP_SCOPE = re.compile(r"^step\.(\d+)$")

#: The typed event vocabulary.  ``compute`` and ``collective``/``gather``
#: carry simulated time; ``optimizer``/``checkpoint``/``io`` are
#: zero-duration markers for control events off the simulated clock;
#: ``serve`` spans carry simulated *serving* time (one per dispatched
#: micro-batch, ``rank`` = replica id — see :mod:`repro.serve.server`).
SPAN_KINDS = frozenset(
    {"compute", "collective", "gather", "optimizer", "checkpoint", "io",
     "serve"}
)


@dataclass
class Span:
    """One typed event on one rank's simulated timeline.

    ``dur`` is the full modeled duration; ``hidden_s`` is the part a
    prefetched collective hid under compute slack (always 0 for
    compute).  ``busy_s = dur - hidden_s`` is what actually advanced
    the rank's busy clock.
    """

    kind: str
    name: str
    rank: int
    t0: float
    dur: float
    hidden_s: float = 0.0
    nbytes: float = 0.0
    flops: float = 0.0
    group: tuple[int, ...] | None = None
    scope: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def busy_s(self) -> float:
        """Exposed duration: the contribution to the rank's walltime."""
        return self.dur - self.hidden_s

    @property
    def exposed_s(self) -> float:
        return self.busy_s

    @property
    def t1(self) -> float:
        """End position on the rank's busy clock."""
        return self.t0 + self.busy_s

    @property
    def disposition(self) -> str:
        """Overlap outcome: ``exposed``, ``hidden``, or ``partial``."""
        if self.hidden_s <= 0.0:
            return "exposed"
        if self.busy_s <= 0.0:
            return "hidden"
        return "partial"

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "name": self.name,
            "rank": self.rank,
            "t0": self.t0,
            "dur": self.dur,
            "hidden_s": self.hidden_s,
            "exposed_s": self.busy_s,
            "nbytes": self.nbytes,
            "flops": self.flops,
            "scope": self.scope,
            "disposition": self.disposition,
        }
        if self.group is not None:
            out["group"] = list(self.group)
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out


class Tracer:
    """Records :class:`Span` events and per-kind counters.

    The tracer is deterministic: given the same seeded simulation it
    produces the identical span list, so traces double as test
    fixtures.  Attach one to a cluster at construction
    (``VirtualCluster(..., tracer=Tracer())``) or later via
    :meth:`~repro.cluster.cluster.VirtualCluster.attach_tracer`.
    """

    enabled = True

    def __init__(self, metrics: MetricsRegistry | None = None):
        self.spans: list[Span] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._scope_parts: list[str] = []
        self._kind_override: list[str] = []
        #: ``(scope, comm kind)`` of the event being replayed, if any.
        self._context: tuple[str, str] | None = None

    # -- scoping ------------------------------------------------------------
    @contextmanager
    def scope(self, *parts, kind: str | None = None):
        """Label spans emitted inside; ``kind`` reclassifies collectives
        issued on behalf of a higher-level operation (e.g. a parameter
        gather).

        Entering a scope also publishes the current ``step`` / ``phase``
        to the structured-logging context
        (:mod:`repro.utils.logging`), so any log record emitted inside a
        traced region carries those fields.
        """
        self._scope_parts.append(".".join(str(p) for p in parts))
        if kind is not None:
            self._kind_override.append(kind)
        try:
            with trace_log_context(**self._log_fields()):
                yield self
        finally:
            self._scope_parts.pop()
            if kind is not None:
                self._kind_override.pop()

    def _log_fields(self) -> dict:
        """``step``/``phase`` implied by the current scope stack."""
        step = phase = None
        for part in self._scope_parts:
            match = _STEP_SCOPE.match(part)
            if match:
                step = int(match.group(1))
            elif phase is None:
                phase = part
        return {"step": step, "phase": phase}

    def set_context(self, scope: str | None, kind: str | None = None) -> None:
        """Label spans from a *recorded* scope and collective kind.

        :meth:`~repro.cluster.timeline.Timeline.replay` sets this before
        each event it re-records, so the spans (and a folded timeline's
        log) carry the scope the original call was made under;
        ``scope=None`` returns to the live scope stack.
        """
        self._context = None if scope is None else (scope, kind)

    @property
    def current_scope(self) -> str:
        if self._context is not None:
            return self._context[0]
        return "/".join(self._scope_parts)

    @property
    def current_comm_kind(self) -> str:
        """Span kind the active scope assigns to collectives."""
        if self._context is not None:
            return self._context[1]
        return self._kind_override[-1] if self._kind_override else "collective"

    # -- recording ----------------------------------------------------------
    def span(
        self,
        kind: str,
        name: str,
        rank: int,
        t0: float,
        dur: float,
        *,
        hidden_s: float = 0.0,
        nbytes: float = 0.0,
        flops: float = 0.0,
        group: tuple[int, ...] | None = None,
        **attrs,
    ) -> Span:
        if kind not in SPAN_KINDS:
            raise ValueError(f"unknown span kind {kind!r}; expected one of {sorted(SPAN_KINDS)}")
        span = Span(
            kind=kind,
            name=name,
            rank=rank,
            t0=t0,
            dur=dur,
            hidden_s=hidden_s,
            nbytes=nbytes,
            flops=flops,
            group=group,
            scope=self.current_scope,
            attrs=attrs,
        )
        self.spans.append(span)
        self.metrics.counter(f"spans.{kind}").inc()
        return span

    def instant(self, kind: str, name: str, rank: int = 0, t0: float = 0.0, **attrs) -> Span:
        """A zero-duration marker event (optimizer/checkpoint/io)."""
        return self.span(kind, name, rank, t0, 0.0, **attrs)

    # -- Timeline hooks -----------------------------------------------------
    def on_compute(
        self, rank: int, t0: float, seconds: float, flops: float, op: str,
        members: int | None = None,
    ) -> None:
        """Called by ``Timeline.record_compute`` with the pre-record clock.

        ``members`` marks a class-annotated compact span from a folded
        timeline: the event stands for that many symmetric ranks.
        """
        attrs = {} if members is None else {"members": members}
        self.span("compute", op, rank, t0, seconds, flops=flops, **attrs)

    def on_comm(
        self,
        rank: int,
        t0: float,
        seconds: float,
        hidden_s: float,
        nbytes: float,
        op: str,
        group: tuple[int, ...],
        cid: int | None = None,
        members: int | None = None,
    ) -> None:
        """Called by ``Timeline.record_comm`` once per participating rank.

        ``cid`` is the collective sequence id shared by every
        participant's span; the critical-path analyzer uses it to match
        the per-rank spans of one collective back together.  ``members``
        marks a class-annotated compact span (folded timeline).
        """
        kind = self.current_comm_kind
        attrs = {} if cid is None else {"cid": cid}
        if members is not None:
            attrs["members"] = members
        self.span(
            kind, op, rank, t0, seconds,
            hidden_s=hidden_s, nbytes=nbytes, group=group, **attrs,
        )

    def mark_free(self, timeline, ranks, name: str, nbytes: float) -> None:
        """Marker for a gathered shard being released on each rank."""
        for rank in ranks:
            self.span(
                "gather", f"free.{name}", rank, timeline.ledger(rank).walltime_s, 0.0,
                nbytes=nbytes,
            )

    # -- lifecycle ----------------------------------------------------------
    def clear(self) -> None:
        """Drop recorded spans (e.g. between simulated runs)."""
        self.spans.clear()

    def __len__(self) -> int:
        return len(self.spans)


class _NullScope:
    """Reusable inert context manager returned by ``NullTracer.scope``."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SCOPE = _NullScope()


class NullTracer:
    """The disabled tracer: every method is a no-op, ``spans`` is empty.

    Instrumented code holds a tracer handle and calls it
    unconditionally; with this object installed the whole
    observability layer costs one dynamic dispatch per record and
    allocates nothing.
    """

    enabled = False
    spans: tuple = ()
    metrics = NULL_METRICS

    __slots__ = ()

    def scope(self, *parts, kind: str | None = None):
        return _NULL_SCOPE

    def set_context(self, scope, kind=None) -> None:
        pass

    @property
    def current_scope(self) -> str:
        return ""

    @property
    def current_comm_kind(self) -> str:
        return "collective"

    def span(self, *args, **kwargs) -> None:
        return None

    def instant(self, *args, **kwargs) -> None:
        return None

    def on_compute(self, rank, t0, seconds, flops, op, members=None) -> None:
        pass

    def on_comm(self, rank, t0, seconds, hidden_s, nbytes, op, group,
                cid=None, members=None) -> None:
        pass

    def mark_free(self, timeline, ranks, name, nbytes) -> None:
        pass

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


#: Shared module-level no-op tracer; the default handle everywhere.
NULL_TRACER = NullTracer()
