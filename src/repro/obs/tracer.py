"""The span table: event tracing keyed to the simulated cluster clock.

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

The store is a table with two faces.  **Writing**, a :class:`Tracer`
appends one plain tuple per event (:data:`ROW_FIELDS`) — no object, no
dict, nothing the cyclic collector has to keep revisiting.  **Reading**,
``tracer.spans`` is a :class:`SpanView` that builds a :class:`Span` for
the element asked for and forgets it, and :class:`SpanColumns` turns
the rows into NumPy columns once per analysis (:mod:`repro.obs.analysis`,
:mod:`repro.obs.critical_path`).  Only this module knows the row layout.

Call sites annotate, they never branch: code holds a tracer handle
(the cluster's, or :data:`~repro.obs.off.OFF`), and the disabled path
is the one disabled handle every channel shares — zero events, no
conditionals in instrumented code.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from operator import eq, itemgetter

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.utils.logging import trace_log_context

_STEP_SCOPE = re.compile(r"^step\.(\d+)$")

#: The typed event vocabulary, in :attr:`SpanColumns.kind` code order.
#: ``compute`` and ``collective``/``gather`` carry simulated time (codes
#: up to :data:`GATHER`); ``io`` may; ``optimizer``/``checkpoint`` are
#: zero-duration markers for control events off the simulated clock;
#: ``serve`` spans carry simulated *serving* time (one per dispatched
#: micro-batch, ``rank`` = replica id — see :mod:`repro.serve.server`).
KIND_NAMES = ("compute", "collective", "gather", "io", "optimizer",
              "checkpoint", "serve")
COMPUTE, COLLECTIVE, GATHER, IO = range(4)
SPAN_KINDS = frozenset(KIND_NAMES)
_KIND_CODE = {kind: code for code, kind in enumerate(KIND_NAMES)}
#: ``spans.<kind>`` counter names, so an emit formats nothing.
_COUNTER = {kind: f"spans.{kind}" for kind in KIND_NAMES}

#: What one row of the table holds, in order.  ``cid`` (collective id)
#: and ``members`` (class size of a folded span) are ``None`` when
#: absent; ``attrs`` is ``None`` unless the caller passed extras.
ROW_FIELDS = ("kind", "name", "rank", "t0", "dur", "hidden_s", "nbytes",
              "flops", "group", "scope", "cid", "members", "attrs")


def _unknown_kind(kind) -> ValueError:
    return ValueError(
        f"unknown span kind {kind!r}; expected one of {sorted(SPAN_KINDS)}")


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


def span_row(kind, name, rank, t0, dur, hidden_s=0.0, nbytes=0.0, flops=0.0,
             group=None, scope="", attrs=None) -> tuple:
    """A table row from span fields (``attrs`` as :attr:`Span.attrs`)."""
    if kind not in SPAN_KINDS:
        raise _unknown_kind(kind)
    extras = dict(attrs or ())
    cid, members = extras.pop("cid", None), extras.pop("members", None)
    return (kind, name, rank, t0, dur, hidden_s, nbytes, flops, group, scope,
            cid, members, extras or None)


# The bulk twins of the three Timeline hooks (``Tracer.on_compute``,
# ``on_comm`` and ``mark_free``), for :meth:`Tracer.extend_rows`: each
# spells its hook's row over columns, field for field in the same
# order, so a field changed in a hook changes in its twin too
# (``tests/obs/test_tracer.py::test_bulk_rows_are_the_hooks_rows``
# holds each pair equal).
def compute_rows(name, rank, t0, dur, flops, scope, members):
    """:meth:`Tracer.on_compute`'s rows, one per item of its columns."""
    return zip(repeat("compute"), name, rank, t0, dur, repeat(0.0),
               repeat(0.0), flops, repeat(None), scope, repeat(None), members,
               repeat(None))


def comm_rows(kind, name, rank, t0, dur, hidden_s, nbytes, group, scope, cid,
              members):
    """:meth:`Tracer.on_comm`'s rows, one per item of its columns."""
    return zip(kind, name, rank, t0, dur, hidden_s, nbytes, repeat(0.0), group,
               scope, cid, members, repeat(None))


def free_rows(name, rank, clock, nbytes, scope):
    """:meth:`Tracer.mark_free`'s rows (``name`` already ``free.``-prefixed)."""
    return zip(repeat("gather"), name, rank, clock, repeat(0.0), repeat(0.0),
               nbytes, repeat(0.0), repeat(None), scope, repeat(None),
               repeat(None), repeat(None))


def _span_of(row: tuple) -> Span:
    *fields, cid, members, extras = row
    # key order is part of the exported bytes: cid, members, then extras
    attrs = {}
    if cid is not None:
        attrs["cid"] = cid
    if members is not None:
        attrs["members"] = members
    if extras:
        attrs.update(extras)
    return Span(*fields, attrs)


class SpanView(Sequence):
    """Read-only sequence of :class:`Span` over the rows of a table.

    A span is built for the element asked for and not kept: holding
    200k of them next to their rows is what the table exists to avoid.
    Compares equal to another view or a list holding equal spans.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: list):
        self._rows = rows

    @classmethod
    def of(cls, spans) -> "SpanView":
        """``spans`` itself if it is a view, else a table filled from
        its :class:`Span` objects."""
        if isinstance(spans, cls):
            return spans
        return cls([span_row(**vars(span)) for span in spans])

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SpanView(self._rows[index])
        return _span_of(self._rows[index])

    def __iter__(self):
        return map(_span_of, self._rows)

    def __eq__(self, other):
        if isinstance(other, SpanView):
            return self._rows == other._rows
        if isinstance(other, list):
            return len(other) == len(self._rows) and all(map(eq, self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"SpanView({len(self._rows)} spans)"


class SpanColumns:
    """The rows of a span table as NumPy columns, one entry per span.

    Built once per analysis (72k rows take ~45 ms); the analyses are
    reductions over these.  ``kind`` holds :data:`KIND_NAMES` codes,
    ``busy_s`` is ``dur - hidden_s`` (the same subtraction
    :attr:`Span.busy_s` does), ``group_len`` is -1 without a group,
    ``cid`` is NaN without one (ids stay exact in a float up to 2**53)
    and ``members`` is 1 where a span stands for itself alone.
    ``name`` and ``scope`` are object arrays of the row's own strings.
    """

    __slots__ = ("kind", "name", "rank", "t0", "dur", "hidden_s", "busy_s",
                 "nbytes", "flops", "group_len", "scope", "cid", "members")

    def __init__(self, rows: list):
        n = len(rows)
        # One list per field: ``zip(*rows)`` would allocate an iterator
        # per row, enough to trigger a full garbage collection.
        (kind, name, rank, t0, dur, hidden_s, nbytes, flops, group, scope,
         cid, members) = (list(map(itemgetter(i), rows))
                          for i in range(len(ROW_FIELDS) - 1))
        self.kind = np.fromiter(map(_KIND_CODE.__getitem__, kind), np.int8, n)
        self.rank = np.array(rank, dtype=np.int64)
        self.t0 = np.array(t0, dtype=float)
        self.dur = np.array(dur, dtype=float)
        self.hidden_s = np.array(hidden_s, dtype=float)
        self.busy_s = self.dur - self.hidden_s
        self.nbytes = np.array(nbytes, dtype=float)
        self.flops = np.array(flops, dtype=float)
        self.group_len = np.fromiter(
            (-1 if g is None else len(g) for g in group), np.int64, n)
        # a float array turns None into NaN
        self.cid = np.array(cid, dtype=float)
        members = np.array(members, dtype=float)
        self.members = np.where(np.isnan(members), 1.0, members)
        self.name = np.array(name, dtype=object)
        self.scope = np.array(scope, dtype=object)

    @classmethod
    def of(cls, trace) -> "SpanColumns":
        """Columns of a :class:`Tracer`, a :class:`SpanView` or any
        iterable of :class:`Span` (``trace`` itself if already columns)."""
        if isinstance(trace, cls):
            return trace
        return cls(SpanView.of(getattr(trace, "spans", trace))._rows)

    def __len__(self) -> int:
        return len(self.rank)

    def take(self, rows: np.ndarray) -> "SpanColumns":
        """The columns of the given row indices, in that order."""
        out = object.__new__(SpanColumns)
        for column in self.__slots__:
            setattr(out, column, getattr(self, column)[rows])
        return out


class _HeldCounters(dict):
    """``name -> Counter`` of one registry generation, fetched on first
    use: an emit pays a dict hit, not a typed lookup by name, and a
    counter nobody incremented is still never created."""

    def __init__(self, metrics):
        self.metrics = metrics
        self.generation = metrics.generation

    def __missing__(self, name: str):
        counter = self[name] = self.metrics.counter(name)
        return counter


class Tracer:
    """Records span rows and per-kind counters.

    The tracer is deterministic: given the same seeded simulation it
    produces the identical span table, so traces double as test
    fixtures.  Attach one to a cluster at construction
    (``VirtualCluster(..., tracer=Tracer())``) or later via
    :meth:`~repro.cluster.cluster.VirtualCluster.attach_tracer`.
    """

    enabled = True

    def __init__(self, metrics: MetricsRegistry | None = None):
        self._rows: list[tuple] = []
        #: The recorded spans, as a read-only view of the table.
        self.spans = SpanView(self._rows)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._counters = _HeldCounters(self.metrics)
        self._scope_parts: list[str] = []
        self._kind_override: list[str] = []
        #: Whether :meth:`set_context` labels are in force.
        self._in_context = False
        #: Scope label new rows carry (read-only for callers).
        self.current_scope = ""
        #: Span kind the active scope assigns to collectives.
        self.current_comm_kind = "collective"

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
        self._label_from_stack()
        try:
            with trace_log_context(**self._log_fields()):
                yield self
        finally:
            self._scope_parts.pop()
            if kind is not None:
                self._kind_override.pop()
            self._label_from_stack()

    def _label_from_stack(self) -> None:
        """Point the labels at the live scope stack (a context wins)."""
        if self._in_context:
            return
        self.current_scope = "/".join(self._scope_parts)
        self.current_comm_kind = (
            self._kind_override[-1] if self._kind_override else "collective")

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
        if scope is None:
            self._in_context = False
            self._label_from_stack()
        else:
            self._in_context = True
            self.current_scope = scope
            self.current_comm_kind = kind

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
        cid: int | None = None,
        members: int | None = None,
        **attrs,
    ) -> None:
        counter = _COUNTER.get(kind)
        if counter is None:
            raise _unknown_kind(kind)
        self._rows.append((kind, name, rank, t0, dur, hidden_s, nbytes, flops,
                           group, self.current_scope, cid, members,
                           attrs or None))
        self._held_counters()[counter].inc()

    def instant(self, kind: str, name: str, rank: int = 0, t0: float = 0.0,
                **attrs) -> None:
        """A zero-duration marker event (optimizer/checkpoint/io)."""
        self.span(kind, name, rank, t0, 0.0, **attrs)

    # -- Timeline hooks -----------------------------------------------------
    def on_compute(
        self, rank: int, t0: float, seconds: float, flops: float, op: str,
        members: int | None = None,
    ) -> None:
        """Called by ``Timeline.record_compute`` with the pre-record clock.

        ``members`` marks a class-annotated compact span from a folded
        timeline: the event stands for that many symmetric ranks.
        """
        self._rows.append(("compute", op, rank, t0, seconds, 0.0, 0.0, flops,
                           None, self.current_scope, None, members, None))
        counters = self._counters
        if counters.generation != self.metrics.generation:
            counters = self._held_counters()
        counters["spans.compute"].inc()

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
        counter = _COUNTER.get(kind)
        if counter is None:
            raise _unknown_kind(kind)
        self._rows.append((kind, op, rank, t0, seconds, hidden_s, nbytes, 0.0,
                           group, self.current_scope, cid, members, None))
        counters = self._counters
        if counters.generation != self.metrics.generation:
            counters = self._held_counters()
        counters[counter].inc()

    def mark_free(self, ranks, clocks, name: str, nbytes: float) -> None:
        """Marker for a gathered shard being released on each of
        ``ranks``, whose busy clocks read ``clocks``."""
        if not ranks:
            return
        name, scope = f"free.{name}", self.current_scope
        self._rows.extend([
            ("gather", name, rank, clock, 0.0, 0.0, nbytes, 0.0, None, scope,
             None, None, None)
            for rank, clock in zip(ranks, clocks)
        ])
        self._held_counters()["spans.gather"].inc(len(ranks))

    def extend_rows(self, order: bytes, counts, *sources) -> None:
        """The rows a run of ``on_compute`` / ``on_comm`` / ``mark_free``
        calls would append, in bulk: the next row of ``sources[code]``
        for each code of ``order``, and each ``(span kind, rows)`` of
        ``counts`` added to its counter, in the order those calls would
        first have touched them."""
        self._rows.extend(map(next, map(sources.__getitem__, order)))
        counters = self._held_counters()
        for kind, rows in counts:
            counters[_COUNTER[kind]].inc(rows)

    def _held_counters(self) -> "_HeldCounters":
        """The counter handles, dropped with the instruments they were
        when the registry has been ``reset()`` since."""
        if self._counters.generation != self.metrics.generation:
            self._counters = _HeldCounters(self.metrics)
        return self._counters

    # -- lifecycle ----------------------------------------------------------
    def clear(self) -> None:
        """Drop recorded spans (e.g. between simulated runs)."""
        self._rows.clear()

    def __len__(self) -> int:
        return len(self._rows)
