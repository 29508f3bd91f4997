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
dict, nothing the cyclic collector has to keep revisiting; a compiled
replay appends one :class:`SpanBlock` of columns instead.  **Reading**,
``tracer.spans`` is a :class:`SpanView` that builds a :class:`Span` for
the element asked for and forgets it (and a block's rows when first
read), and :class:`SpanColumns` is the table as NumPy columns once per
analysis (:mod:`repro.obs.analysis`, :mod:`repro.obs.critical_path`),
a block's own joined with the rows' around it.  Only this module knows
the row layout.

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
from typing import Callable, NamedTuple

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
    Compares equal to another view or a list holding equal spans.  A
    :class:`Tracer`'s view builds the rows of its blocks when first read
    after they land.
    """

    __slots__ = ("_table", "_blocks")

    def __init__(self, rows: list, blocks: list = ()):
        self._table = rows
        self._blocks = blocks

    @property
    def _rows(self) -> list:
        """The table, each pending ``(rows before it, block)`` built into
        it once, in place and in order."""
        if self._blocks:
            built, at = [], 0
            for start, block in self._blocks:
                built += self._table[at:start]
                built += block.rows()
                at = start
            self._blocks.clear()
            self._table[:at] = built
        return self._table

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


class SpanBlock(NamedTuple):
    """Rows held as the :class:`SpanColumns` they reduce to, until a
    row reader asks for them: what a compiled replay lands
    (:meth:`~repro.cluster.timeline.Timeline.replay`).

    ``order`` names each row's hook (0 ``on_compute``, 1 ``on_comm``, 2
    ``mark_free``), and :meth:`rows` builds the very tuples those calls
    append (``tests/obs/test_tracer.py::test_bulk_rows_are_the_hooks_rows``):
    name, rank, t0 and scope off ``columns``, the objects they do not
    keep (an ``int`` byte count, a group, an absent ``members``) off
    ``fields()``, per hook over its rows: ``(dur, flops, members)``,
    ``(kind, dur, hidden_s, nbytes, group, cid, members)``, ``(nbytes,)``.
    """

    columns: SpanColumns
    order: bytes
    fields: Callable

    def rows(self):
        """The block's rows, in order."""
        hooks = np.frombuffer(self.order, np.uint8)
        (name, rank, t0, scope), comm, free = (
            [getattr(self.columns, column)[hooks == hook].tolist()
             for column in ("name", "rank", "t0", "scope")] for hook in range(3))
        (dur, flops, members), (kind, *spent, group, cid, held), (nbytes,) = \
            self.fields()  # spent: a collective's dur, hidden_s and nbytes
        sources = (
            zip(repeat("compute"), name, rank, t0, dur, repeat(0.0), repeat(0.0),
                flops, repeat(None), scope, repeat(None), members, repeat(None)),
            zip(kind, *comm[:3], *spent, repeat(0.0), group, comm[3], cid, held,
                repeat(None)),
            zip(repeat("gather"), *free[:3], repeat(0.0), repeat(0.0), nbytes,
                repeat(0.0), repeat(None), free[3], repeat(None), repeat(None),
                repeat(None)),
        )
        return map(next, map(sources.__getitem__, self.order))


class SpanColumns:
    """The rows of a span table as NumPy columns, one entry per span.

    Made once per analysis; the analyses are reductions over these.  A
    tracer's are its blocks' own columns, joined with those of the rows
    the hooks appended around them: a compiled 113B step's 72k rows
    land as one block and build no row (split from rows, they take
    ~50 ms).  ``kind`` holds :data:`KIND_NAMES` codes,
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
        """Columns of a :class:`Tracer` (its blocks' rows not built), a
        :class:`SpanView` or any iterable of :class:`Span` (``trace``
        itself if already columns)."""
        if isinstance(trace, cls):
            return trace
        if isinstance(trace, Tracer):
            return trace._columns()
        return cls(SpanView.of(getattr(trace, "spans", trace))._rows)

    @classmethod
    def of_columns(cls, **columns) -> "SpanColumns":
        """Columns given by name (``busy_s`` made here unless given)."""
        out = object.__new__(cls)
        for name, column in columns.items():
            setattr(out, name, column)
        if "busy_s" not in columns:
            out.busy_s = out.dur - out.hidden_s
        return out

    def __len__(self) -> int:
        return len(self.rank)

    def take(self, rows: np.ndarray) -> "SpanColumns":
        """The columns of the given row indices, in that order."""
        return SpanColumns.of_columns(**{column: getattr(self, column)[rows]
                                         for column in self.__slots__})


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
        #: ``(rows before it, block)`` per :class:`SpanBlock` not built
        #: yet: its rows follow that many of ``_rows``.
        self._blocks: list[tuple] = []
        #: The recorded spans, as a read-only view of the table.
        self.spans = SpanView(self._rows, self._blocks)
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

    def append_block(self, block: SpanBlock, counts) -> None:
        """The rows a run of ``on_compute`` / ``on_comm`` / ``mark_free``
        calls would append, as one block, and each ``(span kind, rows)``
        of ``counts`` added to its counter, in the order those calls
        would first have touched them."""
        self._blocks.append((len(self._rows), block))
        counters = self._held_counters()
        for kind, rows in counts:
            counters[_COUNTER[kind]].inc(rows)

    def _held_counters(self) -> "_HeldCounters":
        """The counter handles, dropped with the instruments they were
        when the registry has been ``reset()`` since."""
        if self._counters.generation != self.metrics.generation:
            self._counters = _HeldCounters(self.metrics)
        return self._counters

    # -- the table ----------------------------------------------------------
    def _columns(self) -> SpanColumns:
        """The table's columns: each block's own, joined with those of the
        runs of rows before, between and after the blocks."""
        parts, at = [], 0
        for start, block in self._blocks:
            if start > at:
                parts.append(SpanColumns(self._rows[at:start]))
            parts.append(block.columns)
            at = start
        if len(self._rows) > at or not parts:
            parts.append(SpanColumns(self._rows[at:]))
        if len(parts) == 1:
            return parts[0]
        return SpanColumns.of_columns(**{
            column: np.concatenate([getattr(part, column) for part in parts])
            for column in SpanColumns.__slots__})

    # -- lifecycle ----------------------------------------------------------
    def clear(self) -> None:
        """Drop recorded spans (e.g. between simulated runs)."""
        self._rows.clear()
        self._blocks.clear()

    def __len__(self) -> int:
        return len(self._rows) + sum(len(block.order) for _, block in self._blocks)
