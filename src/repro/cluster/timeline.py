"""Per-rank ledgers of compute and communication time.

The paper's walltime results (Table I, Figs 6–7) depend on three
effects the timeline must capture:

* compute time, derived from FLOP counts and device throughput;
* communication time, derived from the alpha-beta cost model;
* *overlap*: with prefetching (Sec III-B) shard gathers are issued
  ahead of use, so their cost hides under compute up to the available
  compute slack.

Every rank accumulates totals; the simulated walltime of a phase is the
maximum over participating ranks (bulk-synchronous semantics).

The timeline is also the tracing choke point: every recorded unit of
time passes through :meth:`Timeline.record_compute` or
:meth:`Timeline.record_comm`, so an attached
:class:`~repro.obs.tracer.Tracer` receives one span per event with the
exact pre-record busy clock and the hidden/exposed split.  The default
tracer and fault injector are :data:`~repro.obs.off.OFF`, the one
disabled handle, which keeps the untraced path allocation-free.

Being the choke point also makes the timeline the one place an event
stream can be *captured* and *replayed*: :meth:`Timeline.capture`
collects the ``record_*`` calls made inside a ``with`` block and
:meth:`Timeline.replay` makes them again — shifted, renamed — through
the same entry points.  :meth:`FoldedTimeline.expand`, the trunk's
depth replay (:mod:`repro.core.hybrid_block`), a meta session's step
replay (:meth:`repro.runtime.session.Session.meta_step`) and the tuner's
estimator (:mod:`repro.tune.estimator`) all run on that one replayer.
Captures nest, and a replay made under one is kept by reference, so a
step's stream holds its trunk's one executed block once.

That event walk is also the oracle of the one shortcut here: a stream
wrapped as an :class:`EventStream` compiles, once per receiver
signature, at its first replay there, to per-ledger float columns, span
columns and log entries, and a replay that no capture observes and
whose injector's ``pricing`` is settled lands them in bulk instead of
visiting the events — on an exact or a folded timeline, traced or not,
nested replays and folded segments included, and under a stretching
injector on an untraced exact one (:meth:`Timeline.replay` states the
conditions; ``tests/cluster/test_compiled_replay.py`` holds the two
paths ``==``).
"""

from __future__ import annotations

import itertools
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.obs.off import OFF
from repro.obs.tracer import (
    COMPUTE, GATHER, KIND_NAMES, SPAN_KINDS, SpanBlock, SpanColumns, Tracer,
    _unknown_kind)


def stretch_compute(seconds: float, factor: float, op: str) -> float:
    """``seconds`` of compute ``op`` on a rank running ``factor`` times slower.

    The one rule every degradation injector's ``before_compute`` applies.
    ``pipeline.stall`` is exempt: the engine derives that filler from
    the stages' busy times, which the slowdown has already stretched —
    it is idle time up to the 1F1B makespan, not work, and stretching it
    again would push the step past the makespan it pads to.
    """
    return seconds if op == "pipeline.stall" else seconds * factor


@dataclass
class RankLedger:
    """Accumulated times (seconds) and counters for one rank."""

    compute_s: float = 0.0
    comm_s: float = 0.0
    exposed_comm_s: float = 0.0
    flops: float = 0.0
    comm_bytes: float = 0.0
    #: compute time logged since the last overlappable communication,
    #: available to hide a future prefetched gather under.
    overlap_budget_s: float = 0.0

    @property
    def walltime_s(self) -> float:
        """Busy time of this rank: compute plus non-hidden communication."""
        return self.compute_s + self.exposed_comm_s


#: Budget-program opcodes: compute grows a ledger's overlap budget, an
#: overlappable collective hides under it, a blocking one resets it.
_GROW, _HIDE, _RESET = range(3)

#: What a landed event is, in a compiled form's merge orders: the
#: three ``record_*`` kinds, and a folded segment's marker.  The first
#: two also index a ledger's ``[computes, collectives]`` counts.
_COMPUTE, _COMM, _FREE, _MARK = range(4)


class _LedgerColumns(NamedTuple):
    """What one ledger sees of a compiled replay, in event order."""

    #: The ledger: a rank, or a folded timeline's class key.
    address: object
    compute_s: tuple
    flops: tuple
    comm_s: tuple
    comm_bytes: tuple
    #: The budget program: one opcode per compute and collective, whose
    #: seconds are the next of ``compute_s`` or ``comm_s``.
    ops: bytes
    #: ``{entry budget: (exposed, hidden, exit budget)}``, or ``None``
    #: when no blocking collective makes an entry budget likely to recur.
    memo: dict | None


class _Landed(NamedTuple):
    """What a tracer and an event log read of a compiled replay."""

    #: Per kind (compute, comm, free): the entries as recorded, in walk
    #: order.
    events: tuple
    #: Per kind: their rank (compute) or group, shifted by the offset
    #: they land at, or ``None`` when every offset was 0.
    ranks: tuple
    #: Per kind: the indices of their op names and scopes in ``texts``.
    names: tuple
    scopes: tuple
    #: The texts the entries name, as recorded, grouped by rename
    #: context; ``contexts`` holds ``(renames before the replay's own,
    #: renames after them, how many texts)`` per group.
    texts: tuple
    contexts: tuple
    #: The log's merge order: a kind code per landed event or marker.
    order: bytes
    markers: tuple


class _Rows(NamedTuple):
    """The span rows of a compiled replay, in walk order."""

    #: Per row: kind (compute, comm, free), event (computes first, then
    #: collectives, then releases), ledger, and where that ledger's clock
    #: reads before the event in the flat compute and exposed prefixes.
    order: bytes
    event: np.ndarray
    ledger: np.ndarray
    at_compute: np.ndarray
    at_exposed: np.ndarray
    #: Per event, the span columns no landing changes: ``kind``, ``dur``,
    #: ``amount`` (FLOPs or bytes), ``group_len``, ``name`` and ``scope``
    #: text ids (a release's name past the texts, at ``free.<name>``).
    columns: dict
    #: ``((span kind, rows), ...)`` in the order the rows first use them.
    counts: tuple


class _Form(NamedTuple):
    """A stream compiled for one receiver signature."""

    ledgers: tuple
    collectives: int
    #: ``None`` where nothing but the ledgers observes a replay.
    landed: _Landed | None
    #: ``None`` untraced.
    rows: _Rows | None
    #: The offset it was compiled at; a replay at another offset lands
    #: its per-rank ledgers shifted by the difference.
    offset: int
    #: The lowest and highest rank addressed on a per-rank ledger list
    #: (``(0, -1)`` if none).
    ranks: tuple


class EventStream(tuple):
    """An immutable captured event stream that carries its compiled forms.

    A ledger sees only its own events, and every ledger field is an
    independent *sequential* sum over them, so a stream compiles to one
    float column per field and ledger.  The one non-linearity is the
    overlap budget (``hidden = min(seconds, budget)``): for a fixed
    stream the exposed and hidden seconds of each collective and the
    exit budget are a pure function of the budget the ledger *enters*
    with, so they come from running the ledger's budget program once per
    distinct entry budget, memoized under it.  A span's ``t0`` is the
    ledger's clock before its event, read off running prefixes of the
    compute and exposed columns; names and scopes index a table of the
    distinct ones, renamed once per replay.

    Which ledgers an event lands on, which events a release marker or a
    folded segment turns into and which rows and log entries they leave
    depend on the receiver, so a form is compiled per signature
    (:meth:`Timeline._signature`: the timeline's kind and partition,
    its fold state, tracer on or off, and the offset — which an untraced
    exact timeline, reading nothing but rank-shifted ledgers, leaves out
    — plus, under an injector whose settled ``pricing`` is not ``()``,
    that pricing and the offset: its factors name absolute ranks) and
    kept on the stream, never in a module cache: it is freed with the
    stream.  A signature's first replay builds the form it and every
    later one lands.  :meth:`Timeline.replay` says where a form is
    applied; the event walk is its oracle.
    """

    _forms = None

    def compiled(self, timeline, offset: int = 0,
                 pricing: tuple = ()) -> "_Form | None":
        """The form for ``timeline`` at ``offset`` under its injector's
        settled ``pricing`` (never ``None``: a replay under that walks
        without asking), compiled on the signature's first use; ``None``
        on an observed receiver (a tracer or an event log) under a
        ``pricing`` other than ``()``: its rows and log would read the
        recorded seconds, not the stretched ones.  Events are validated
        at compile time, once: a negative value, or a comm kind the
        tracer does not know, raises the ``ValueError`` the walk would,
        before anything lands."""
        forms = self._forms
        if forms is None:
            forms = self._forms = {}
        signature = timeline._signature(offset)
        if pricing:
            if timeline.tracer.enabled or timeline._keeps_log:
                return None
            signature += (pricing, offset)
        form = forms.get(signature)
        if form is None:
            form = forms[signature] = _Compiler(timeline, pricing).form(
                self, signature[-1])
        return form


class _Compiler:
    """What :meth:`EventStream.compiled` runs: :meth:`Timeline._replay`'s
    walk, with each event's landing written down instead of made.

    A by-reference ``("replay", ...)`` entry is compiled once per
    stream, offset and segment state as a *piece* — a compiler of its
    own, run on the inner stream alone — and spliced into this one per
    entry with its ledgers, counts, event indices and rename context
    rebased, so a trunk's L - 1 block copies cost L - 1 splices, not
    L - 1 walks.

    Under a ``pricing`` other than ``()`` (an untraced exact receiver)
    each compute and collective passes its seconds through the
    injector's ``before_compute`` / ``before_comm`` here, once, as the
    walk's ``record_*`` would, after the sign check.
    """

    def __init__(self, timeline, pricing=(), pieces=None):
        self.timeline = timeline
        self.pricing = pricing
        injector = timeline.injector
        self.before_compute = injector.before_compute if pricing else None
        self.before_comm = injector.before_comm if pricing else None
        self.traced = timeline.tracer.enabled
        #: Whether anything past the ledgers reads an event (its name,
        #: scope and release markers): a tracer or an event log.
        self.observed = self.traced or timeline._keeps_log
        self.pieces = {} if pieces is None else pieces
        self.index: dict = {}    # ledger address -> its index
        self.columns: list = []  # per ledger: 4 columns and a bytearray
        #: per ledger: [computes, collectives] so far (kept traced, for
        #: the rows' clock indices)
        self.counts: list = []
        #: per segment state (outside, inside a folded FSDP segment):
        #: ranks -> the indices of the ledgers they land on
        self.landing = ({}, {})
        self.collectives = 0
        if not self.observed:
            return
        self.texts: list = []
        self.text_context = array("i")
        self.contexts: dict = {}  # (prefix, suffix) -> (number, {text: index})
        self.events = ([], [], [])
        self.ranks = ([], [], [])
        self.names = tuple(array("i") for _ in range(3))
        self.scopes = tuple(array("i") for _ in range(3))
        self.shifted = False
        self.order = bytearray()
        self.markers: list = []
        self.marks: dict = {}     # each distinct marker, kept once
        #: per row, in walk order: its event's index among its kind's,
        #: its ledger, and that ledger's computes and collectives before
        #: it (made flat prefix indices by ``form``); and its kind
        self.rows = tuple(array("i") for _ in range(4))
        self.row_order = bytearray()

    def form(self, events, offset) -> _Form:
        self.walk(events, 0, len(events), offset, (), (),
                  self.timeline._in_fsdp_segment())
        addresses = list(self.index)
        ranks = [a for a in addresses if type(a) is int]
        # Symmetric ledgers see equal columns: each distinct one is kept
        # once per field (a byte count is no seconds column, though
        # 0 == 0.0), and ledgers with one budget program share its memo.
        columns = ({}, {}, {}, {})
        memos: dict = {}
        ledgers = []
        for address, fields in zip(addresses, self.columns):
            compute_s, flops, comm_s, comm_bytes = map(_interned, columns, fields[:4])
            ops = bytes(fields[4])
            memo = memos.setdefault((ops, id(compute_s), id(comm_s)),
                                    {} if _RESET in ops else None)
            ledgers.append(_LedgerColumns(address, compute_s, flops, comm_s,
                                          comm_bytes, ops, memo))
        del columns, memos
        landed = rows = None
        if self.observed:
            landed = self._landed()
        if self.traced:
            order = bytes(self.row_order)
            event, ledger, computes, collectives = map(_ints, self.rows)
            # Ledger j's prefixes start at the sum of the earlier ones'
            # lengths, each one longer than its column.
            lengths = np.array(self.counts, np.int32).reshape(-1, 2) + 1
            starts = (np.cumsum(lengths, axis=0, dtype=np.int32) - lengths)[ledger]
            (on_compute, on_comm, on_free), names = self.events, landed.names
            n_compute, n_free = len(on_compute), len(on_free)
            event = event + np.cumsum([0, n_compute, len(on_comm)], dtype=np.int32)[
                np.frombuffer(order, np.uint8)]
            static = {  # per event: computes, then collectives, then releases
                "kind": np.array([COMPUTE] * n_compute + [KIND_NAMES.index(e[7]) for e
                                  in on_comm] + [GATHER] * n_free, np.int8),
                "dur": np.array([*map(_SECONDS, on_compute + on_comm)] + [0.0] * n_free, float),
                "amount": np.array([*map(_AMOUNT, on_compute + on_comm + on_free)], float),
                "group_len": np.array([-1] * n_compute + [*map(len, self.ranks[1])]
                                      + [-1] * n_free, np.int64),
                "name": np.concatenate([*names[:2], names[2] + len(landed.texts)]),
                "scope": np.concatenate(landed.scopes),
            }
            kinds = static["kind"][event].tolist()
            rows = _Rows(order, _narrow(event, len(static["kind"])),
                         _narrow(ledger, len(lengths)),
                         _narrow(starts[:, 0] + computes, lengths[:, 0].sum()),
                         _narrow(starts[:, 1] + collectives, lengths[:, 1].sum()),
                         static, tuple((KIND_NAMES[k], kinds.count(k))
                                       for k in dict.fromkeys(kinds)))
        return _Form(tuple(ledgers), self.collectives, landed, rows, offset,
                     (min(ranks, default=0), max(ranks, default=-1)))

    def _landed(self) -> _Landed:
        """The landed events, their texts grouped by rename context."""
        grouped = np.argsort(_ints(self.text_context), kind="stable")
        moved = np.empty_like(grouped)
        moved[grouped] = np.arange(len(grouped))
        sizes = np.bincount(_ints(self.text_context), minlength=len(self.contexts))
        return _Landed(
            tuple(map(tuple, self.events)),
            tuple(map(tuple, self.ranks)) if self.shifted else (None,) * 3,
            *(tuple(np.take(moved, _ints(ids)).astype(np.int32)
                    for ids in per_kind)
              for per_kind in (self.names, self.scopes)),
            tuple(map(self.texts.__getitem__, grouped.tolist())),
            tuple((*renames, size) for renames, size
                  in zip(self.contexts, sizes.tolist()) if size),
            bytes(self.order), tuple(self.markers))

    def _ledgers(self, key, ranks, in_fsdp) -> tuple:
        """The indices of the ledgers an event over ``ranks`` lands on,
        kept under ``key`` (a compute's one rank, or the group)."""
        found = self.landing[in_fsdp][key] = tuple(
            map(self._ledger, self.timeline._landing(ranks, in_fsdp)))
        return found

    def _ledger(self, address) -> int:
        j = self.index.get(address)
        if j is None:
            j = self.index[address] = len(self.columns)
            self.columns.append(([], [], [], [], bytearray()))
            self.counts.append([0, 0])
        return j

    def _context(self, prefix, suffix) -> tuple:
        """``(number, {text: index})`` of a rename context."""
        context = self.contexts.get((prefix, suffix))
        if context is None:
            context = self.contexts[prefix, suffix] = (len(self.contexts), {})
        return context

    def walk(self, events, start, end, offset, prefix, suffix, in_fsdp):
        timeline, observed, traced = self.timeline, self.observed, self.traced
        columns, counts, ledgers = self.columns, self.counts, self._ledgers
        before_compute, before_comm = self.before_compute, self.before_comm
        landing = self.landing[in_fsdp]
        if observed:
            number, seen = self._context(prefix, suffix)
            order, markers, marks = self.order, self.markers, self.marks
            self.shifted = self.shifted or bool(offset)
        #: the segment state outside each folded segment open here
        outside: list = []
        collectives = 0
        i = start
        while i < end:
            entry = events[i]
            tag = entry[0]
            i += 1
            if tag == "comm":
                seconds = entry[2]
                if seconds < 0:
                    raise ValueError("comm seconds must be non-negative")
                group = tuple(r + offset for r in entry[1]) if offset else entry[1]
                if before_comm is not None:
                    seconds = before_comm(group, seconds, entry[5])
                collectives += 1
                landed = landing.get(group)
                if landed is None:
                    landed = ledgers(group, group, in_fsdp)
                amount, op = entry[3], _HIDE if entry[4] else _RESET
                for j in landed:
                    fields = columns[j]
                    fields[2].append(seconds)
                    fields[3].append(amount)
                    fields[4].append(op)
                kind = _COMM
            elif tag == "compute":
                seconds = entry[2]
                if seconds < 0:
                    raise ValueError("compute seconds must be non-negative")
                group = entry[1] + offset
                if before_compute is not None:
                    seconds = before_compute(group, seconds, entry[4])
                landed = landing.get(group)
                if landed is None:
                    landed = ledgers(group, (group,), in_fsdp)
                amount = entry[3]
                for j in landed:
                    fields = columns[j]
                    fields[0].append(seconds)
                    fields[1].append(amount)
                    fields[4].append(_GROW)
                kind = _COMPUTE
            elif tag == "free":
                if not observed:
                    continue  # an untraced exact timeline drops releases
                group = tuple(r + offset for r in entry[1]) if offset else entry[1]
                if traced:
                    landed = landing.get(group)
                    if landed is None:
                        landed = ledgers(group, group, in_fsdp)
                else:
                    landed = ()  # logged, never on a ledger
                kind = _FREE
            elif tag == "push":
                _, axis, count, stride, rename = entry
                if timeline.folds_axis(axis) and count:
                    # walked in line: one iteration, closed at its "pop"
                    marker = timeline._push_marker(axis)
                    markers.append(marks.setdefault(marker, marker))
                    order.append(_MARK)
                    outside.append(in_fsdp)
                    in_fsdp = in_fsdp or axis == "fsdp"
                    landing = self.landing[in_fsdp]
                    continue
                j = _segment_end(events, i - 1)
                if not timeline.folds_axis(axis):
                    for it in range(count):
                        self.walk(events, i, j - 1, offset + it * stride,
                                  prefix, _iteration_renames(suffix, rename, it),
                                  in_fsdp)
                i = j  # fold_iter opens no segment over nothing
                continue
            elif tag == "pop":
                markers.append(marks.setdefault(entry, entry))
                order.append(_MARK)
                in_fsdp = outside.pop()
                landing = self.landing[in_fsdp]
                continue
            else:  # "replay"
                _, inner, inner_offset, inner_renames = entry
                self._splice(inner, offset + inner_offset,
                             inner_renames + prefix, suffix, in_fsdp)
                continue
            if not observed:
                continue
            if traced and landed:
                if kind == _COMM and entry[7] not in SPAN_KINDS:
                    raise _unknown_kind(entry[7])  # as the tracer's on_comm
                # Each row, with its ledger's computes and collectives
                # before it (a rank named twice sees its first landing).
                row_event, row_ledger, row_computes, row_collectives = self.rows
                event = len(self.events[kind])
                for j in landed:
                    at = counts[j]
                    row_event.append(event)
                    row_ledger.append(j)
                    row_computes.append(at[0])
                    row_collectives.append(at[1])
                    if kind != _FREE:
                        at[kind] += 1
                self.row_order.extend(bytes((kind,)) * len(landed))
            name_at, scope_at = _NAME_AND_SCOPE[tag]
            name, scope = entry[name_at], entry[scope_at]
            name_id = seen.get(name)
            if name_id is None:
                name_id = seen[name] = self._text(name, number)
            scope_id = seen.get(scope)
            if scope_id is None:
                scope_id = seen[scope] = self._text(scope, number)
            self.events[kind].append(entry)
            self.ranks[kind].append(group)
            self.names[kind].append(name_id)
            self.scopes[kind].append(scope_id)
            order.append(kind)
        self.collectives += collectives

    def _splice(self, inner, offset, prefix, suffix, in_fsdp) -> None:
        """Land a nested replay of ``inner``: its piece, rebased here."""
        key = (id(inner), offset, in_fsdp)
        piece = self.pieces.get(key)
        if piece is None:
            piece = self.pieces[key] = _Compiler(self.timeline, self.pricing,
                                                 self.pieces)
            piece.walk(inner, 0, len(inner), offset, (), (), in_fsdp)
        here = [self._ledger(address) for address in piece.index]
        if self.traced:
            computes_at, collectives_at = np.array(
                [self.counts[j] for j in here], np.int32).reshape(-1, 2).T
        for j, fields, (computes, collectives) in zip(here, piece.columns,
                                                      piece.counts):
            mine = self.columns[j]
            for column, more in zip(mine, fields):
                column += more
            self.counts[j][0] += computes
            self.counts[j][1] += collectives
        self.collectives += piece.collectives
        if not self.observed:
            return
        self.shifted = self.shifted or piece.shifted
        # The piece's texts follow this one's, each in the context it
        # lands in here (a text two splices share is kept twice).
        first_text = len(self.texts)
        contexts = [self._context(inner_prefix + prefix, suffix + inner_suffix)[0]
                    for inner_prefix, inner_suffix in piece.contexts]
        self.texts += piece.texts
        _extend(self.text_context, np.take(contexts, _ints(piece.text_context)))
        if self.traced:
            row_events, ledgers, computes, collectives = map(_ints, piece.rows)
            first = np.array([len(events) for events in self.events])
            for column, more in zip(self.rows, (
                    row_events + first[np.frombuffer(piece.row_order, np.uint8)],
                    np.take(here, ledgers), np.take(computes_at, ledgers) + computes,
                    np.take(collectives_at, ledgers) + collectives)):
                _extend(column, more)
        for kind in range(3):
            self.events[kind].extend(piece.events[kind])
            self.ranks[kind].extend(piece.ranks[kind])
            _extend(self.names[kind], _ints(piece.names[kind]) + first_text)
            _extend(self.scopes[kind], _ints(piece.scopes[kind]) + first_text)
        self.order += piece.order
        self.markers += piece.markers
        self.row_order += piece.row_order

    def _text(self, text, context: int) -> int:
        self.texts.append(text)
        self.text_context.append(context)
        return len(self.texts) - 1


def _interned(kept: dict, column: list) -> tuple:
    """``column`` as a tuple, the one already in ``kept`` if that holds
    the same doubles (equal floats are not enough: -0.0 == 0.0)."""
    column = tuple(column)
    found = kept.setdefault(column, column)
    if found is column or array("d", found).tobytes() == array("d", column).tobytes():
        return found
    return column


def _ints(values: array) -> np.ndarray:
    """An ``array("i")`` as NumPy int32s (a view)."""
    return np.frombuffer(values, np.int32)


def _extend(values: array, more: np.ndarray) -> None:
    """Append NumPy ints to an ``array("i")``."""
    values.frombytes(more.astype(np.int32).tobytes())


def _narrow(values: np.ndarray, top) -> np.ndarray:
    """``values``, ints in ``range(top)``, in the narrowest unsigned type."""
    return values.astype(np.min_scalar_type(max(int(top) - 1, 0)))


def _run_budget(columns: _LedgerColumns, budget, traced: bool) -> tuple:
    """``(exposed, hidden, exit budget)`` of one ledger's budget program
    entered with ``budget`` (``hidden`` is ``None`` untraced): the
    arithmetic of ``record_compute`` / ``record_comm`` on
    ``overlap_budget_s``, expression for expression.  Traced,
    ``exposed`` is kept as C doubles (exact, a third of the size of
    float objects, for the large memos of step tapes) and ``hidden``
    holds the very floats the walk's spans would; untraced, ``exposed``
    is a tuple, which a landing sums without making a float per item."""
    grows, costs = iter(columns.compute_s), iter(columns.comm_s)
    exposed, hidden = [], [] if traced else None
    for op in columns.ops:
        if op == _GROW:
            budget += next(grows)
            continue
        seconds = next(costs)
        if op == _HIDE:
            part = min(seconds, budget)
            budget -= part
        else:
            part = 0.0
            budget = 0.0
        exposed.append(seconds - part)
        if traced:
            hidden.append(part)
    if not traced:
        return tuple(exposed), None, budget
    return array("d", exposed), tuple(hidden), budget


def _renamed_texts(landed: _Landed, renames: tuple) -> list:
    """``landed.texts`` with each context's renames and ``renames``
    applied: the names and scopes the walk's ``_Renamed`` memos hold."""
    out, at = [], 0
    for prefix, suffix, size in landed.contexts:
        texts = landed.texts[at:at + size]
        at += size
        for old, new in prefix + renames + suffix:
            texts = [text.replace(old, new) for text in texts]
        out += texts
    return out


#: Fields of a recorded entry: a compute's rank or a comm's or free's
#: group; seconds; a compute's FLOPs or a comm's or free's bytes; a
#: comm's overlappable flag and its collective kind.
_RANKS, _SECONDS, _AMOUNT, _OVERLAPPABLE, _KIND = map(itemgetter, (1, 2, 3, 4, 7))


def _merged(landed: _Landed, texts: np.ndarray, traced: bool):
    """A folded timeline's log entries of a compiled replay, lazily, in
    the walk's order: what ``_land_*`` and ``_mark`` append, with the
    renamed ``texts``, the scope and collective kind an untraced tracer
    reports included."""
    computes, comms, frees = landed.events
    names = [texts[ids].tolist() for ids in landed.names]
    scopes = ([texts[ids].tolist() for ids in landed.scopes] if traced
              else [repeat("")] * 3)
    shifted = [map(_RANKS, events) if ranks is None else ranks
               for events, ranks in zip(landed.events, landed.ranks)]
    sources = (
        zip(repeat("compute"), shifted[0], map(_SECONDS, computes),
            map(_AMOUNT, computes), names[0], scopes[0]),
        zip(repeat("comm"), shifted[1], map(_SECONDS, comms),
            map(_AMOUNT, comms), map(_OVERLAPPABLE, comms), names[1],
            scopes[1], map(_KIND, comms) if traced else repeat("collective")),
        zip(repeat("free"), shifted[2], names[2], map(_AMOUNT, frees),
            scopes[2]),
        iter(landed.markers),
    )
    return map(next, map(sources.__getitem__, landed.order))


class Timeline:
    """Compute/communication accounting across all ranks of a cluster."""

    def __init__(self, num_ranks: int, tracer=None):
        if num_ranks < 1:
            raise ValueError("num_ranks must be positive")
        self._num_ranks = num_ranks
        self._ledgers = self._fresh_ledgers()
        self.tracer = tracer if tracer is not None else OFF
        #: Fault-injection hook; every event consults it before recording.
        self.injector = OFF
        #: Collective sequence ids: every ``record_comm`` call issues one
        #: id shared by all participating ranks' spans, so an analyzer
        #: can reconstruct cross-rank dependency edges (which rank's
        #: arrival gated each collective).
        self._collective_ids = itertools.count()
        #: Sink of the open :meth:`capture`, if any.
        self._capture: list[tuple] | None = None

    @property
    def num_ranks(self) -> int:
        return self._num_ranks

    def _fresh_ledgers(self) -> list[RankLedger]:
        """One zeroed ledger per rank (construction and :meth:`reset`)."""
        return [RankLedger() for _ in range(self._num_ranks)]

    def ledger(self, rank: int) -> RankLedger:
        """Ledger for one rank."""
        return self._ledgers[rank]

    # -- recording ---------------------------------------------------------
    def record_compute(
        self, rank: int, seconds: float, flops: float = 0.0, op: str = "compute"
    ) -> None:
        """Log compute work on ``rank``; it also grows the overlap budget.

        ``op`` names the span an attached tracer records (e.g. the
        sharded layer the FLOPs belong to).
        """
        if seconds < 0:
            raise ValueError("compute seconds must be non-negative")
        scope = self.tracer.current_scope
        if self._capture is not None:
            self._capture.append(("compute", rank, seconds, flops, op, scope))
        seconds = self.injector.before_compute(rank, seconds, op)
        self._land_compute(rank, seconds, flops, op, scope)

    def record_comm(
        self,
        ranks: Iterable[int],
        seconds: float,
        nbytes: float,
        overlappable: bool = False,
        op: str = "comm",
    ) -> None:
        """Log one collective of ``seconds`` across ``ranks``.

        When ``overlappable`` (prefetched gathers), the cost is hidden
        under each rank's accumulated compute slack; only the excess is
        exposed.  Non-overlappable collectives (e.g. the blocking
        all-reduce closing a micro-batch) are fully exposed.

        ``op`` names the collective for an attached tracer, which
        receives one span per participating rank carrying the
        per-rank hidden/exposed split.
        """
        if seconds < 0:
            raise ValueError("comm seconds must be non-negative")
        ranks = tuple(ranks)
        scope, kind = self.tracer.current_scope, self.tracer.current_comm_kind
        if self._capture is not None:
            self._capture.append(("comm", ranks, seconds, nbytes, overlappable,
                                  op, scope, kind))
        seconds = self.injector.before_comm(ranks, seconds, op)
        self._land_comm(ranks, seconds, nbytes, overlappable, op, scope, kind,
                        next(self._collective_ids))

    def record_free(self, ranks: Iterable[int], name: str, nbytes: float) -> None:
        """Log a zero-duration release marker (freed gathered shards).

        The marker exists for the tracer alone, so an untraced exact
        timeline neither emits nor captures it (replaying it here would
        do nothing); a timeline that keeps an event log
        (:class:`FoldedTimeline`) always captures and logs it.
        """
        if not (self.tracer.enabled or self._keeps_log):
            return
        ranks = tuple(ranks)
        scope = self.tracer.current_scope
        if self._capture is not None:
            self._capture.append(("free", ranks, name, nbytes, scope))
        self._land_free(ranks, name, nbytes, scope)

    # -- landing: the event as the injector left it, on ledgers and tracer
    #: Whether an untraced timeline still records release markers (a
    #: folded one logs them for :meth:`FoldedTimeline.expand`).
    _keeps_log = False

    # One body for every receiver, on the ledgers its hooks name: the
    # arithmetic :func:`_run_budget` and :meth:`_land`'s sums reproduce.
    def _land_compute(self, rank, seconds, flops, op, scope) -> None:
        store, owner = self._ledger_store(), self._row_owner
        for address in self._landing((rank,), None):
            led = store[address]
            t0 = led.walltime_s
            led.compute_s += seconds
            led.flops += flops
            led.overlap_budget_s += seconds
            at, members = owner(address)
            self.tracer.on_compute(at, t0, seconds, flops, op, members=members)

    def _land_comm(self, ranks, seconds, nbytes, overlappable, op, scope,
                   kind, cid) -> None:
        store, owner = self._ledger_store(), self._row_owner
        for address in self._landing(ranks, None):
            led = store[address]
            t0 = led.walltime_s
            led.comm_s += seconds
            led.comm_bytes += nbytes
            if overlappable:
                hidden = min(seconds, led.overlap_budget_s)
                led.overlap_budget_s -= hidden
            else:
                hidden = 0.0
                led.overlap_budget_s = 0.0
            led.exposed_comm_s += seconds - hidden
            at, members = owner(address)
            self.tracer.on_comm(at, t0, seconds, hidden, nbytes, op, ranks,
                                cid=cid, members=members)

    def _land_free(self, ranks, name, nbytes, scope) -> None:
        if not self.tracer.enabled:
            return
        store, addresses = self._ledger_store(), self._landing(ranks, None)
        self.tracer.mark_free(
            [self._row_owner(address)[0] for address in addresses],
            [store[address].walltime_s for address in addresses], name, nbytes)

    # -- event streams: capture and replay ---------------------------------
    @contextmanager
    def capture(self, ranks=None):
        """Collect the event stream recorded inside the ``with`` block.

        Yields a list that fills with one entry per ``record_*`` call
        and per folded-segment marker, in the layout of
        :attr:`FoldedTimeline._log`.  An entry is what the caller asked
        to record — seconds as priced, *before* the fault injector
        stretches them — plus the tracer scope and collective kind in
        force, so :meth:`replay` of the list repeats the calls
        themselves.  ``ranks`` narrows the finished stream to the
        accounting that touches those ranks (an estimator simulating
        only class representatives) and flattens it: a folded segment
        is resolved into the iterations that touch ``ranks``, so the
        narrowed capture of a folded run ``==`` that of an exact one.

        Captures nest (a trunk's depth capture opens inside a session's
        step capture): the innermost open one is the sink, and when it
        closes its events — un-narrowed — flow into the enclosing
        stream.  A :meth:`replay` made while a capture is open lands in
        it as **one** entry ``("replay", events, offset, renames)``
        holding the stream by reference: L - 1 replays of a block cost
        L - 1 entries, not L - 1 copies.
        """
        outer = self._capture
        events: list[tuple] = []
        self._capture = events
        try:
            yield events
        finally:
            self._capture = outer
            if outer is not None:
                outer.extend(events)
            if ranks is not None:
                events[:] = _restrict(events, ranks, self.tracer.enabled)

    def replay(self, events, offset: int = 0, renames: tuple = ()) -> None:
        """Record a captured (or logged) event stream on this timeline.

        Every entry goes back through :meth:`record_compute` /
        :meth:`record_comm` / :meth:`record_free`, so the injector, the
        ledgers' overlap budgets, the collective-id sequence, the tracer
        and a folded timeline's event log see the call sequence the
        original code made — with ranks shifted by ``offset`` and every
        ``(old, new)`` pair of ``renames`` substituted in op names and
        scopes.  A segment marker re-enters :meth:`fold_iter`: a folded
        timeline replays the body once inside the same segment, an
        exact one unrolls it over the folded axis (rank stride and
        per-iteration rename come from the marker).  For the duration
        the tracer labels spans from the recorded scope and kind
        instead of its live scope stack.

        A ``("replay", ...)`` entry (see :meth:`capture`) is resolved by
        recursion: its offset adds to ``offset`` and its renames apply
        before ``renames``.  Renames go through a memo local to this
        call, so each distinct name or scope is rebuilt once and the
        spans it labels share one string.  While a :meth:`capture` is
        open the replay is recorded there and walked with it suspended.

        An :class:`EventStream` skips that walk iff no :meth:`capture`
        is open — the one observer that sees each call as it is made —
        and the injector's ``pricing`` is settled (not ``None``: no hook
        call can raise or change state; :mod:`repro.faults.injector`).
        It lands from the form compiled for this timeline's signature
        (:meth:`_land`, :meth:`EventStream.compiled`) — ledger columns,
        a span block of the walk's clocks, splits and collective ids,
        ``spans.*`` counts and a folded timeline's log entries, each in
        the walk's order and ``==`` to what the walk leaves.  Under a
        ``pricing`` other than ``()`` only an untraced exact timeline
        lands, from a form whose seconds the hooks stretched at compile
        time.  Every plain list, every stream under a capture or an
        injector whose ``pricing`` is ``None``, and one a tracer or log
        observes under a stretching injector takes the walk.
        """
        capture = self._capture
        if capture is None and isinstance(events, EventStream):
            pricing = self.injector.pricing
            if pricing is not None:
                form = events.compiled(self, offset, pricing)
                if form is not None and self._land(form, renames, offset):
                    return
        if capture is not None:
            capture.append(("replay", events, offset, renames))
            self._capture = None
        try:
            self._replay(events, 0, len(events), offset, renames, {})
        finally:
            self._capture = capture
            self.tracer.set_context(None)

    def _replay(self, events, start, end, offset, renames, memo):
        # An untraced run has no scope to restore (OFF reads "").
        set_context = self.tracer.set_context if self.tracer.enabled else None
        renamed = memo.setdefault(renames, _Renamed(renames)) if renames else None
        i = start
        while i < end:
            entry = events[i]
            tag = entry[0]
            if tag == "push":
                _, axis, count, stride, rename = entry
                j = _segment_end(events, i)
                for it in self.fold_iter(axis, range(count)):
                    self._replay(events, i + 1, j - 1, offset + it * stride,
                                 _iteration_renames(renames, rename, it), memo)
                i = j
                continue
            if tag == "replay":
                _, inner, inner_offset, inner_renames = entry
                self._replay(inner, 0, len(inner), offset + inner_offset,
                             inner_renames + renames, memo)
                i += 1
                continue
            if tag == "compute":
                _, rank, seconds, flops, name, scope = entry
                kind = "compute"
            elif tag == "comm":
                _, ranks, seconds, nbytes, overlappable, name, scope, kind = entry
            else:  # "free"
                _, ranks, name, nbytes, scope = entry
                kind = "gather"
            if renamed is not None:
                name, scope = renamed[name], renamed[scope]
            if set_context is not None:
                set_context(scope, kind)
            if tag == "compute":
                self.record_compute(rank + offset, seconds, flops, name)
            else:
                if offset:
                    ranks = tuple(r + offset for r in ranks)
                if tag == "comm":
                    self.record_comm(ranks, seconds, nbytes, overlappable, name)
                else:
                    self.record_free(ranks, name, nbytes)
            i += 1

    # -- the receiver: where the walk and a compiled replay land ----------
    def _signature(self, offset: int) -> tuple:
        """What a stream's compiled form depends on besides the stream,
        ending in the offset to compile at: untraced, an exact timeline
        reads nothing but rank-shifted ledgers, so one form at offset 0
        serves every offset."""
        traced = self.tracer.enabled
        return (type(self), traced, offset if traced else 0)

    def _in_fsdp_segment(self) -> bool:
        return False

    def _landing(self, ranks: tuple, in_fsdp: bool | None) -> tuple:
        """The ledgers an event over ``ranks`` lands on, in landing order,
        inside a folded FSDP segment or not (``None``: as one is open
        now)."""
        return ranks

    def _ledger_store(self):
        """Where :meth:`_landing`'s addresses index."""
        return self._ledgers

    def _row_owner(self, address) -> tuple:
        """``(rank, members)`` of a ledger's span rows."""
        return address, None

    def _log_entries(self, landed: _Landed, texts: np.ndarray) -> None:
        """Keep a compiled replay's log entries (none kept here)."""

    def _land(self, form: _Form, renames: tuple, offset: int) -> bool:
        """Land a compiled form at ``offset`` (its per-rank ledgers
        shifted by the difference from the offset it was compiled at);
        ``False`` (nothing landed) if that names a rank outside this
        timeline's ledgers, for the walk to raise on (or wrap, as its
        list indexing does).

        Each ledger field is accumulated left to right from the ledger's
        current value — bitwise the ``+=`` sequence the walk performs on
        that ledger — the collective-id counter moves on by the stream's
        collective count, and the span block and log entries are built
        column-wise in the walk's order.
        """
        ledgers, collectives, landed, rows, compiled_at, (low, high) = form
        shift = offset - compiled_at
        if low + shift < 0 or high + shift >= len(self._ledgers):
            return False
        store = self._ledger_store()
        traced = rows is not None
        if traced:
            # The clocks' prefixes as C doubles: no float object outlives
            # the replay but the clocks made of them.
            compute_at, exposed_at, hidden_at = array("d"), array("d"), []
        for columns in ledgers:
            (address, compute_s, flops, comm_s, comm_bytes, ops,
             memo) = columns
            led = store[address + shift if shift else address]
            budget = led.overlap_budget_s
            split = memo.get(budget) if memo is not None else None
            if split is None:
                split = _run_budget(columns, budget, traced)
                if memo is not None:
                    memo[budget] = split
            exposed, hidden, led.overlap_budget_s = split
            if traced:  # every prefix, for the clocks
                compute_at.extend(accumulate(compute_s, initial=led.compute_s))
                led.compute_s = compute_at[-1]
                exposed_at.extend(accumulate(exposed, initial=led.exposed_comm_s))
                led.exposed_comm_s = exposed_at[-1]
                hidden_at += hidden
                hidden_at.append(0.0)
            else:
                acc = led.compute_s
                for x in compute_s:
                    acc += x
                led.compute_s = acc
                acc = led.exposed_comm_s
                for x in exposed:
                    acc += x
                led.exposed_comm_s = acc
            acc = led.flops
            for x in flops:
                acc += x
            led.flops = acc
            acc = led.comm_s
            for x in comm_s:
                acc += x
            led.comm_s = acc
            acc = led.comm_bytes
            for x in comm_bytes:
                acc += x
            led.comm_bytes = acc
        first_cid = next(self._collective_ids)
        self._collective_ids = itertools.count(first_cid + collectives)
        if landed is None:
            return True
        texts = np.array(_renamed_texts(landed, renames), object)
        if traced:
            self._trace(form, first_cid, texts, compute_at, exposed_at, hidden_at)
        self._log_entries(landed, texts)
        return True

    def _trace(self, form, first_cid, texts, compute_at, exposed_at, hidden_at) -> None:
        """A compiled replay's rows as one span block, and their counts: the
        form's columns per row, with this landing's clocks, owners and ids."""
        landed, rows, static = form.landed, form.rows, form.rows.columns
        texts = np.concatenate([texts, "free." + texts])  # a release's, past them
        owners = [self._row_owner(led.address) for led in form.ledgers]
        members = [held for _, held in owners]
        kinds, event = np.frombuffer(rows.order, np.uint8), rows.event
        compute, comm = kinds == _COMPUTE, kinds == _COMM
        ordinal = event.astype(np.int64) - len(landed.events[0])  # a collective's
        amount = static["amount"][event]
        columns = SpanColumns.of_columns(
            **{name: static[name][event] for name in ("kind", "dur", "group_len")},
            name=texts[static["name"][event]], scope=texts[static["scope"][event]],
            rank=np.array([rank for rank, _ in owners], np.int64)[rows.ledger],
            # one IEEE addition per row, as the walk's
            t0=(np.frombuffer(compute_at)[rows.at_compute]
                + np.frombuffer(exposed_at)[rows.at_exposed]),
            hidden_s=np.where(comm, np.array(hidden_at, float)[rows.at_exposed], 0.0),
            nbytes=np.where(compute, 0.0, amount), flops=np.where(compute, amount, 0.0),
            cid=np.where(comm, ordinal + first_cid, np.nan),
            members=np.where(kinds == _FREE, 1.0, np.array(  # a release is itself
                [1.0 if m is None else m for m in members], float)[rows.ledger]))

        def fields():
            """What the columns do not keep of each hook's rows, off the
            entries (:class:`SpanBlock`)."""
            at = [np.flatnonzero(kinds == kind) for kind in range(3)]
            entries = sum(landed.events, ())
            computes, comms, frees = (list(map(entries.__getitem__, event[rows_of].tolist()))
                                      for rows_of in at)
            held, comm_held = (list(map(members.__getitem__, rows.ledger[rows_of].tolist()))
                               for rows_of in at[:2])
            nth, groups = ordinal[at[1]].tolist(), landed.ranks[1]
            return ((map(_SECONDS, computes), map(_AMOUNT, computes), held),
                    (map(_KIND, comms), map(_SECONDS, comms),
                     map(hidden_at.__getitem__, rows.at_exposed[at[1]].tolist()),
                     map(_AMOUNT, comms),
                     map(_RANKS, comms) if groups is None else map(groups.__getitem__, nth),
                     [first_cid + k for k in nth], comm_held),
                    (map(_AMOUNT, frees),))

        self.tracer.append_block(SpanBlock(columns, rows.order, fields), rows.counts)
        self.tracer.set_context(None)

    # -- symmetry folding hooks (no-ops on the exact timeline) -------------
    def fold_iter(self, axis: str, iterable):
        """Iterate a symmetric loop; the exact timeline runs every item."""
        return iter(iterable)

    def fold_pad(self, axis: str, items: list, size: int) -> list:
        """Pad a folded loop's outputs back to full length (no-op here)."""
        return items

    def folds_axis(self, axis: str) -> bool:
        """Whether loops over ``axis`` ('fsdp'/'ddp') are being folded."""
        return False

    def tracked_ranks(self, ranks: Sequence[int]) -> Sequence[int]:
        """The subset of ``ranks`` whose device memory is worth tracking.

        The exact timeline tracks everything; a folded one narrows
        symmetric bulk operations (FSDP gathers registering the same
        transient buffer on every group member) to the class
        representatives, whose devices see the full allocation pattern
        — so per-device *maxima* are unchanged.
        """
        return ranks

    # -- summaries ---------------------------------------------------------
    def walltime_s(self, ranks: Iterable[int] | None = None) -> float:
        """Bulk-synchronous walltime: the slowest participating rank."""
        ledgers = self._ledgers if ranks is None else [self._ledgers[r] for r in ranks]
        return max((led.walltime_s for led in ledgers), default=0.0)

    def reset(self) -> None:
        """Zero every ledger and restart the collective-id sequence."""
        self._ledgers = self._fresh_ledgers()
        self._collective_ids = itertools.count()


def _ledger_values(led: RankLedger) -> tuple:
    return (led.compute_s, led.comm_s, led.exposed_comm_s, led.flops,
            led.comm_bytes, led.overlap_budget_s)


def _copy_ledger(led: RankLedger) -> RankLedger:
    return RankLedger(*_ledger_values(led))


def _apply_renames(text: str, renames: tuple) -> str:
    for old, new in renames:
        text = text.replace(old, new)
    return text


class _Renamed(dict):
    """``text -> text`` with ``renames`` applied: each distinct name or
    scope of a replay is rebuilt once, and its spans share the result."""

    def __init__(self, renames: tuple):
        self.renames = renames

    def __missing__(self, text: str) -> str:
        renamed = self[text] = _apply_renames(text, self.renames)
        return renamed


#: Where each kind of entry keeps its op name and its tracer scope.
_NAME_AND_SCOPE = {"compute": (4, 5), "comm": (5, 6), "free": (2, 4)}


def _segment_end(events, push: int) -> int:
    """Index just past the ``pop`` that closes the segment opened at ``push``."""
    depth, j = 1, push + 1
    while depth:
        tag = events[j][0]
        depth += (tag == "push") - (tag == "pop")
        j += 1
    return j


def _iteration_renames(renames: tuple, rename, it: int) -> tuple:
    """``renames`` plus a segment's own rename for its iteration ``it``."""
    if rename is None or it == 0:
        return renames
    return renames + ((rename[0], rename[1].format(it)),)


def _restrict(events, ranks, keep_free, start=0, end=None, offset=0,
              renames=()) -> list[tuple]:
    """``events`` cut down to the accounting that touches ``ranks``.

    The result is flat.  A folded segment stands for ``count``
    iterations at a rank stride, and passing its markers through would
    have a replay unroll every one of them — the work the caller asked
    to exclude — so each iteration is narrowed on its own, with the
    shift and rename :meth:`Timeline.replay` would apply, and only what
    still touches ``ranks`` is kept; a by-reference replay entry is
    narrowed the same way.  ``keep_free`` is whether the
    capturing timeline was traced: an untraced exact timeline never
    records a release marker, an untraced folded one logs them for
    :meth:`FoldedTimeline.expand` alone.
    """
    kept = []
    i = start
    end = len(events) if end is None else end
    while i < end:
        event = events[i]
        tag = event[0]
        if tag == "push":
            _, _, count, stride, rename = event
            j = _segment_end(events, i)
            for it in range(count):
                kept += _restrict(
                    events, ranks, keep_free, i + 1, j - 1,
                    offset + it * stride,
                    _iteration_renames(renames, rename, it))
            i = j
            continue
        i += 1
        if tag == "replay":
            _, inner, inner_offset, inner_renames = event
            kept += _restrict(inner, ranks, keep_free, 0, None,
                              offset + inner_offset, inner_renames + renames)
            continue
        if tag == "free" and not keep_free:
            continue
        if tag == "compute":
            touched = event[1] + offset
            if touched not in ranks:
                continue
        else:
            group = [r + offset for r in event[1]] if offset else event[1]
            touched = tuple(r for r in group if r in ranks)
            if not touched:
                continue
        if renames:
            event = list(event)
            for at in _NAME_AND_SCOPE[tag]:
                event[at] = _apply_renames(event[at], renames)
        kept.append((tag, touched, *event[2:]))
    return kept


class FoldedTimeline(Timeline):
    """A Timeline that simulates one representative rank per symmetry class.

    Ranks are partitioned by a
    :class:`~repro.cluster.symmetry.RankClassPartition` into
    ``(stage, k, f==0)``
    equivalence classes.  Symmetric loops (the engine's DDP replica loop,
    the modules' FSDP shard loops) are *folded*: only their first
    iteration executes, bracketed in the event log by a segment marker
    carrying the iteration count and the rank stride between iterations.
    Each recorded event updates one ledger per covered class — through
    the very ``Timeline._land_*`` code a member rank's ledger sees, its
    receiver hooks naming class ledgers instead of ranks — and emits one
    class-annotated compact span at the representative rank.

    :meth:`expand` runs the log through :meth:`~Timeline.replay` on a
    fresh exact :class:`Timeline`, unrolling segments with rank offsets
    (and the ``trunk{d}`` rename on the DDP axis), reproducing the full
    per-rank ledgers and span list float-for-float.

    :meth:`unfold` drops to exact per-rank recording mid-run (fault
    windows); :meth:`try_refold` returns to folded mode once every
    class's member ledgers are value-identical again.  Events are logged
    in both modes, so a mixed run still expands completely.
    """

    _RENAMES = {"ddp": ("trunk0", "trunk{}")}

    def __init__(self, num_ranks: int, partition, tracer=None):
        super().__init__(num_ranks, tracer=tracer)
        if partition.num_gpus != num_ranks:
            raise ValueError(
                f"partition covers {partition.num_gpus} ranks, "
                f"timeline has {num_ranks}"
            )
        self.partition = partition
        self._keys = partition.keys
        self._reps = {key: partition.representative(key) for key in self._keys}
        self._sizes = {key: partition.size(key) for key in self._keys}
        self._class_ledgers = {key: RankLedger() for key in self._keys}
        self._rep_set = frozenset(self._reps.values())
        self._folded = True
        self._seg_stack: list[str] = []
        self._log: list[tuple] = []
        self._covered_cache: dict[tuple, list] = {}
        self._tracked_cache: dict[tuple, tuple] = {}

    def _fresh_ledgers(self) -> list[RankLedger]:
        """Empty: :meth:`unfold` builds the per-rank ledgers, so a run
        that stays folded never pays for ``num_ranks`` of them."""
        return []

    # -- mode --------------------------------------------------------------
    @property
    def folded(self) -> bool:
        return self._folded

    def _axis_count(self, axis: str) -> int:
        if axis == "fsdp":
            return self.partition.fsdp_size
        if axis == "ddp":
            return self.partition.ddp_size
        raise ValueError(f"unknown fold axis {axis!r}")

    def _axis_stride(self, axis: str) -> int:
        if axis == "fsdp":
            return self.partition.fsdp_stride
        return self.partition.ddp_stride

    def folds_axis(self, axis: str) -> bool:
        return self._folded and self._axis_count(axis) > 1

    def fold_iter(self, axis: str, iterable):
        if not self.folds_axis(axis):
            yield from iterable
            return
        first = next(iter(iterable), None)
        if first is None:
            return
        self._mark(self._push_marker(axis))
        self._seg_stack.append(axis)
        try:
            yield first
        finally:
            self._mark(("pop",))
            self._seg_stack.pop()

    def _push_marker(self, axis: str) -> tuple:
        """The marker opening a folded segment over ``axis``."""
        return ("push", axis, self._axis_count(axis), self._axis_stride(axis),
                self._RENAMES.get(axis))

    def _mark(self, marker: tuple) -> None:
        """Log a segment marker, and hand it to an open capture."""
        self._log.append(marker)
        if self._capture is not None:
            self._capture.append(marker)

    def fold_pad(self, axis: str, items: list, size: int) -> list:
        if not self._folded or len(items) >= size:
            return items
        return list(items) + [items[-1]] * (size - len(items))

    # -- class coverage ----------------------------------------------------
    def _covered(self, ranks, in_fsdp=None):
        """Class keys an event over ``ranks`` lands on, in rep-rank order.

        Inside a folded FSDP segment (``in_fsdp``; by default, whether
        one is open now) the recorded rank stands for every shard index,
        so its tensor-parallel column covers both the lead (``f == 0``)
        and non-lead class; outside, a rank covers only its own class
        (this is what keeps the dense lead-rank all-reduce off the
        non-lead ledgers).
        """
        if in_fsdp is None:
            in_fsdp = self.partition.fsdp_size > 1 and "fsdp" in self._seg_stack
        cache_key = (tuple(ranks), in_fsdp)
        cached = self._covered_cache.get(cache_key)
        if cached is not None:
            return cached
        keys = set()
        for rank in ranks:
            stage, k, lead = self.partition.class_of(rank)
            if in_fsdp:
                keys.add((stage, k, True))
                keys.add((stage, k, False))
            else:
                keys.add((stage, k, lead))
        covered = sorted(keys, key=self._reps.__getitem__)
        self._covered_cache[cache_key] = covered
        return covered

    def tracked_ranks(self, ranks):
        if not self._folded:
            return ranks
        key = tuple(ranks)
        tracked = self._tracked_cache.get(key)
        if tracked is None:
            tracked = self._tracked_cache[key] = tuple(
                r for r in key if r in self._rep_set)
        return tracked

    # -- the receiver: classes while folded, ranks once unfolded ---------
    def _signature(self, offset):
        return (type(self), self.partition, self._folded,
                self._in_fsdp_segment(), self.tracer.enabled, offset)

    def _in_fsdp_segment(self):
        return self.partition.fsdp_size > 1 and "fsdp" in self._seg_stack

    def _landing(self, ranks, in_fsdp):
        return self._covered(ranks, in_fsdp) if self._folded else ranks

    def _ledger_store(self):
        return self._class_ledgers if self._folded else self._ledgers

    def _row_owner(self, address):
        if self._folded:
            return self._reps[address], self._sizes[address]
        return address, None

    def _log_entries(self, landed, texts):
        self._log.extend(_merged(landed, texts, self.tracer.enabled))

    # -- landing: logged, then the shared landing -------------------------
    _keeps_log = True

    def _land_compute(self, rank, seconds, flops, op, scope):
        self._log.append(("compute", rank, seconds, flops, op, scope))
        super()._land_compute(rank, seconds, flops, op, scope)

    def _land_comm(self, ranks, seconds, nbytes, overlappable, op, scope,
                   kind, cid):
        self._log.append(("comm", ranks, seconds, nbytes, overlappable, op,
                          scope, kind))
        super()._land_comm(ranks, seconds, nbytes, overlappable, op, scope,
                           kind, cid)

    def _land_free(self, ranks, name, nbytes, scope):
        self._log.append(("free", ranks, name, nbytes, scope))
        super()._land_free(ranks, name, nbytes, scope)

    # -- summaries ---------------------------------------------------------
    def ledger(self, rank):
        if self._folded:
            return self._class_ledgers[self.partition.class_of(rank)]
        return self._ledgers[rank]

    def walltime_s(self, ranks=None):
        if not self._folded:
            return super().walltime_s(ranks)
        if ranks is None:
            ledgers = self._class_ledgers.values()
        else:
            keys = {self.partition.class_of(r) for r in ranks}
            ledgers = [self._class_ledgers[key] for key in keys]
        return max((led.walltime_s for led in ledgers), default=0.0)

    def reset(self):
        super().reset()
        self._class_ledgers = {key: RankLedger() for key in self._keys}
        self._folded = True
        self._seg_stack = []
        self._log = []
        self._covered_cache = {}

    # -- exact fallback ----------------------------------------------------
    def unfold(self) -> None:
        """Switch to exact per-rank recording (e.g. a fault window opens).

        Every member rank's ledger is materialized as a bitwise copy of
        its class ledger; subsequent events record per rank, still
        logged (without segments) so :meth:`expand` covers mixed runs.
        """
        if not self._folded:
            return
        class_of = self.partition.class_of
        self._ledgers = [_copy_ledger(self._class_ledgers[class_of(rank)])
                         for rank in range(self.num_ranks)]
        self._folded = False

    def try_refold(self) -> bool:
        """Return to folded mode if every class is value-uniform again.

        A timing-divergent fault (straggler, link degradation) leaves
        member ledgers unequal forever, so the run correctly stays
        exact; timing-neutral faults refold on the next clean step.
        """
        if self._folded:
            return True
        for key in self._keys:
            members = self.partition.members(key)
            ref = _ledger_values(self._ledgers[members[0]])
            if any(_ledger_values(self._ledgers[m]) != ref
                   for m in members[1:]):
                return False
        for key in self._keys:
            self._class_ledgers[key] = _copy_ledger(
                self._ledgers[self._reps[key]])
        self._folded = True
        return True

    # -- expansion ---------------------------------------------------------
    def expand(self):
        """Replay the event log into full per-rank form.

        Returns ``(ledgers, spans)``: a per-rank ledger list and a span
        list bitwise equal to what an exact-mode run of the same
        workload records (same floats, same order, same collective ids).
        """
        tracer = Tracer(metrics=OFF)
        exact = Timeline(self.num_ranks, tracer=tracer)
        exact.replay(self._log)
        return exact._ledgers, tracer.spans
