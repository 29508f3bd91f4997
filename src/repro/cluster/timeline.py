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
wrapped as an :class:`EventStream` carries per-rank float columns, and
a replay that nothing but the ledgers can observe — exact timeline,
tracer off, no capture open, no injector — adds the columns instead of
visiting the events (:meth:`Timeline.replay` states the conditions;
``tests/cluster/test_compiled_replay.py`` holds the two paths ``==``).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from repro.obs.off import OFF
from repro.obs.tracer import Tracer


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


#: Budget-program opcodes: compute grows a rank's overlap budget, an
#: overlappable collective hides under it, a blocking one resets it.
_GROW, _HIDE, _RESET = range(3)


class _RankColumns(NamedTuple):
    """What one rank's ledger sees of a compiled stream, in event order."""

    #: The rank as the stream names it (before a replay's ``offset``).
    rank: int
    compute_s: tuple
    flops: tuple
    comm_s: tuple
    comm_bytes: tuple
    #: ``(opcode, seconds)`` per event of this rank: the only state the
    #: exposed split of its collectives depends on.
    budget_program: tuple
    #: ``{entry budget: (exposed column, exit budget)}``, or ``None``
    #: when no blocking collective makes an entry budget likely to recur.
    exposed_memo: dict | None


class EventStream(tuple):
    """An immutable captured event stream that carries its compiled form.

    A rank's ledger sees only its own events, and every ledger field is
    an independent *sequential* sum over them, so a stream compiles to
    one float column per field and rank.  The one non-linearity is the
    overlap budget (``hidden = min(seconds, budget)``): for a fixed
    stream the exposed seconds of each collective and the exit budget
    are a pure function of the budget the rank *enters* with, so they
    are computed by running the rank's budget program once per distinct
    entry budget and memoized under it.  A trunk's blocks each end on a
    blocking collective per rank, so copy 2...L of a depth replay enter
    with the same budget and hit the memo.

    The compiled form is an attribute of the stream, never a module
    cache, so it is freed with the probe that holds the stream.
    :meth:`Timeline.replay` applies it only where nothing but the
    ledgers can observe the difference (see there); the event walk is
    its oracle.
    """

    _compiled = None

    def compiled(self) -> tuple:
        """``(per-rank columns, collective count)``, built on first use;
        the columns are ``None`` for a stream with folded-segment
        markers or by-reference replays, which only the event walk
        resolves.  Seconds are validated here, once: a negative value
        raises the ``ValueError`` the walk would.
        """
        if self._compiled is None:
            self._compiled = _compile(self)
        return self._compiled


def _compile(events) -> tuple:
    """:meth:`EventStream.compiled`'s builder."""
    #: rank -> (compute_s, flops, comm_s, comm_bytes, budget program)
    columns = defaultdict(lambda: ([], [], [], [], []))
    collectives = 0
    for entry in events:
        tag = entry[0]
        if tag == "compute":
            _, rank, seconds, flops = entry[:4]
            if seconds < 0:
                raise ValueError("compute seconds must be non-negative")
            compute_s, flops_column, _, _, program = columns[rank]
            compute_s.append(seconds)
            flops_column.append(flops)
            program.append((_GROW, seconds))
        elif tag == "comm":
            _, ranks, seconds, nbytes, overlappable = entry[:5]
            if seconds < 0:
                raise ValueError("comm seconds must be non-negative")
            collectives += 1
            step = (_HIDE if overlappable else _RESET, seconds)
            for rank in ranks:
                _, _, comm_s, comm_bytes, program = columns[rank]
                comm_s.append(seconds)
                comm_bytes.append(nbytes)
                program.append(step)
        elif tag != "free":  # an untraced exact timeline drops releases
            return None, 0  # a segment marker or a by-reference replay
    return (
        tuple(
            _RankColumns(
                rank, *map(tuple, fields),
                {} if any(op == _RESET for op, _ in fields[-1]) else None)
            for rank, fields in columns.items()),
        collectives,
    )


def _run_budget(program, budget) -> tuple:
    """``(exposed column, exit budget)`` of one rank's budget program
    entered with ``budget``: the arithmetic of ``record_compute`` /
    ``record_comm`` on ``overlap_budget_s``, expression for expression."""
    exposed = []
    for op, seconds in program:
        if op == _GROW:
            budget += seconds
            continue
        if op == _HIDE:
            hidden = min(seconds, budget)
            budget -= hidden
        else:
            hidden = 0.0
            budget = 0.0
        exposed.append(seconds - hidden)
    return tuple(exposed), budget


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

    def _land_compute(self, rank, seconds, flops, op, scope) -> None:
        led = self._ledgers[rank]
        t0 = led.walltime_s
        led.compute_s += seconds
        led.flops += flops
        led.overlap_budget_s += seconds
        self.tracer.on_compute(rank, t0, seconds, flops, op)

    def _land_comm(self, ranks, seconds, nbytes, overlappable, op, scope,
                   kind, cid) -> None:
        for rank in ranks:
            led = self._ledgers[rank]
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
            self.tracer.on_comm(rank, t0, seconds, hidden, nbytes, op, ranks, cid=cid)

    def _land_free(self, ranks, name, nbytes, scope) -> None:
        self.tracer.mark_free(
            ranks, [self._ledgers[r].walltime_s for r in ranks], name, nbytes)

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

        An :class:`EventStream` skips that walk and lands as per-rank
        column sums (:meth:`_apply`) iff all four hold: this is an exact
        ``Timeline`` (a folded one logs and class-maps every event), the
        tracer is off, no :meth:`capture` is open and no fault injector
        is attached — then names, scopes and ``renames`` have no
        observer and only the ledgers and the collective-id counter
        can tell, which :meth:`_apply` leaves ``==`` to the walk's.
        Everything else, and every plain list, takes the walk.
        """
        capture = self._capture
        if (isinstance(events, EventStream) and type(self) is Timeline
                and not self.tracer.enabled and capture is None
                and self.injector is OFF):
            columns, collectives = events.compiled()
            if columns is not None:
                self._apply(columns, collectives, offset)
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

    def _apply(self, columns, collectives: int, offset: int) -> None:
        """Add a compiled stream's columns to the ledgers it touches.

        Each field is accumulated left to right from the ledger's
        current value — bitwise the ``+=`` sequence the walk performs
        on that rank — and the collective-id counter moves on by the
        stream's collective count.
        """
        ledgers = self._ledgers
        for (rank, compute_s, flops, comm_s, comm_bytes, program,
             memo) in columns:
            led = ledgers[rank + offset]
            acc = led.compute_s
            for x in compute_s:
                acc += x
            led.compute_s = acc
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
            budget = led.overlap_budget_s
            split = memo.get(budget) if memo is not None else None
            if split is None:
                split = _run_budget(program, budget)
                if memo is not None:
                    memo[budget] = split
            exposed, led.overlap_budget_s = split
            acc = led.exposed_comm_s
            for x in exposed:
                acc += x
            led.exposed_comm_s = acc
        self._collective_ids = itertools.count(
            next(self._collective_ids) + collectives)

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

    def total_flops(self) -> float:
        """FLOPs summed over all ranks."""
        return sum(led.flops for led in self._ledgers)

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
    Each recorded event updates one ledger per covered class — bitwise
    the same arithmetic a member rank's ledger would see — and emits one
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
        self._mark(("push", axis, self._axis_count(axis),
                    self._axis_stride(axis), self._RENAMES.get(axis)))
        self._seg_stack.append(axis)
        try:
            yield first
        finally:
            self._mark(("pop",))
            self._seg_stack.pop()

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
    def _covered(self, ranks):
        """Class keys an event over ``ranks`` lands on, in rep-rank order.

        Inside a folded FSDP segment the recorded rank stands for every
        shard index, so its tensor-parallel column covers both the lead
        (``f == 0``) and non-lead class; outside, a rank covers only its
        own class (this is what keeps the dense lead-rank all-reduce off
        the non-lead ledgers).
        """
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

    # -- landing: logged, then per class (folded) or per rank -------------
    _keeps_log = True

    def _land_compute(self, rank, seconds, flops, op, scope):
        self._log.append(("compute", rank, seconds, flops, op, scope))
        if not self._folded:
            return super()._land_compute(rank, seconds, flops, op, scope)
        for key in self._covered((rank,)):
            led = self._class_ledgers[key]
            t0 = led.walltime_s
            led.compute_s += seconds
            led.flops += flops
            led.overlap_budget_s += seconds
            self.tracer.on_compute(self._reps[key], t0, seconds, flops, op,
                                   members=self._sizes[key])

    def _land_comm(self, ranks, seconds, nbytes, overlappable, op, scope,
                   kind, cid):
        self._log.append(("comm", ranks, seconds, nbytes, overlappable, op,
                          scope, kind))
        if not self._folded:
            return super()._land_comm(ranks, seconds, nbytes, overlappable,
                                      op, scope, kind, cid)
        for key in self._covered(ranks):
            led = self._class_ledgers[key]
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
            self.tracer.on_comm(self._reps[key], t0, seconds, hidden, nbytes,
                                op, ranks, cid=cid, members=self._sizes[key])

    def _land_free(self, ranks, name, nbytes, scope):
        self._log.append(("free", ranks, name, nbytes, scope))
        if not self.tracer.enabled:
            return
        if not self._folded:
            return super()._land_free(ranks, name, nbytes, scope)
        covered = self._covered(ranks)
        self.tracer.mark_free(
            [self._reps[key] for key in covered],
            [self._class_ledgers[key].walltime_s for key in covered],
            name, nbytes)

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

    def total_flops(self):
        if not self._folded:
            return super().total_flops()
        return sum(self._sizes[key] * led.flops
                   for key, led in self._class_ledgers.items())

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
