"""Cross-rank critical-path analysis of a recorded trace.

The trace layer (:mod:`repro.obs.tracer`) records *what happened*; this
module explains *why the step took as long as it did*:

* the **critical path** of a bulk-synchronous step is, by definition,
  the busy timeline of the slowest rank — ``critical_path_seconds`` is
  computed with the exact accumulation order of the
  :class:`~repro.cluster.timeline.Timeline` ledgers, so for a whole-run
  analysis it equals ``max(ledger.walltime_s)`` bitwise;
* wall time is **attributed** to exposed compute, exposed communication
  (by collective kind and by operation), overlap-hidden communication,
  and io, with per-phase (``engine.forward`` / ``engine.backward`` /
  ``engine.grad_sync``) and per-layer breakdowns;
* every off-critical-path rank gets its **slack** — how much longer it
  could have run without moving the step time;
* the **dependency chain** is reconstructed across ranks: walking
  backward from the critical rank's last event, every collective jumps
  to the participant whose late arrival gated it (matched through the
  collective ids the timeline stamps on comm spans).

Bitwise invariants (tested in ``tests/obs/test_critical_path.py``):
each rank's ``compute_s`` / ``exposed_comm_s`` buckets are row-order
sums over span columns (:func:`~repro.obs.analysis.sums_by`) — the same
floats in the same order as the ledger — so ``busy_s`` equals
``ledger.walltime_s`` exactly, and the attribution identity
``exposed_compute + exposed_comm + io == critical_path_seconds`` holds
exactly, not approximately.  :func:`rank_attribution` is that per-rank
table on its own; the step report prints it and the ledger-equality
tests read it.

There is one implementation: a tracer, its ``spans`` view, a loaded
file or a list of :class:`Span` is analysed as
:class:`~repro.obs.tracer.SpanColumns`; labels are derived per distinct
``(scope, name)`` and the chain walk iterates per segment.
``tests/obs/data/analysis_golden.json`` pins every field.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from repro.obs.analysis import group_ids, is_comm, sums_by
from repro.obs.tracer import COMPUTE, IO, KIND_NAMES, Span, SpanColumns, Tracer

_LAYER = re.compile(r"block(\d+)")
_STEP_SCOPE = re.compile(r"^step\.\d+$")


@dataclass
class RankAttribution:
    """Ledger-order time buckets for one rank.

    ``compute_s`` / ``exposed_comm_s`` / ``io_s`` are independent
    accumulators filled in span order, mirroring how
    :class:`~repro.cluster.timeline.RankLedger` accumulates — so sums
    and comparisons against the ledgers are bitwise, never approximate.
    """

    compute_s: float = 0.0
    exposed_comm_s: float = 0.0
    hidden_comm_s: float = 0.0
    comm_s: float = 0.0
    io_s: float = 0.0
    flops: float = 0.0
    comm_bytes: float = 0.0
    spans: int = 0

    @property
    def busy_s(self) -> float:
        """The rank's contribution to wall time (ledger ``walltime_s``)."""
        return self.compute_s + self.exposed_comm_s + self.io_s

    def as_dict(self) -> dict:
        return {
            "compute_s": self.compute_s,
            "comm_s": self.comm_s,
            "exposed_comm_s": self.exposed_comm_s,
            "hidden_comm_s": self.hidden_comm_s,
            "io_s": self.io_s,
            "busy_s": self.busy_s,
            "flops": self.flops,
            "comm_bytes": self.comm_bytes,
            "spans": self.spans,
        }


@dataclass
class ChainSegment:
    """A run of consecutive spans on one rank along the critical path."""

    rank: int
    spans: int
    busy_s: float
    first_op: str
    last_op: str
    #: Collective op through which the walk entered this rank
    #: (``None`` for the final segment, where the walk started).
    via: str | None = None
    via_cid: int | None = None


@dataclass
class StepAnalysis:
    """Critical-path decomposition of one step (or of the whole run)."""

    label: str
    ranks: dict[int, RankAttribution]
    critical_rank: int
    critical_path_s: float
    slack_s: dict[int, float]
    #: Critical-rank exposed comm split by operation / by kind (fsum;
    #: informational, unlike the top-level buckets these are not
    #: ledger-order accumulations).
    exposed_comm_by_op: dict[str, float]
    exposed_comm_by_kind: dict[str, float]
    phases: dict[str, RankAttribution]
    layers: dict[str, RankAttribution]
    chain: list[ChainSegment] = field(default_factory=list)

    @property
    def attribution(self) -> dict:
        """Critical-rank wall-time buckets; they sum to the total exactly."""
        crit = self.ranks[self.critical_rank]
        return {
            "exposed_compute_s": crit.compute_s,
            "exposed_comm_s": crit.exposed_comm_s,
            "io_s": crit.io_s,
            "hidden_comm_s": crit.hidden_comm_s,
        }

    @property
    def bound_resource(self) -> str:
        """What the critical rank spent most of its wall time on."""
        attribution = self.attribution
        compute = attribution["exposed_compute_s"]
        comm = attribution["exposed_comm_s"]
        io = attribution["io_s"]
        top = max(compute, comm, io)
        if top <= 0.0:
            return "idle"
        if top == io:
            return "io"
        return "compute" if compute >= comm else "comm"

    @property
    def exposed_comm_fraction(self) -> float:
        """Exposed-communication share of the critical path."""
        if self.critical_path_s <= 0.0:
            return 0.0
        return self.ranks[self.critical_rank].exposed_comm_s / self.critical_path_s


@dataclass
class TraceAnalysis:
    """Whole-trace analysis: one overall decomposition plus per-step cuts."""

    overall: StepAnalysis
    steps: list[StepAnalysis]

    @property
    def critical_path_s(self) -> float:
        return self.overall.critical_path_s

    @property
    def bound_resource(self) -> str:
        return self.overall.bound_resource


def _phase_label(scope: str) -> str:
    for part in scope.split("/"):
        if not _STEP_SCOPE.match(part):
            return part
    return "(unscoped)"


def _layer_label(scope: str, name: str) -> str:
    match = _LAYER.search(name) or _LAYER.search(scope)
    if match:
        return f"block{match.group(1)}"
    return "(non-layer)"


def _attribute(cols: SpanColumns, ids: np.ndarray, size: int) -> list[RankAttribution]:
    """One :class:`RankAttribution` per id: each bucket is the row-order
    sum (:func:`~repro.obs.analysis.sums_by`) of its kind's rows."""
    compute = np.flatnonzero(cols.kind == COMPUTE)
    comm = np.flatnonzero(is_comm(cols))
    io = np.flatnonzero(cols.kind == IO)
    # shard-free markers carry the bytes *released*, not moved; only
    # spans with a participant group are real transfers
    moved = comm[cols.group_len[comm] >= 0]

    def total(rows, values):
        return sums_by(ids[rows], values[rows], size)

    return list(itertools.starmap(RankAttribution, zip(
        total(compute, cols.dur), total(comm, cols.busy_s),
        total(comm, cols.hidden_s), total(comm, cols.dur),
        total(io, cols.dur), total(compute, cols.flops),
        total(moved, cols.nbytes), np.bincount(ids, minlength=size).tolist(),
    )))


def rank_attribution(trace) -> dict[int, RankAttribution]:
    """The per-rank table: one :class:`RankAttribution` per rank with a
    span, in order of first appearance.  Its ``compute_s``,
    ``exposed_comm_s`` and ``comm_s`` equal the rank's ledger bitwise."""
    cols = SpanColumns.of(trace)
    rank_of, rank_ids = group_ids(cols.rank.tolist())
    return dict(zip(rank_of, _attribute(cols, rank_ids, len(rank_of))))


def _fsum_by(labels: list, values: np.ndarray) -> dict[str, float]:
    """``{label: fsum of its values}``, sorted by label (fsum is exact,
    so the order it adds in does not matter)."""
    distinct, ids = group_ids(labels)
    parts = np.split(values[np.argsort(ids, kind="stable")],
                     np.cumsum(np.bincount(ids))[:-1])
    return dict(sorted(zip(distinct, (math.fsum(p.tolist()) for p in parts))))


def _analyze_cut(label: str, cols: SpanColumns) -> StepAnalysis:
    ranks = rank_attribution(cols)
    if not ranks:
        return StepAnalysis(label, {0: RankAttribution()}, 0, 0.0, {0: 0.0},
                            {}, {}, {}, {})
    critical_rank = max(ranks, key=lambda r: (ranks[r].busy_s, -r))
    critical_path_s = ranks[critical_rank].busy_s

    # Everything below looks at the critical rank alone; labels are
    # worked out once per distinct (scope, name), not per span.
    critical = cols.take(np.flatnonzero(cols.rank == critical_rank))
    pairs, pair_ids = group_ids(zip(critical.scope.tolist(), critical.name.tolist()))

    def split(label_of) -> dict[str, RankAttribution]:
        labels, ids = group_ids(label_of(*pair) for pair in pairs)
        return dict(zip(labels, _attribute(critical, ids[pair_ids], len(labels))))

    comm = np.flatnonzero(is_comm(critical))
    exposed = critical.busy_s[comm]
    return StepAnalysis(
        label=label,
        ranks=ranks,
        critical_rank=critical_rank,
        critical_path_s=critical_path_s,
        slack_s={rank: critical_path_s - attr.busy_s for rank, attr in ranks.items()},
        exposed_comm_by_op=_fsum_by(critical.name[comm].tolist(), exposed),
        exposed_comm_by_kind=_fsum_by(
            [KIND_NAMES[kind] for kind in critical.kind[comm].tolist()], exposed),
        phases=split(lambda scope, name: _phase_label(scope)),
        layers=split(_layer_label),
        chain=_critical_chain(cols, critical_rank),
    )


def _run_ends(*keys: np.ndarray) -> np.ndarray:
    """Mask of the rows that end a run of equal ``keys`` (sorted alike)."""
    ends = np.ones(len(keys[0]), dtype=bool)
    ends[:-1] = np.logical_or.reduce([key[1:] != key[:-1] for key in keys])
    return ends


def _critical_chain(cols, critical_rank: int) -> list[ChainSegment]:
    """Walk the dependency chain backward from the critical rank's end.

    Compute runs stay on their rank; a collective's start is gated by
    the participant that arrived last (largest pre-collective busy
    clock ``t0`` among the spans sharing its collective id, the later
    span if a rank carries the id twice), so the walk jumps there and
    continues.  The result, reversed, reads forward in time: which rank
    the step's length was living on, and through which collective
    responsibility changed hands.  Which rows jump, and where to, is
    worked out for all rows at once; the walk then takes one iteration
    per *segment*.
    """
    n = len(cols)
    # the walk only groups rows by rank, so sorted-rank ids serve
    rank_of, rank_ids = np.unique(cols.rank, return_inverse=True)
    rank_of = rank_of.tolist()
    at = rank_of.index(critical_rank)
    # rows grouped by rank, in recorded order
    by_rank = np.argsort(rank_ids, kind="stable")
    starts = np.searchsorted(rank_ids[by_rank], np.arange(len(rank_of) + 1))

    # the arrival of each (collective id, rank): the last such row ...
    arrivals = np.flatnonzero(~np.isnan(cols.cid))
    arrivals = arrivals[np.lexsort((rank_ids[arrivals], cols.cid[arrivals]))]
    arrivals = arrivals[_run_ends(cols.cid[arrivals], rank_ids[arrivals])]
    # ... and of those, per id, the one with the largest (t0, rank)
    arrivals = arrivals[np.lexsort(
        (cols.rank[arrivals], cols.t0[arrivals], cols.cid[arrivals]))]
    blockers = arrivals[_run_ends(cols.cid[arrivals])]
    blocker = np.zeros(n, dtype=np.int64)
    waiting = np.flatnonzero(~np.isnan(cols.cid) & (cols.group_len > 1))
    blocker[waiting] = blockers[
        np.searchsorted(cols.cid[blockers], cols.cid[waiting])]
    jumps = np.zeros(n, dtype=bool)
    jumps[waiting] = ((rank_ids[blocker[waiting]] != rank_ids[waiting])
                      & (cols.t0[blocker[waiting]] > cols.t0[waiting]))

    segments: list[ChainSegment] = []
    via, via_cid = None, None
    last = starts[at + 1] - starts[at] - 1
    budget = n  # a malformed trace could cycle; n steps is every span once
    while last >= 0 and budget > 0:
        rows = by_rank[starts[at]:starts[at] + last + 1]
        jumping = np.flatnonzero(jumps[rows])
        first = max(jumping[-1] if jumping.size else 0, len(rows) - budget)
        run = rows[first:]
        budget -= run.size
        segments.append(ChainSegment(
            rank=rank_of[at],
            spans=run.size,
            busy_s=math.fsum(cols.busy_s[run].tolist()),
            first_op=cols.name[run[0]],
            last_op=cols.name[run[-1]],
            via=via,
            via_cid=via_cid,
        ))
        if not jumps[run[0]]:
            break
        via, via_cid = cols.name[run[0]], int(cols.cid[run[0]])
        at = rank_ids[blocker[run[0]]]
        last = np.searchsorted(by_rank[starts[at]:starts[at + 1]],
                               blocker[run[0]]) - 1
    segments.reverse()
    return segments


def analyze_trace(trace: "Tracer | SpanColumns | Iterable[Span]") -> TraceAnalysis:
    """Full analysis of a trace: overall plus per-``step.N`` cuts.

    The *overall* analysis accumulates over every span in recorded
    order, so its per-rank totals are bitwise-equal to the Timeline
    ledgers; per-step analyses partition the same spans by their
    ``step.N`` scope root (spans outside any step — e.g. free-standing
    markers — appear only in the overall cut).  A trace that is one
    step and nothing else is analysed once: its cut is the overall
    analysis under the step's label, sharing its parts.
    """
    cols = SpanColumns.of(trace)
    overall = _analyze_cut("run", cols)
    scopes, scope_ids = group_ids(cols.scope.tolist())
    roots, root_ids = group_ids(scope.split("/", 1)[0] for scope in scopes)
    root_ids = root_ids[scope_ids]
    labels = sorted((root for root in roots if _STEP_SCOPE.match(root)),
                    key=lambda root: int(root.split(".")[1]))
    if len(labels) == len(roots) == 1:
        return TraceAnalysis(overall, [replace(overall, label=labels[0])])
    steps = [
        _analyze_cut(label, cols.take(np.flatnonzero(root_ids == roots.index(label))))
        for label in labels
    ]
    return TraceAnalysis(overall=overall, steps=steps)


# -- reporting ---------------------------------------------------------------
def critical_path_report(analysis: TraceAnalysis, top: int = 6) -> str:
    """Human-readable critical-path explanation of a run."""
    from repro.experiments.common import format_table

    overall = analysis.overall
    crit = overall.ranks[overall.critical_rank]
    lines = [
        f"critical path:            {overall.critical_path_s:.6f} s "
        f"(rank {overall.critical_rank})",
        f"bound resource:           {overall.bound_resource} "
        f"(compute {crit.compute_s:.6f} s, exposed comm {crit.exposed_comm_s:.6f} s, "
        f"io {crit.io_s:.6f} s)",
        f"exposed-comm fraction:    {overall.exposed_comm_fraction:.4f}",
        f"hidden (overlapped) comm: {crit.hidden_comm_s:.6f} s on the critical rank",
        f"steps analyzed:           {len(analysis.steps)}",
    ]

    if overall.exposed_comm_by_op:
        rows = [
            [op, f"{seconds:.6f}"]
            for op, seconds in sorted(
                overall.exposed_comm_by_op.items(), key=lambda kv: -kv[1]
            )[:top]
        ]
        lines += ["", format_table(["collective", "exposed_s"], rows,
                                   title="Exposed comm by operation (critical rank)")]

    phase_rows = [
        [label, f"{attr.compute_s:.6f}", f"{attr.exposed_comm_s:.6f}",
         f"{attr.hidden_comm_s:.6f}", f"{attr.busy_s:.6f}"]
        for label, attr in sorted(
            overall.phases.items(), key=lambda kv: -kv[1].busy_s
        )
    ]
    if phase_rows:
        lines += ["", format_table(
            ["phase", "compute_s", "exposed_s", "hidden_s", "busy_s"],
            phase_rows, title="Per-phase breakdown (critical rank)")]

    layer_rows = [
        [label, f"{attr.compute_s:.6f}", f"{attr.exposed_comm_s:.6f}", f"{attr.busy_s:.6f}"]
        for label, attr in sorted(
            overall.layers.items(), key=lambda kv: -kv[1].busy_s
        )[:top]
        if attr.busy_s > 0.0
    ]
    if layer_rows:
        lines += ["", format_table(
            ["layer", "compute_s", "exposed_s", "busy_s"],
            layer_rows, title="Top layers by critical-rank busy time")]

    slack_rows = [
        [rank, f"{overall.ranks[rank].busy_s:.6f}", f"{slack:.6f}"]
        for rank, slack in sorted(overall.slack_s.items())
    ]
    lines += ["", format_table(["rank", "busy_s", "slack_s"], slack_rows,
                               title="Per-rank slack vs the critical path")]

    if overall.chain:
        chain_rows = [
            [seg.rank, seg.spans, f"{seg.busy_s:.6f}",
             seg.via if seg.via is not None else "(start)"]
            for seg in overall.chain
        ]
        lines += ["", format_table(
            ["rank", "spans", "busy_s", "entered via"],
            chain_rows, title="Critical-path chain (cross-rank)")]
    return "\n".join(lines)
