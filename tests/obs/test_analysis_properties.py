"""Property tests: span aggregations partition ledger time exactly.

For *arbitrary* sequences of compute / collective / marker events
driven through a real :class:`~repro.cluster.timeline.Timeline` with a
tracer attached, the per-rank table's buckets must satisfy the
partition identity bitwise::

    rank_attribution(trace)[r].compute_s
        + rank_attribution(trace)[r].exposed_comm_s == ledger(r).walltime_s

— including the empty trace and traces containing only zero-duration
markers.  Both sides accumulate the same floats in the same order, so
``==`` is exact, never approximate.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.timeline import Timeline
from repro.obs import analysis, analyze_trace, rank_attribution
from repro.obs.critical_path import RankAttribution
from repro.obs.tracer import Tracer

NUM_RANKS = 4

_seconds = st.floats(min_value=0.0, max_value=1e3, allow_nan=False,
                     allow_infinity=False)
_rank = st.integers(min_value=0, max_value=NUM_RANKS - 1)
_group = st.lists(_rank, min_size=1, max_size=NUM_RANKS, unique=True)

_compute_event = st.tuples(st.just("compute"), _rank, _seconds,
                           st.floats(min_value=0.0, max_value=1e12))
_comm_event = st.tuples(st.just("comm"), _group, _seconds,
                        st.floats(min_value=0.0, max_value=1e9),
                        st.booleans(),
                        st.sampled_from(["all_gather", "all_reduce",
                                         "reduce_scatter"]))
_marker_event = st.tuples(st.just("marker"), _rank,
                          st.sampled_from(["optimizer", "checkpoint", "io"]))

_events = st.lists(st.one_of(_compute_event, _comm_event, _marker_event),
                   max_size=60)


def _replay(events) -> tuple[Timeline, Tracer]:
    tracer = Tracer()
    timeline = Timeline(NUM_RANKS, tracer=tracer)
    for event in events:
        if event[0] == "compute":
            _, rank, seconds, flops = event
            timeline.record_compute(rank, seconds, flops=flops)
        elif event[0] == "comm":
            _, ranks, seconds, nbytes, overlappable, op = event
            timeline.record_comm(ranks, seconds, nbytes,
                                 overlappable=overlappable, op=op)
        else:
            _, rank, kind = event
            tracer.instant(kind, f"{kind}.marker", rank=rank,
                           t0=timeline.ledger(rank).walltime_s)
    return timeline, tracer


class TestPartitionIdentity:
    @settings(max_examples=60, deadline=None)
    @given(_events)
    def test_compute_plus_exposed_partitions_walltime(self, events):
        timeline, tracer = _replay(events)
        table = rank_attribution(tracer)
        for rank in range(NUM_RANKS):
            ledger = timeline.ledger(rank)
            attr = table.get(rank, RankAttribution())
            assert attr.compute_s == ledger.compute_s
            assert attr.exposed_comm_s == ledger.exposed_comm_s
            assert attr.comm_s == ledger.comm_s
            assert attr.compute_s + attr.exposed_comm_s == ledger.walltime_s

    @settings(max_examples=60, deadline=None)
    @given(_events)
    def test_analyzer_buckets_match_ledgers(self, events):
        timeline, tracer = _replay(events)
        decomposition = analyze_trace(tracer)
        walltimes = [timeline.ledger(r).walltime_s for r in range(NUM_RANKS)]
        assert decomposition.critical_path_s == max(walltimes, default=0.0)
        for rank, attr in decomposition.overall.ranks.items():
            ledger = timeline.ledger(rank)
            assert attr.compute_s == ledger.compute_s
            assert attr.exposed_comm_s == ledger.exposed_comm_s
            # markers and io don't exist in the ledger; without io the
            # busy identity reduces to the ledger walltime
            assert attr.busy_s == ledger.walltime_s + attr.io_s

    @settings(max_examples=40, deadline=None)
    @given(_events)
    def test_hidden_plus_exposed_equals_total_comm(self, events):
        _, tracer = _replay(events)
        for attr in rank_attribution(tracer).values():
            # summed separately, so approximate (unlike the ledger-order
            # identities above, which are bitwise)
            assert attr.exposed_comm_s + attr.hidden_comm_s == pytest.approx(
                attr.comm_s, rel=1e-9, abs=1e-15
            )


class TestEdgeCases:
    def test_empty_trace(self):
        tracer = Tracer()
        assert rank_attribution(tracer) == {}
        assert analysis.exposed_comm_ratio(tracer.spans) == 0.0
        decomposition = analyze_trace(tracer)
        assert decomposition.critical_path_s == 0.0
        assert decomposition.bound_resource == "idle"

    def test_marker_only_trace_contributes_nothing(self):
        tracer = Tracer()
        for rank in range(NUM_RANKS):
            tracer.instant("optimizer", "opt.step", rank=rank)
            tracer.instant("io", "ckpt.write", rank=rank)
        # markers are not timed kinds, so no rank accrues busy time
        assert all(attr.busy_s == 0.0 for attr in rank_attribution(tracer).values())
        decomposition = analyze_trace(tracer)
        assert decomposition.critical_path_s == 0.0
        # io markers have zero duration, so even the io bucket is empty
        assert all(
            attr.io_s == 0.0 for attr in decomposition.overall.ranks.values()
        )

    @settings(max_examples=40, deadline=None)
    @given(_events)
    def test_markers_never_change_totals(self, events):
        """The same run with markers stripped yields identical buckets."""
        _, tracer = _replay(events)
        with_markers = rank_attribution(tracer)
        stripped = [s for s in tracer.spans
                    if s.kind in ("compute", "collective", "gather")]
        without_markers = rank_attribution(stripped)
        for rank in set(with_markers) & set(without_markers):
            # every bucket but the span count
            assert replace(with_markers[rank], spans=0) == \
                replace(without_markers[rank], spans=0)

    @settings(max_examples=30, deadline=None)
    @given(_events)
    def test_top_operations_totals_are_consistent(self, events):
        _, tracer = _replay(events)
        ops = analysis.top_operations(tracer.spans, limit=100)
        total_count = sum(entry["count"] for entry in ops)
        assert total_count == sum(
            1 for s in tracer.spans if s.kind in ("collective", "gather")
        ) + sum(1 for s in tracer.spans if s.kind == "compute")
