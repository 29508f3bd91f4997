"""Timeline edge cases: overlap-budget safety as a property, boundary
inputs, the bulk-synchronous walltime definition, and narrowed captures
of folded runs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Timeline
from repro.cluster.symmetry import RankClassPartition
from repro.cluster.timeline import FoldedTimeline, RankLedger
from repro.obs import OFF
from repro.obs.tracer import Tracer

# One timeline event: either compute or a collective with an overlap flag.
_EVENTS = st.lists(
    st.one_of(
        st.tuples(
            st.just("compute"),
            st.floats(min_value=0.0, max_value=10.0,
                      allow_nan=False, allow_infinity=False),
        ),
        st.tuples(
            st.just("comm"),
            st.floats(min_value=0.0, max_value=10.0,
                      allow_nan=False, allow_infinity=False),
            st.booleans(),
        ),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(events=_EVENTS)
def test_overlap_budget_never_negative(events):
    """No sequence of operations can drive the budget below zero, and
    exposed communication never exceeds total communication."""
    tl = Timeline(2)
    for event in events:
        if event[0] == "compute":
            tl.record_compute(0, event[1])
        else:
            tl.record_comm([0, 1], event[1], nbytes=8.0, overlappable=event[2])
        for rank in range(2):
            led = tl.ledger(rank)
            assert led.overlap_budget_s >= 0.0
            assert 0.0 <= led.exposed_comm_s <= led.comm_s + 1e-9
            assert led.walltime_s >= 0.0


@settings(max_examples=100, deadline=None)
@given(events=_EVENTS)
def test_hidden_time_bounded_by_compute(events):
    """Total hidden communication can never exceed total compute."""
    tl = Timeline(1)
    for event in events:
        if event[0] == "compute":
            tl.record_compute(0, event[1])
        else:
            tl.record_comm([0], event[1], nbytes=8.0, overlappable=event[2])
    led = tl.ledger(0)
    hidden = led.comm_s - led.exposed_comm_s
    assert hidden <= led.compute_s + 1e-9


class TestBoundaryInputs:
    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Timeline(1).record_compute(0, -1e-9)

    def test_negative_comm_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Timeline(2).record_comm([0, 1], -0.5, nbytes=8.0)

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            Timeline(0)

    def test_zero_duration_events_are_legal(self):
        tl = Timeline(1)
        tl.record_compute(0, 0.0)
        tl.record_comm([0], 0.0, nbytes=0.0)
        assert tl.ledger(0).walltime_s == 0.0

    def test_comm_with_generator_ranks(self):
        """record_comm must materialize lazily-supplied rank iterables."""
        tl = Timeline(4)
        tl.record_comm((r for r in range(4)), 0.5, nbytes=8.0)
        for rank in range(4):
            assert tl.ledger(rank).comm_s == pytest.approx(0.5)


class TestWalltimeSemantics:
    def test_walltime_is_max_over_participating_ranks(self):
        tl = Timeline(4)
        tl.record_compute(0, 1.0)
        tl.record_compute(1, 3.0)
        tl.record_compute(2, 2.0)
        assert tl.walltime_s() == 3.0
        assert tl.walltime_s(ranks=[0, 2]) == 2.0
        assert tl.walltime_s(ranks=[3]) == 0.0

    def test_walltime_counts_only_exposed_comm(self):
        tl = Timeline(1)
        tl.record_compute(0, 2.0)
        tl.record_comm([0], 1.5, nbytes=8.0, overlappable=True)  # fully hidden
        assert tl.walltime_s() == 2.0
        tl.record_comm([0], 1.0, nbytes=8.0)  # blocking: fully exposed
        assert tl.walltime_s() == 3.0

    def test_empty_rank_selection(self):
        assert Timeline(2).walltime_s(ranks=[]) == 0.0


# -- capture(ranks=...) on a folded timeline ---------------------------------
_PART = RankClassPartition(tp_size=2, fsdp_size=3, ddp_size=2)
_RANK_SETS = {
    "representatives": frozenset(_PART.rank(0, 0, 0, k) for k in range(2)),
    # Reached only by iterations > 0 of the outer *and* the inner segment.
    "non-representatives": frozenset({_PART.rank(0, 1, 2, 1), _PART.rank(0, 0, 1, 0)}),
    "every-rank": frozenset(range(_PART.num_gpus)),
}


def _engine_shaped(timeline):
    """A replica loop around per-column shard loops — a segment nested
    in a segment on a folded timeline — with FSDP-group collectives and
    release markers outside the shard loop, as the sharded layers do."""
    part = _PART
    for d in timeline.fold_iter("ddp", range(part.ddp_size)):
        for k in range(part.tp_size):
            shards = [part.rank(0, d, f, k) for f in range(part.fsdp_size)]
            timeline.record_comm(shards, 0.25 + k, 64.0, overlappable=True,
                                 op=f"trunk{d}.gather")
            for f in timeline.fold_iter("fsdp", range(part.fsdp_size)):
                timeline.record_compute(part.rank(0, d, f, k), 1.0 + k, 10.0,
                                        op=f"trunk{d}.matmul")
                timeline.record_comm(
                    [part.rank(0, d, f, j) for j in range(part.tp_size)],
                    0.5, 8.0, op=f"trunk{d}.all_reduce")
            timeline.record_free(shards, f"trunk{d}.weight", 64.0)


def _narrowed(timeline, ranks):
    with timeline.capture(ranks=ranks) as events:
        _engine_shaped(timeline)
    return events


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("ranks", _RANK_SETS.values(), ids=_RANK_SETS.keys())
def test_narrowed_folded_capture_is_the_narrowed_exact_capture(ranks, traced):
    """Narrowing resolves folded segments instead of passing their
    markers through: the stream is flat, ``==`` the one an exact
    timeline captures, and a replay of it touches ``ranks`` alone."""
    def tracer():
        return Tracer(metrics=OFF) if traced else None

    world = _PART.num_gpus
    exact = _narrowed(Timeline(world, tracer=tracer()), ranks)
    folded = _narrowed(FoldedTimeline(world, _PART, tracer=tracer()), ranks)
    assert {event[0] for event in folded} == (
        {"compute", "comm", "free"} if traced else {"compute", "comm"})
    assert folded == exact

    replayed, reference = Timeline(world), Timeline(world)
    replayed.replay(folded)
    _engine_shaped(reference)
    for rank in range(world):
        want = reference.ledger(rank) if rank in ranks else RankLedger()
        assert replayed.ledger(rank) == want, rank


def test_narrowing_leaves_the_folded_log_alone():
    """``expand()`` reads ``_log``; a narrowed capture must not edit it."""
    plain = FoldedTimeline(_PART.num_gpus, _PART)
    _engine_shaped(plain)
    narrowed = FoldedTimeline(_PART.num_gpus, _PART)
    _narrowed(narrowed, _RANK_SETS["representatives"])
    assert narrowed._log == plain._log
    assert {"push", "pop", "free"} <= {entry[0] for entry in plain._log}
