"""Compiled stream replay against its oracle, the event walk.

``Timeline.replay`` lands an :class:`EventStream` as per-rank column
sums when nothing but the ledgers can observe the difference; the walk
through ``record_compute`` / ``record_comm`` (what a plain list of the
same events takes) is the oracle.  Every comparison here is ``==`` on
``float.hex()`` — the compiled path has no tolerance — and the routing
tests count ``record_comm`` calls to pin which replays may skip the
walk: none that a tracer, a capture, an injector or a fold could see.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.symmetry import RankClassPartition
from repro.cluster.timeline import (
    EventStream,
    FoldedTimeline,
    RankLedger,
    Timeline,
    _ledger_values,
)
from repro.obs import OFF
from repro.obs.tracer import Tracer

_WIDTH = 4          # a stream names ranks 0 .. _WIDTH - 1
_MAX_OFFSET = 5     # ... and lands at offsets 0 .. _MAX_OFFSET

#: Seconds as the cost models produce them, plus the values where the
#: overlap split changes branch: exact zeros and a repeated magnitude
#: (``min(seconds, budget)`` ties).
_SECONDS = st.one_of(
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    st.sampled_from([0.0, 0.25, 1e-300, 5e-324]),
)
_AMOUNTS = st.one_of(
    st.floats(min_value=0.0, max_value=1e15, allow_nan=False),
    st.integers(0, 1 << 40),
)
_NAMES = st.sampled_from(["probe.attn.qkv", "probe.mlp.fc1", "all_gather"])


@st.composite
def _events(draw, min_size=0):
    ranks = st.integers(0, draw(st.integers(1, _WIDTH)) - 1)
    compute = st.tuples(st.just("compute"), ranks, _SECONDS, _AMOUNTS, _NAMES,
                        st.just("step/forward"))
    # Multi-rank groups, a rank possibly named twice (the walk then
    # charges it twice; so must the columns).
    groups = st.lists(ranks, min_size=1, max_size=_WIDTH).map(tuple)
    comm = st.tuples(st.just("comm"), groups, _SECONDS, _AMOUNTS,
                     st.booleans(), _NAMES, st.just("step/forward"),
                     st.sampled_from(["gather", "collective"]))
    free = st.tuples(st.just("free"), groups, _NAMES, _AMOUNTS,
                     st.just("step/forward"))
    return draw(st.lists(st.one_of(compute, comm, comm, free),
                         min_size=min_size, max_size=40))


_ENTRY = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def _pair(draw):
    """Two timelines in the same random non-zero state."""
    world = _WIDTH + _MAX_OFFSET
    states = [[draw(_ENTRY) for _ in range(6)] for _ in range(world)]
    first_cid = draw(st.integers(0, 1000))
    pair = []
    for _ in range(2):
        timeline = Timeline(world)
        timeline._ledgers = [RankLedger(*state) for state in states]
        timeline._collective_ids = itertools.count(first_cid)
        pair.append(timeline)
    return pair


def _state(timeline) -> tuple:
    ledgers = [[float(v).hex() for v in _ledger_values(timeline.ledger(r))]
               for r in range(timeline.num_ranks)]
    return ledgers, next(timeline._collective_ids)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_compiled_replay_is_the_event_walk(data):
    events = data.draw(_events())
    offsets = data.draw(
        st.lists(st.integers(0, _MAX_OFFSET), min_size=1, max_size=8))
    compiled, walked = _pair(data.draw)
    stream = EventStream(events)
    for offset in offsets:
        compiled.replay(stream, offset)
        walked.replay(events, offset)   # a plain list takes the walk
    assert stream.compiled()[0] is not None
    assert _state(compiled) == _state(walked)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_trunk_of_copies_hits_the_budget_memo(data):
    """Copies 2...L of a stream ending on a blocking collective enter
    with the same budget: one program run per rank, then memo hits —
    and the ledgers still ``==`` the walk's."""
    body = data.draw(_events(min_size=1))
    closing = ("comm", tuple(range(_WIDTH)), data.draw(_SECONDS), 8, False,
               "all_reduce", "step/forward", "collective")
    events = body + [closing]
    compiled, walked = _pair(data.draw)
    stream = EventStream(events)
    for _ in range(6):
        compiled.replay(stream)
        walked.replay(events)
    assert _state(compiled) == _state(walked)
    columns, _ = stream.compiled()
    assert all(1 <= len(rank.exposed_memo) <= 2 for rank in columns)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_negative_seconds_raise_from_both(data):
    events = data.draw(_events(min_size=1))
    at = data.draw(st.integers(0, len(events) - 1))
    bad = list(events[at])
    if bad[0] == "free":
        bad = ["compute", 0, 0.0, 0.0, "gemm", ""]
    bad[2] = -data.draw(st.floats(min_value=5e-324, max_value=10.0))
    events[at] = tuple(bad)
    compiled, walked = _pair(data.draw)
    before = _state(compiled)
    with pytest.raises(ValueError, match="seconds must be non-negative"):
        walked.replay(events)
    with pytest.raises(ValueError, match="seconds must be non-negative"):
        compiled.replay(EventStream(events))
    # Validated at compile time: nothing landed before the refusal.
    assert _state(compiled) == (before[0], before[1] + 1)


# -- routing: who may skip the walk ------------------------------------------
_PART = RankClassPartition(tp_size=2, fsdp_size=2, ddp_size=1)
_FLAT = (
    ("compute", 0, 1.0, 10.0, "probe.gemm", "step"),
    ("comm", (0, 1), 0.5, 64, True, "all_gather", "step", "gather"),
    ("compute", 1, 2.0, 10.0, "probe.gemm", "step"),
    ("comm", (0, 1), 0.25, 8, False, "all_reduce", "step", "collective"),
    ("free", (0, 1), "probe.weight", 64, "step"),
)
_SEGMENTED = (
    ("push", "fsdp", 2, 2, None),
    ("compute", 0, 1.0, 10.0, "probe.gemm", "step"),
    ("comm", (0, 1), 0.25, 8, False, "all_reduce", "step", "collective"),
    ("pop",),
)


@pytest.fixture
def walked(monkeypatch):
    """Counts the ``record_*`` calls a replay makes: the event walk."""
    calls = Counter()
    # FoldedTimeline inherits both (it overrides only the landings).
    for name in ("record_compute", "record_comm"):
        def wrapper(*args, _name=name, _original=getattr(Timeline, name),
                    **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(Timeline, name, wrapper)
    return calls


def test_an_untraced_exact_timeline_skips_the_walk(walked):
    timeline, reference = Timeline(4), Timeline(4)
    timeline.replay(EventStream(_FLAT), offset=2)
    assert not walked
    reference.replay(list(_FLAT), offset=2)
    assert walked == {"record_compute": 2, "record_comm": 2}
    assert _state(timeline) == _state(reference)


class _Stretch:
    """An injector that is not ``OFF``, even if it does nothing."""

    def before_compute(self, rank, seconds, op):
        return seconds

    def before_comm(self, ranks, seconds, op):
        return seconds


def _traced():
    return Timeline(4, tracer=Tracer(metrics=OFF))


def _injected():
    timeline = Timeline(4)
    timeline.injector = _Stretch()
    return timeline


_WALKS = {
    "traced": (_traced, _FLAT),
    "injector": (_injected, _FLAT),
    "folded": (lambda: FoldedTimeline(4, _PART), _FLAT),
    # Segment markers are not unrolled at compile time: an exact
    # timeline's walk runs both iterations of the folded axis.
    "segment-markers": (lambda: Timeline(4), _SEGMENTED),
}


@pytest.mark.parametrize("build, events", _WALKS.values(), ids=_WALKS.keys())
def test_everything_observable_takes_the_event_walk(walked, build, events):
    build().replay(EventStream(events))
    assert walked["record_comm"] == 2


def test_a_plain_sequence_takes_the_event_walk(walked):
    Timeline(4).replay(_FLAT)
    assert walked["record_comm"] == 2


def test_an_open_capture_takes_the_event_walk(walked):
    timeline = Timeline(4)
    stream = EventStream(_FLAT)
    with timeline.capture() as captured:
        timeline.replay(stream, offset=1)
    assert walked["record_comm"] == 2
    # The capture holds the replay as one entry, the stream by
    # reference, and replaying the capture makes the same calls.
    (entry,) = captured
    assert entry[0] == "replay" and entry[1] is stream and entry[2:] == (1, ())
    again = Timeline(4)
    again.replay(captured)
    assert walked["record_comm"] == 4
    assert _state(again) == _state(timeline)
    # A compiled stream answers "take the walk" for such an entry.
    assert EventStream(captured).compiled() == (None, 0)


def test_traced_replay_of_a_stream_records_every_span(walked):
    """Names and renames are dropped only where no tracer reads them."""
    tracer = Tracer(metrics=OFF)
    timeline = Timeline(4, tracer=tracer)
    timeline.replay(EventStream(_FLAT), renames=(("probe.", "block3."),))
    names = [span.name for span in tracer.spans]
    assert "block3.gemm" in names and "free.block3.weight" in names
    assert not any("probe." in name for name in names)
