"""Compiled stream replay against its oracle, the event walk.

``Timeline.replay`` lands an :class:`EventStream` from the form compiled
for its receiver, from the stream's first replay there on, whenever no
capture is open and the injector's ``pricing`` is settled; the walk
through ``record_compute`` / ``record_comm`` /
``record_free`` (what a plain list of the same events takes) is the
oracle.  The property draws streams with by-reference ``replay``
entries and folded ``push``/``pop`` segments and lands them on exact
and folded receivers, traced or not, folded or unfolded, with no
injector, a quiet or a fired fault injector or the estimator's profile
injector; every comparison is ``==`` — ledgers by ``float.hex()``, span
rows, the ``spans.*`` counters in creation order and the fold log by
``repr`` — and the routing tests count ``record_comm`` calls to pin
which replays still walk: those a capture observes, those under an
injector whose ``pricing`` is ``None``, an observed one under a
stretching injector, and plain lists.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import DEFAULT_MATRIX, FRONTIER_MATRIX, run_case
from repro.cluster import timeline as timeline_module
from repro.cluster.symmetry import RankClassPartition
from repro.cluster.timeline import (
    EventStream,
    FoldedTimeline,
    RankLedger,
    Timeline,
    _ledger_values,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.obs import OFF
from repro.obs.off import MetricsOnly
from repro.obs.tracer import SpanBlock, Tracer
from repro.tune.estimator import _ProfileInjector
from tests.invariants import columns, count_calls, walked_streams

_WIDTH = 4          # a flat stream names ranks 0 .. _WIDTH - 1
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
_NAMES = st.sampled_from(["probe.attn.qkv", "probe.mlp.fc1", "all_gather",
                          "trunk0.block0.fc", "trunk0.block1.fc",
                          "pipeline.stall"])
_SCOPES = st.sampled_from(["step.1/forward", "step.1/trunk0.block0", ""])


def _entries(ranks):
    """Compute, comm and free entries over ``ranks`` (a strategy)."""
    compute = st.tuples(st.just("compute"), ranks, _SECONDS, _AMOUNTS, _NAMES,
                        _SCOPES)
    # Multi-rank groups, a rank possibly named twice (the walk then
    # charges it twice; so must the columns).
    groups = st.lists(ranks, min_size=1, max_size=_WIDTH).map(tuple)
    comm = st.tuples(st.just("comm"), groups, _SECONDS, _AMOUNTS,
                     st.booleans(), _NAMES, _SCOPES,
                     st.sampled_from(["gather", "collective"]))
    free = st.tuples(st.just("free"), groups, _NAMES, _AMOUNTS, _SCOPES)
    return st.one_of(compute, comm, comm, free)


@st.composite
def _events(draw, min_size=0):
    ranks = st.integers(0, draw(st.integers(1, _WIDTH)) - 1)
    return draw(st.lists(_entries(ranks), min_size=min_size, max_size=40))


_ENTRY = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


#: Factors whose products round differently in each order.
_FACTORS = st.sampled_from([1.1, 1.7, 3.0, 1e3 / 3])


def _fired(faults) -> FaultInjector:
    """A fault injector at step 1 of ``faults`` (windows opened at step
    0), every degradation fired at step 0: its ``pricing`` is settled."""
    injector = FaultInjector(FaultPlan(faults=tuple(faults)))
    injector.begin_step(0)
    for fault in faults:
        injector.before_compute(fault.rank, 1.0, "gemm")
        injector.before_comm((fault.rank,), 1.0, "all_reduce")
    injector.begin_step(1)
    return injector


@st.composite
def _injectors(draw):
    """A factory of ``OFF``, a quiet or a fired fault injector, or the
    estimator's profile injector, over ranks 0..7."""
    kind = draw(st.sampled_from(["off", "quiet", "fired", "profile"]))
    ranks = st.integers(0, 7)
    if kind == "quiet":  # a straggler whose window opens later
        plan = FaultPlan(faults=(FaultSpec("straggler", step=3, rank=0,
                                           factor=2.0),))
        return lambda: FaultInjector(plan)
    if kind == "fired":
        faults = draw(st.lists(st.builds(
            FaultSpec, kind=st.sampled_from(["straggler", "link_degrade"]),
            step=st.just(0), rank=ranks, factor=_FACTORS,
            duration_steps=st.just(2)), min_size=1, max_size=4))
        return lambda: _fired(faults)
    if kind == "profile":
        compute, links = (draw(st.dictionaries(ranks, _FACTORS, max_size=4))
                          for _ in range(2))
        return lambda: _ProfileInjector(compute, links)
    return lambda: OFF


def _pair(draw):
    """Two exact untraced timelines in the same random non-zero state."""
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
    """Under ``OFF`` or any settled injector: a stretching one lands a
    form compiled per offset, its seconds stretched at compile time."""
    events = data.draw(_events())
    offsets = data.draw(
        st.lists(st.integers(0, _MAX_OFFSET), min_size=1, max_size=8))
    compiled, walked = _pair(data.draw)
    injector = data.draw(_injectors())
    compiled.injector, walked.injector = injector(), injector()
    stream = EventStream(events)
    for offset in offsets:
        compiled.replay(stream, offset)
        walked.replay(events, offset)   # a plain list takes the walk
    assert stream.compiled(compiled, offsets[0],
                           compiled.injector.pricing) is not None
    assert _state(compiled) == _state(walked)


# -- every receiver: traced, folded, nested replays and segments -------------
#: tp 2 x fsdp 2 x ddp 2: the FSDP axis steps by 2 ranks, DDP by 4.
_PART = RankClassPartition(tp_size=2, fsdp_size=2, ddp_size=2)
_SEGMENTS = {"fsdp": (2, 2, None), "ddp": (2, 4, ("trunk0", "trunk{}"))}
_RENAMES = st.sampled_from([
    (), (("step.1/", "step.7/"),), (("probe.", "block3."),),
    (("trunk0.block0.", "trunk0.block2."), ("step.1/", "step.2/")),
])


@st.composite
def _nested(draw, depth=2, axes=("ddp", "fsdp")):
    """A stream over ranks 0..1 (a TP pair): entries, by-reference
    replays of shared inner lists, and segments over the fold axes not
    yet opened around them, so every landed rank stays in 0..7."""
    inner = [draw(_nested(depth - 1, axes)) for _ in range(depth and 2)]
    parts = []
    for _ in range(draw(st.integers(0, 6))):
        choice = draw(st.integers(0, 5))
        if choice == 4 and inner:
            parts.append([("replay", draw(st.sampled_from(inner)), 0,
                           draw(_RENAMES))])
        elif choice == 5 and axes and depth:
            axis = draw(st.sampled_from(axes))
            count, stride, rename = _SEGMENTS[axis]
            body = draw(_nested(depth - 1, tuple(a for a in axes if a != axis)))
            parts.append([("push", axis, count, stride, rename), *body, ("pop",)])
        else:
            parts.append(draw(st.lists(_entries(st.integers(0, 1)), max_size=4)))
    return [entry for part in parts for entry in part]


def _receiver(kind, traced, state):
    """A timeline of ``kind`` in ``state`` (``(ledger values, first
    collective id)``), with a tracer, ``MetricsOnly`` or ``OFF``."""
    tracer = Tracer() if traced else MetricsOnly()
    if kind == "exact":
        timeline = Timeline(_PART.num_gpus, tracer=tracer)
    else:
        timeline = FoldedTimeline(_PART.num_gpus, _PART, tracer=tracer)
        if kind == "unfolded":
            timeline.unfold()
        timeline._log.append(("compute", 0, 1.0, 0.0, "before", ""))
    values, first_cid = state
    if kind == "folded":
        for key, value in zip(timeline._keys, values):
            timeline._class_ledgers[key] = RankLedger(*value)
    else:
        timeline._ledgers = [RankLedger(*value) for value in values]
    timeline._collective_ids = itertools.count(first_cid)
    return timeline


def _observed(timeline) -> dict:
    """Everything a replay leaves that anyone can read."""
    if isinstance(timeline, FoldedTimeline) and timeline.folded:
        ledgers = timeline._class_ledgers.values()
    else:
        ledgers = timeline._ledgers
    tracer = timeline.tracer
    return {
        "ledgers": [[float(v).hex() for v in _ledger_values(led)]
                    for led in ledgers],
        "next_cid": next(timeline._collective_ids),
        # the columns first: a compiled landing's until the rows are read
        "columns": columns(tracer),
        "rows": repr(getattr(tracer.spans, "_rows", None)),
        "counters": repr([(name, c.value) for name, c
                          in tracer.metrics._instruments.items()]),
        "scope": (tracer.current_scope, tracer.current_comm_kind),
        "log": repr(getattr(timeline, "_log", None)),
    }


def _lands_the_walk(kind, traced, events, injector, state, replays):
    """Replay ``events`` compiled on one receiver and walked on an
    identical one; both must leave the same observable state."""
    compiled, walked = (_receiver(kind, traced, state) for _ in range(2))
    compiled.injector, walked.injector = injector(), injector()
    assert compiled.injector.pricing is not None
    stream = EventStream(events)
    for renames in replays:
        compiled.replay(stream, renames=renames)
        walked.replay(list(events), renames=renames)
    assert _observed(compiled) == _observed(walked)
    observed = traced or kind != "exact"
    assert len(stream._forms) == (0 if compiled.injector.pricing and observed
                                  else 1)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("kind", ["exact", "folded", "unfolded"])
@settings(max_examples=17, deadline=None)
@given(data=st.data())
def test_every_receiver_lands_the_walk(kind, traced, data):
    """Traced or not, exact, folded or unfolded, under any settled
    injector: the compiled landing of a stream with nested replays and
    segments leaves what walking the same events as a plain list leaves
    on an identical receiver, replay after replay, checked from the
    first replay (the form is built there once, then reused; an
    observed receiver under a stretching injector builds none).
    Every receiver is its own case, so each gets 17 of the draws."""
    events = data.draw(_nested())
    injector = data.draw(_injectors())
    count = len(_PART.keys) if kind == "folded" else _PART.num_gpus
    state = ([[data.draw(_ENTRY) for _ in range(6)] for _ in range(count)],
             data.draw(st.integers(0, 1000)))
    _lands_the_walk(kind, traced, events, injector, state,
                    data.draw(st.lists(_RENAMES, min_size=2, max_size=3)))


#: Compute on both ranks of the TP pair, then a gather that hides under it.
_HIDDEN_GATHER = [
    ("compute", 0, 1.0, 8.0, "probe.mlp.fc1", "step.1/forward"),
    ("compute", 1, 1.0, 8.0, "probe.mlp.fc1", "step.1/forward"),
    ("comm", (0, 1), 0.25, 64, True, "all_gather", "step.1/forward", "gather"),
]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("kind", ["exact", "folded", "unfolded"])
def test_every_receiver_lands_a_hidden_gather_as_the_walk(kind, traced):
    """The draws above can miss an overlap split on one receiver under
    some seeds; this stream spends each ledger's overlap budget on every
    replay, so the compiled landing, checked from the first replay,
    must spend it as the walk does, whatever the seed."""
    count = len(_PART.keys) if kind == "folded" else _PART.num_gpus
    _lands_the_walk(kind, traced, _HIDDEN_GATHER, lambda: OFF,
                    ([[0.0] * 6 for _ in range(count)], 0),
                    [(), (("step.1/", "step.7/"),), ()])


def test_an_int_amount_column_is_no_seconds_column():
    """Columns are kept once per field: rank 1's FLOPs ``(0,)`` equal
    its gather seconds ``(0.0,)``, but standing in for them would hand
    the landed span an ``int`` hidden split where the walk's is a float
    (the same value, other bytes out)."""
    inner = [("comm", (1,), 0.0, 0.0, True, "all_gather", "step.1/forward",
              "gather"),
             ("compute", 0, 0.0, 0.0, "probe.mlp.fc1", "step.1/forward")]
    _lands_the_walk("exact", True, [("replay", inner, 0, ()),
                                    ("compute", 1, 1.0, 0, "probe.mlp.fc1",
                                     "step.1/forward")], lambda: OFF,
                    ([[0.0] * 6 for _ in range(_PART.num_gpus)], 0), [(), (), ()])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_trunk_of_copies_hits_the_budget_memo(data):
    """Copies 2...L of a stream ending on a blocking collective enter
    with the same budget, 0.0: each ledger runs its budget program on
    copy 1 and at most once more, then hits the memo (ledgers with one
    program share one, so some never run it) — and the ledgers still
    ``==`` the walk's."""
    body = data.draw(_events(min_size=1))
    closing = ("comm", tuple(range(_WIDTH)), data.draw(_SECONDS), 8, False,
               "all_reduce", "step/forward", "collective")
    events = body + [closing]
    compiled, walked = _pair(data.draw)
    stream = EventStream(events)
    runs = Counter()
    original = timeline_module._run_budget

    def counted(columns, budget, traced):
        runs[columns.address] += 1
        return original(columns, budget, traced)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(timeline_module, "_run_budget", counted)
        for _ in range(6):
            compiled.replay(stream)
            walked.replay(events)
    assert _state(compiled) == _state(walked)
    ledgers = stream.compiled(compiled).ledgers
    assert all(ledger.memo is not None for ledger in ledgers)
    assert runs and all(n <= 2 for n in runs.values())


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


#: A collective kind the tracer does not know, after events that land,
#: in a nested replay inside a folded segment.
_UNKNOWN_KIND = [
    *_HIDDEN_GATHER,
    ("push", "fsdp", 2, 2, None),
    ("replay", [_HIDDEN_GATHER[0], ("comm", (0, 1), 0.5, 64, True, "all_gather",
                                    "step.1/forward", "bogus")], 0, ()),
    ("pop",),
]


@pytest.mark.parametrize("kind", ["exact", "folded", "unfolded"])
def test_an_unknown_comm_kind_raises_from_both(kind):
    """A traced replay of a collective kind the tracer does not know
    raises the tracer's ``ValueError`` from the walk, which has landed
    the events before it, and from the first compiled replay, whose form
    is compiled before anything lands: that receiver is left as it was."""
    count = len(_PART.keys) if kind == "folded" else _PART.num_gpus
    state = ([[0.0] * 6 for _ in range(count)], 0)
    compiled, walked, untouched = (_receiver(kind, True, state) for _ in range(3))
    before = _observed(untouched)
    with pytest.raises(ValueError, match="unknown span kind 'bogus'"):
        walked.replay(list(_UNKNOWN_KIND))
    assert _observed(walked) != before
    stream = EventStream(_UNKNOWN_KIND)
    with pytest.raises(ValueError, match="unknown span kind 'bogus'"):
        compiled.replay(stream)
    assert _observed(compiled) == before and not stream._forms


# -- routing: who still walks ------------------------------------------------
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
_TP2 = RankClassPartition(tp_size=2, fsdp_size=2, ddp_size=1)


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


def _replayed(timeline, events, walked, **kwargs):
    """Replay a new stream of ``events`` once on ``timeline``;
    ``walked`` counts that replay alone."""
    stream = EventStream(events)
    walked.clear()
    timeline.replay(stream, **kwargs)
    return stream


@pytest.mark.parametrize("build", [lambda: _traced(),
                                   lambda: FoldedTimeline(4, _TP2)],
                         ids=["traced", "folded"])
def test_an_observed_stream_lands_its_form_from_the_first_replay(
        walked, monkeypatch, build):
    """Where a tracer or an event log observes a replay, a signature's
    first replay builds the form and lands it, and every later one
    lands that form: not one replay walks."""
    builds = Counter()
    form = timeline_module._Compiler.form

    def counted(compiler, events, offset):
        builds["form"] += 1
        return form(compiler, events, offset)

    monkeypatch.setattr(timeline_module._Compiler, "form", counted)
    timeline, stream = build(), EventStream(_FLAT)
    timeline.replay(stream)
    assert not walked and builds == {"form": 1}
    for _ in range(3):
        timeline.replay(stream)
    assert not walked and builds == {"form": 1}


def test_an_untraced_exact_timeline_skips_the_walk(walked):
    """Its form is ledger columns alone, built at the first replay."""
    timeline, reference = Timeline(4), Timeline(4)
    timeline.replay(EventStream(_FLAT), offset=2)
    assert not walked
    reference.replay(list(_FLAT), offset=2)
    assert walked == {"record_compute": 2, "record_comm": 2}
    assert _state(timeline) == _state(reference)


class _Stretch:
    """An injector whose ``pricing`` is ``None`` — it does not vouch for
    its hooks, even if they do nothing — so its replays walk."""

    pricing = None

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


_COMPILED = {
    "traced": (_traced, _FLAT),
    "folded": (lambda: FoldedTimeline(4, _TP2), _FLAT),
    "folded-traced": (lambda: FoldedTimeline(4, _TP2, tracer=Tracer()), _FLAT),
    # An exact timeline unrolls both iterations of the folded axis.
    "segment-markers": (lambda: Timeline(4), _SEGMENTED),
}


@pytest.mark.parametrize("build, events", _COMPILED.values(),
                         ids=_COMPILED.keys())
def test_tracers_and_folds_land_without_the_walk(walked, build, events):
    _replayed(build(), events, walked)
    assert not walked


def test_an_injector_whose_pricing_is_none_takes_the_event_walk(walked):
    _replayed(_injected(), _FLAT, walked)
    assert walked["record_comm"] == 2


def _armed(*faults) -> Timeline:
    """An exact untraced timeline whose fault injector is at step 0."""
    timeline = Timeline(4)
    timeline.injector = FaultInjector(FaultPlan(faults=faults))
    timeline.injector.begin_step(0)
    return timeline


_UNSETTLED = {
    # on rank 3, which no event of the stream names: it never fires
    "live-crash": lambda: _armed(FaultSpec("gpu_crash", step=0, rank=3)),
    # it fires in the first replay, and the step stays unsettled
    "unfired-degradation": lambda: _armed(
        FaultSpec("straggler", step=0, rank=0, factor=2.0)),
}


@pytest.mark.parametrize("build", _UNSETTLED.values(), ids=_UNSETTLED.keys())
def test_an_unsettled_injector_takes_the_event_walk(walked, build):
    timeline = build()
    assert timeline.injector.pricing is None
    _replayed(timeline, _FLAT, walked)
    assert walked["record_comm"] == 2


_STRETCHED = {
    "traced": lambda: Timeline(4, tracer=Tracer(metrics=OFF)),
    "folded": lambda: FoldedTimeline(4, _TP2),
    "unfolded": lambda: _unfolded(FoldedTimeline(4, _TP2)),
}


def _unfolded(timeline):
    timeline.unfold()
    return timeline


@pytest.mark.parametrize("build", _STRETCHED.values(), ids=_STRETCHED.keys())
def test_an_observed_receiver_walks_under_a_stretching_injector(walked, build):
    """Its rows and log would read the recorded seconds; the walk's
    read the stretched ones."""
    timeline = build()
    timeline.injector = _ProfileInjector({0: 2.0}, {1: 3.0})
    stream = _replayed(timeline, _FLAT, walked)
    assert walked["record_comm"] == 2
    assert not stream._forms


def test_a_settled_injector_lands_without_the_walk(walked):
    """A quiet step's fault injector lands the stream's ``OFF`` form; a
    fired window's and the profile injector land their own, built at
    the first replay from seconds stretched as the walk's are."""
    stream = EventStream(_FLAT)
    Timeline(4).replay(stream)
    quiet = _armed(FaultSpec("straggler", step=1, rank=0, factor=2.0))
    assert quiet.injector.pricing == ()
    # at offset 1 the stream's computes land on ranks 1 and 2
    fired = Timeline(4)
    fired.injector = _fired([
        FaultSpec("straggler", step=0, rank=1, factor=2.0, duration_steps=2),
        FaultSpec("link_degrade", step=0, rank=2, factor=3.0, duration_steps=2)])
    assert fired.injector.pricing
    profile = Timeline(4)
    profile.injector = _ProfileInjector({1: 2.0}, {2: 3.0})
    for timeline in (quiet, fired, profile):
        reference = Timeline(4)
        reference.injector = timeline.injector
        walked.clear()
        timeline.replay(stream, offset=1)
        assert not walked
        reference.replay(list(_FLAT), offset=1)
        assert walked["record_comm"] == 2
        assert _state(timeline) == _state(reference)
    assert len(stream._forms) == 3


def test_a_pricing_and_its_offset_key_a_form():
    """Factors name absolute ranks, so a stretched form is compiled per
    pricing and offset; one pricing at one offset shares one."""
    stream = EventStream(_FLAT)
    for factors, offset in (({0: 2.0}, 0), ({0: 2.0}, 0), ({0: 2.0}, 1),
                            ({0: 3.0}, 1)):
        timeline = Timeline(4)
        timeline.injector = _ProfileInjector(factors, {})
        timeline.replay(stream, offset=offset)
    assert len(stream._forms) == 3


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
    # reference; the captured stream compiles through it and lands
    # what walking it does.
    (entry,) = captured
    assert entry[0] == "replay" and entry[1] is stream and entry[2:] == (1, ())
    again, oracle = Timeline(4), Timeline(4)
    outer = _replayed(again, captured, walked)
    again.replay(outer)
    assert not walked
    for _ in range(2):
        oracle.replay(captured)
    assert walked["record_comm"] == 4
    assert _state(again) == _state(oracle)


def test_traced_replay_of_a_stream_records_every_span(walked):
    """Names and renames are dropped only where no tracer reads them."""
    tracer = Tracer(metrics=OFF)
    timeline = Timeline(4, tracer=tracer)
    _replayed(timeline, _FLAT, walked, renames=(("probe.", "block3."),))
    assert not walked
    names = [span.name for span in tracer.spans]
    assert "block3.gemm" in names and "free.block3.weight" in names
    assert not any("probe." in name for name in names)


def test_a_form_is_built_once_per_signature():
    """Replays of one stream share a form per receiver signature and
    never key it by a ledger value; a new signature builds its own.  An
    untraced exact timeline reads nothing but rank-shifted ledgers, so
    its one form serves every offset; a traced one's rows name ranks."""
    stream = EventStream(_FLAT)
    first, second = Timeline(4), Timeline(4)
    second._ledgers[0].compute_s = 3.0
    first.replay(stream)
    second.replay(stream)
    first.replay(stream, offset=1)
    assert len(stream._forms) == 1
    traced = _traced()
    for offset in (0, 0, 1, 1):
        traced.replay(stream, offset=offset)
    assert len(stream._forms) == 3
    assert all(isinstance(form, timeline_module._Form)
               for form in stream._forms.values())


@pytest.mark.parametrize("case", [
    next(case for case in FRONTIER_MATRIX if case.name == "orbit-113b-6144n"),
    DEFAULT_MATRIX[0],
], ids=lambda case: case.name)
def test_a_warm_traced_step_lands_one_block_and_builds_no_row(monkeypatch, case):
    """A warm traced ``run_case`` lands its step as one span block: no
    row through the step and its ``SpanColumns.of`` (72,171 spans on the
    113B case), whose columns are the walk's, and no log entry on the
    exact timeline, which keeps none; the first read of ``tracer.spans``
    builds exactly the walk's rows, and a second builds none."""
    oracle = Tracer()
    with walked_streams():
        run_case(case, tracer=oracle)  # executes, and stores the tape
    run_case(case)  # the tape's first replay builds its form
    built = count_calls(monkeypatch, (SpanBlock, "rows"),
                        (timeline_module, "_merged"))
    tracer = Tracer()
    record = run_case(case, tracer=tracer)
    # only a folded timeline keeps a log, so only it builds its entries
    assert built.pop("_merged", 0) == (case.fold == "on")
    assert tracer._rows == [] and len(tracer._blocks) == 1 and not built
    assert len(tracer) == record.spans == len(oracle.spans)
    assert case.name != "orbit-113b-6144n" or record.spans == 72_171
    assert columns(tracer) == columns(oracle) and tracer._rows == [] and not built
    assert repr(tracer.spans._rows) == repr(oracle.spans._rows) and built == {"rows": 1}
    assert list(tracer.spans) == list(oracle.spans) and built == {"rows": 1}
