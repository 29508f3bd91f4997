"""``OFF``, the one disabled handle, against the live classes it stands in for.

The table below lists, per channel, each method call sites invoke on a
handle that may be off, with call-site arguments and the neutral value
``OFF`` returns.  Every entry must bind to the live class's signature
and to ``OFF``'s, return its neutral value, and leave ``OFF`` exactly as
it was — there is no instance state for a call to touch.  This is where
zero-cost-when-off is proven, once for all five channels (tracer,
metrics, monitor, the monitor's journal and the fault injector).
"""

import inspect

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.obs import (
    NULL_TRACER,
    OFF,
    Counter,
    EventJournal,
    Gauge,
    Histogram,
    MetricsRegistry,
    Off,
    RunMonitor,
    Tracer,
)

#: Neutral-value markers: ``OFF`` itself, and the seconds passed in.
SELF, SECONDS = object(), object()

#: What a live handle of each class looks like.
LIVE = {
    Tracer: Tracer,
    MetricsRegistry: MetricsRegistry,
    Counter: lambda: Counter("c"),
    Gauge: lambda: Gauge("g"),
    Histogram: lambda: Histogram("h"),
    RunMonitor: RunMonitor,
    EventJournal: EventJournal,
    FaultInjector: lambda: FaultInjector(FaultPlan([])),
}

#: (channel, live class, method, args, kwargs, neutral value)
METHODS = [
    # tracer: scopes, spans, the timeline hooks
    ("tracer", Tracer, "scope", ("step", 0), {"kind": "gather"}, SELF),
    ("tracer", Tracer, "set_context", ("step.0", "gather"), {}, None),
    ("tracer", Tracer, "set_context", (None,), {}, None),
    ("tracer", Tracer, "span", ("compute", "x", 0, 0.0, 1.0),
     {"flops": 2.0, "cid": 1}, None),
    ("tracer", Tracer, "instant", ("optimizer", "apply"), {"t0": 0.0}, None),
    ("tracer", Tracer, "on_compute", (0, 0.0, 1.0, 0.0, "x"), {}, None),
    ("tracer", Tracer, "on_compute", (0, 0.0, 1.0, 0.0, "x"),
     {"members": 4}, None),
    ("tracer", Tracer, "on_comm", (0, 0.0, 1.0, 0.0, 8.0, "all_reduce", (0,)),
     {"cid": 3, "members": 2}, None),
    ("tracer", Tracer, "mark_free", ([0], [0.0], "w", 8.0), {}, None),
    ("tracer", Tracer, "clear", (), {}, None),
    ("tracer", Tracer, "__len__", (), {}, 0),
    # metrics registry and its instruments
    ("metrics", MetricsRegistry, "counter", ("x",), {}, SELF),
    ("metrics", MetricsRegistry, "gauge", ("y",), {}, SELF),
    ("metrics", MetricsRegistry, "histogram", ("z",), {}, SELF),
    ("metrics", MetricsRegistry, "as_dict", (), {},
     {"counters": {}, "gauges": {}, "histograms": {}}),
    ("metrics", MetricsRegistry, "snapshot", (), {}, {}),
    ("metrics", MetricsRegistry, "reset", (), {}, None),
    ("metrics", MetricsRegistry, "__len__", (), {}, 0),
    ("metrics", Counter, "inc", (), {}, None),
    ("metrics", Counter, "inc", (3,), {}, None),
    ("metrics", Gauge, "set", (5.0,), {}, None),
    ("metrics", Gauge, "max", (5.0,), {}, None),
    ("metrics", Histogram, "observe", (1.0,), {}, None),
    # monitor: StepLoop hooks; its journal: the one write path
    ("monitor", RunMonitor, "attach_session", (None,), {}, None),
    ("monitor", RunMonitor, "on_step_start", (None, 0), {}, None),
    ("monitor", RunMonitor, "on_step_end", (None, None), {}, None),
    ("monitor", RunMonitor, "observe_gauges", (0, {"m": 1.0}), {}, None),
    ("journal", EventJournal, "append", (0, "fold"), {}, None),
    ("journal", EventJournal, "append", (0, "fold"),
     {"category": "exact", "message": "fault window"}, None),
    ("journal", EventJournal, "append", (0, "checkpoint"),
     {"category": "rollback", "severity": "warning", "message": "d"}, None),
    ("journal", EventJournal, "append", (0, "recovery"),
     {"category": "gpu_crash", "severity": "warning", "message": "m",
      "data": {"rank": 3}}, None),
    ("journal", EventJournal, "append", (0, "replan"),
     {"category": "decision", "severity": "info", "message": "m", "data": {}},
     None),
    ("journal", EventJournal, "append", (0, "run"),
     {"category": "start", "message": "run begins"}, None),
    # injector: the timeline hooks and the step hooks
    ("injector", FaultInjector, "before_compute", (0, 0.25, "gemm"), {},
     SECONDS),
    ("injector", FaultInjector, "before_comm", ((0, 1), 0.25, "all_reduce"),
     {}, SECONDS),
    ("injector", FaultInjector, "poison_gradients", (0, []), {}, None),
    ("injector", FaultInjector, "affects_step", (0,), {}, False),
]

#: (channel, live class, attribute, neutral value)
ATTRIBUTES = [
    ("tracer", Tracer, "enabled", False),
    ("tracer", Tracer, "spans", ()),
    ("tracer", Tracer, "current_scope", ""),
    ("tracer", Tracer, "current_comm_kind", "collective"),
    ("tracer", Tracer, "metrics", SELF),
    ("metrics", MetricsRegistry, "generation", 0),
    ("monitor", RunMonitor, "enabled", False),
    ("monitor", RunMonitor, "journal", SELF),
]


def _state() -> tuple:
    """Everything ``OFF`` could be told apart by."""
    return (dict(vars(Off)),
            [(name, getattr(OFF, name)) for _, _, name, _ in ATTRIBUTES],
            len(OFF))


def _neutral(expected, args):
    if expected is SELF:
        return OFF
    if expected is SECONDS:
        return args[1]
    return expected


class TestOffConformance:
    def test_one_handle_under_every_old_name(self):
        import repro.obs.off

        assert NULL_TRACER is OFF
        for dropped in ("NULL_METRICS", "NULL_MONITOR", "NULL_INJECTOR"):
            assert not hasattr(repro.obs, dropped), dropped
            assert not hasattr(repro.obs.off, dropped), dropped
        assert not hasattr(OFF, "__dict__")
        with pytest.raises(AttributeError):
            OFF.enabled = True

    @pytest.mark.parametrize(
        "channel, live_cls, name, args, kwargs, expected", METHODS,
        ids=[f"{c}.{n}-{i}" for i, (c, _, n, *_r) in enumerate(METHODS)])
    def test_method_binds_like_the_live_one_and_returns_neutral(
            self, channel, live_cls, name, args, kwargs, expected):
        live = LIVE[live_cls]()
        inspect.signature(getattr(live, name)).bind(*args, **kwargs)
        inspect.signature(getattr(OFF, name)).bind(*args, **kwargs)
        before = _state()
        result = getattr(OFF, name)(*args, **kwargs)
        neutral = _neutral(expected, args)
        if expected is SELF or expected is SECONDS:
            assert result is neutral
        else:
            assert result == neutral and type(result) is type(neutral)
        assert _state() == before

    @pytest.mark.parametrize(
        "channel, live_cls, name, expected", ATTRIBUTES,
        ids=[f"{c}.{n}" for c, _, n, _ in ATTRIBUTES])
    def test_attribute_exists_live_and_reads_neutral(
            self, channel, live_cls, name, expected):
        assert hasattr(LIVE[live_cls](), name)
        assert getattr(OFF, name) == _neutral(expected, ())
        if expected is SELF:
            assert getattr(OFF, name) is OFF

    def test_a_scope_is_a_context_manager_and_errors_pass_through(self):
        with pytest.raises(KeyError):
            with OFF.scope("step", 0):
                raise KeyError("x")

    def test_tracer_off_records_nothing(self):
        null = NULL_TRACER
        with null.scope("step", 0, kind="gather"):
            null.span("compute", "x", 0, 0.0, 1.0)
            null.instant("optimizer", "apply")
            null.on_compute(0, 0.0, 1.0, 0.0, "x")
            null.on_comm(0, 0.0, 1.0, 0.0, 8.0, "all_reduce", (0,))
            null.mark_free([0], [0.0], "w", 8.0)
        assert len(null.spans) == 0
        assert len(null) == 0
        assert null.current_scope == ""
        assert not null.enabled

    def test_metrics_off_are_inert(self):
        NULL_TRACER.metrics.counter("x").inc()
        NULL_TRACER.metrics.gauge("y").set(5.0)
        NULL_TRACER.metrics.histogram("z").observe(1.0)
        assert NULL_TRACER.metrics.as_dict() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_every_channel_off_records_nothing(self):
        with NULL_TRACER.scope("step", 0):
            NULL_TRACER.instant("optimizer", "apply", t0=0.0)
        OFF.counter("x").inc()
        OFF.gauge("y").set(1.0)
        assert len(NULL_TRACER.spans) == 0
        assert len(OFF) == 0 and OFF.snapshot() == {}

        OFF.on_step_start(None, 0)
        OFF.on_step_end(None, None)
        OFF.observe_gauges(0, {"m": 1.0})
        OFF.journal.append(0, "fold", category="exact")
        assert not OFF.enabled and len(OFF.journal) == 0
