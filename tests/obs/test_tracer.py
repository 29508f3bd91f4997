"""Tracer semantics: spans, scopes, kinds, the span table's view, and
the untraced default (the disabled handle itself is held to the live
classes in ``tests/obs/test_off.py``)."""

import json
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import DEFAULT_MATRIX
from repro.cluster import Timeline, VirtualCluster, all_gather, all_reduce
from repro.obs import (
    NULL_TRACER,
    SPAN_KINDS,
    MetricsRegistry,
    Span,
    SpanColumns,
    SpanView,
    Tracer,
    analyze_trace,
    critical_path,
)
from repro.obs.analysis import exposed_comm_ratio
from repro.obs.tracer import KIND_NAMES, SpanBlock
from repro.runtime import RunSpec, Session

import numpy as np


class TestSpan:
    def test_busy_is_exposed_part(self):
        span = Span("collective", "all_gather", 0, t0=1.0, dur=0.5, hidden_s=0.2)
        assert span.busy_s == pytest.approx(0.3)
        assert span.exposed_s == span.busy_s
        assert span.t1 == pytest.approx(1.3)

    @pytest.mark.parametrize(
        "dur,hidden,expected",
        [(0.5, 0.0, "exposed"), (0.5, 0.5, "hidden"), (0.5, 0.2, "partial")],
    )
    def test_disposition(self, dur, hidden, expected):
        span = Span("collective", "x", 0, 0.0, dur, hidden_s=hidden)
        assert span.disposition == expected

    def test_to_dict_round_trips_fields(self):
        span = Span("gather", "all_gather", 3, 0.0, 0.1, nbytes=64.0,
                    group=(0, 3), scope="gather.w", attrs={"unit": 1})
        d = span.to_dict()
        assert d["kind"] == "gather" and d["rank"] == 3
        assert d["group"] == [0, 3]
        assert d["attrs"] == {"unit": 1}
        assert d["exposed_s"] == pytest.approx(0.1)


class TestTracer:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Tracer().span("nonsense", "x", 0, 0.0, 1.0)

    def test_span_counts_per_kind(self):
        tracer = Tracer()
        tracer.span("compute", "mlp", 0, 0.0, 1.0)
        tracer.instant("optimizer", "apply")
        assert tracer.metrics.counter("spans.compute").value == 1
        assert tracer.metrics.counter("spans.optimizer").value == 1
        assert len(tracer) == 2

    def test_counts_survive_a_mid_run_registry_reset(self):
        """The tracer holds its counters between emits; after a
        ``reset()`` the registry reads what a lookup per emit gives:
        the emits since, on fresh instruments, and no counter for a
        kind not emitted since."""
        def emit(tracer):
            tracer.on_compute(0, 0.0, 1.0, 2.0, "mlp")
            tracer.on_comm(0, 0.0, 0.1, 0.0, 8.0, "all_reduce", (0, 1))
            with tracer.scope("gather", "w", kind="gather"):
                tracer.on_comm(1, 0.0, 0.1, 0.0, 8.0, "all_gather", (0, 1))
            tracer.mark_free((0, 1), (0.2, 0.2), "w", 8.0)

        tracer = Tracer()
        emit(tracer)
        tracer.instant("optimizer", "apply")
        before = tracer.metrics.snapshot()
        assert before == {"spans.compute": 1.0, "spans.collective": 1.0,
                          "spans.gather": 3.0, "spans.optimizer": 1.0}
        stale = tracer.metrics.counter("spans.compute")
        tracer.metrics.reset()
        assert tracer.metrics.snapshot() == {}
        emit(tracer)
        emit(tracer)
        assert tracer.metrics.snapshot() == {
            "spans.compute": 2.0, "spans.collective": 2.0, "spans.gather": 6.0}
        assert stale.value == 1.0  # the dropped instrument is not fed
        assert len(tracer) == 16

    def test_scope_labels_spans(self):
        tracer = Tracer()
        with tracer.scope("step", 3):
            with tracer.scope("forward"):
                tracer.span("compute", "mlp", 0, 0.0, 1.0)
        tracer.span("compute", "tail", 0, 1.0, 1.0)
        assert tracer.spans[0].scope == "step.3/forward"
        assert tracer.spans[1].scope == ""

    def test_scope_kind_override_reclassifies_comm(self):
        tracer = Tracer()
        with tracer.scope("gather", "w", kind="gather"):
            tracer.on_comm(0, 0.0, 0.1, 0.0, 8.0, "all_gather", (0, 1))
        tracer.on_comm(0, 0.1, 0.1, 0.0, 8.0, "all_reduce", (0, 1))
        assert tracer.spans[0].kind == "gather"
        assert tracer.spans[1].kind == "collective"

    def test_clear(self):
        tracer = Tracer()
        tracer.span("compute", "x", 0, 0.0, 1.0)
        tracer.clear()
        assert len(tracer) == 0

    def test_determinism_identical_runs_identical_spans(self):
        def run():
            tracer = Tracer()
            cluster = VirtualCluster(num_gpus=4, tracer=tracer)
            group = cluster.world
            rng = np.random.default_rng(7)
            bufs = [rng.normal(size=16).astype(np.float32) for _ in range(4)]
            all_reduce(group, bufs)
            cluster.timeline.record_compute(1, 0.25, flops=5.0, op="mlp")
            all_gather(group, bufs, overlappable=True)
            return tracer

        a, b = run(), run()
        assert [s.to_dict() for s in a.spans] == [s.to_dict() for s in b.spans]


class TestTimelineIntegration:
    def test_compute_span_starts_at_prior_walltime(self):
        tracer = Tracer()
        tl = Timeline(2, tracer=tracer)
        tl.record_compute(0, 1.0, flops=3.0, op="attn")
        tl.record_compute(0, 0.5, op="mlp")
        first, second = tracer.spans
        assert (first.t0, first.dur, first.flops) == (0.0, 1.0, 3.0)
        assert second.t0 == pytest.approx(1.0)
        assert second.name == "mlp"

    def test_comm_span_carries_hidden_split(self):
        tracer = Tracer()
        tl = Timeline(1, tracer=tracer)
        tl.record_compute(0, 0.3)
        tl.record_comm([0], seconds=0.5, nbytes=8, overlappable=True, op="all_gather")
        span = tracer.spans[-1]
        assert span.kind == "collective"
        assert span.dur == pytest.approx(0.5)
        assert span.hidden_s == pytest.approx(0.3)
        assert span.busy_s == pytest.approx(0.2)
        assert span.group == (0,)

    def test_one_span_per_participating_rank(self):
        tracer = Tracer()
        tl = Timeline(4, tracer=tracer)
        tl.record_comm([0, 2, 3], 0.1, 64, op="all_reduce")
        assert sorted(s.rank for s in tracer.spans) == [0, 2, 3]


class TestNullTracer:
    def test_default_timeline_uses_null_tracer(self):
        tl = Timeline(2)
        assert tl.tracer is NULL_TRACER
        tl.record_compute(0, 1.0)
        tl.record_comm([0, 1], 0.5, 8)
        assert len(tl.tracer.spans) == 0

    def test_all_kinds_are_known(self):
        assert SPAN_KINDS == {
            "compute", "collective", "gather", "optimizer", "checkpoint", "io",
            "serve",
        }


class EagerRecorder:
    """The recorder the span table replaced: one :class:`Span` object,
    with its ``attrs`` dict, built and kept per event.  The reference
    ``Tracer.spans`` must be indistinguishable from."""

    def __init__(self):
        self.spans = []
        self.metrics = MetricsRegistry()
        self._scope_parts, self._kind_override = [], []
        self._context = None

    @contextmanager
    def scope(self, *parts, kind=None):
        self._scope_parts.append(".".join(str(p) for p in parts))
        if kind is not None:
            self._kind_override.append(kind)
        try:
            yield self
        finally:
            self._scope_parts.pop()
            if kind is not None:
                self._kind_override.pop()

    def set_context(self, scope, kind=None):
        self._context = None if scope is None else (scope, kind)

    @property
    def current_scope(self):
        if self._context is not None:
            return self._context[0]
        return "/".join(self._scope_parts)

    @property
    def current_comm_kind(self):
        if self._context is not None:
            return self._context[1]
        return self._kind_override[-1] if self._kind_override else "collective"

    def span(self, kind, name, rank, t0, dur, *, hidden_s=0.0, nbytes=0.0,
             flops=0.0, group=None, **attrs):
        self.spans.append(Span(kind, name, rank, t0, dur, hidden_s, nbytes,
                               flops, group, self.current_scope, attrs))
        self.metrics.counter(f"spans.{kind}").inc()

    def instant(self, kind, name, rank=0, t0=0.0, **attrs):
        self.span(kind, name, rank, t0, 0.0, **attrs)

    def on_compute(self, rank, t0, seconds, flops, op, members=None):
        attrs = {} if members is None else {"members": members}
        self.span("compute", op, rank, t0, seconds, flops=flops, **attrs)

    def on_comm(self, rank, t0, seconds, hidden_s, nbytes, op, group,
                cid=None, members=None):
        attrs = {} if cid is None else {"cid": cid}
        if members is not None:
            attrs["members"] = members
        self.span(self.current_comm_kind, op, rank, t0, seconds,
                  hidden_s=hidden_s, nbytes=nbytes, group=group, **attrs)

    def mark_free(self, ranks, clocks, name, nbytes):
        for rank, clock in zip(ranks, clocks):
            self.span("gather", f"free.{name}", rank, clock, 0.0, nbytes=nbytes)


_KINDS = st.sampled_from(sorted(SPAN_KINDS))
_COMM_KINDS = st.sampled_from(["collective", "gather"])
_NAMES = st.sampled_from(["attn", "mlp", "all_gather", "block1.w", "save"])
_RANKS = st.integers(min_value=0, max_value=5)
_SECONDS = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
_MAYBE_INT = st.none() | st.integers(min_value=0, max_value=9)
_EXTRAS = st.dictionaries(st.sampled_from(["size", "steps", "arrays", "tag"]),
                          st.integers(0, 9) | st.text(max_size=3), max_size=3)
_GROUPS = st.lists(_RANKS, min_size=1, max_size=3, unique=True).map(tuple)

def _call(method, args=st.just(()), kwargs=st.just({})):
    return st.tuples(st.just(method), args, kwargs)


#: One recorder call each: ``(method name, args, kwargs)``.
_CALLS = st.one_of(
    _call("span", st.tuples(_KINDS, _NAMES, _RANKS, _SECONDS, _SECONDS),
          st.builds(
              lambda fields, extras: {**fields, **extras},
              st.fixed_dictionaries({}, optional={
                  "hidden_s": _SECONDS, "nbytes": _SECONDS, "flops": _SECONDS,
                  "group": _GROUPS, "cid": st.integers(0, 9)}),
              _EXTRAS)),
    _call("instant", st.tuples(_KINDS, _NAMES), _EXTRAS),
    _call("on_compute", st.tuples(_RANKS, _SECONDS, _SECONDS, _SECONDS,
                                  _NAMES, _MAYBE_INT)),
    _call("on_comm", st.tuples(_RANKS, _SECONDS, _SECONDS, _SECONDS, _SECONDS,
                               _NAMES, _GROUPS, _MAYBE_INT, _MAYBE_INT)),
    _call("mark_free", st.lists(st.tuples(_RANKS, _SECONDS), max_size=3).flatmap(
        lambda marks: st.tuples(st.just([rank for rank, _ in marks]),
                                st.just([clock for _, clock in marks]),
                                _NAMES, _SECONDS))),
    _call("set_context",
          st.tuples(st.none() | st.sampled_from(["step.1/replayed", "x"]),
                    _COMM_KINDS)),
    _call("push", st.tuples(st.sampled_from(["step", "engine.forward", "gather"]),
                            st.integers(0, 3)),
          st.fixed_dictionaries({}, optional={"kind": _COMM_KINDS})),
    _call("pop"),
)


class TestSpanView:
    @given(calls=st.lists(_CALLS, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_view_equals_what_an_eager_recorder_builds(self, calls):
        tracer, eager = Tracer(), EagerRecorder()
        for recorder in (tracer, eager):
            open_scopes = []
            for method, args, kwargs in calls:
                if method == "push":
                    open_scopes.append(recorder.scope(*args, **kwargs))
                    open_scopes[-1].__enter__()
                elif method != "pop":
                    getattr(recorder, method)(*args, **kwargs)
                elif open_scopes:
                    open_scopes.pop().__exit__(None, None, None)
            while open_scopes:
                open_scopes.pop().__exit__(None, None, None)
        view, want = tracer.spans, eager.spans

        assert len(view) == len(tracer) == len(want)
        assert view == want and not view != want
        # a table filled from Span objects is the same table
        assert view == SpanView.of(want) and list(view) == want
        # same bytes out: attrs keep the order cid, members, extras
        assert json.dumps([s.to_dict() for s in view]) \
            == json.dumps([s.to_dict() for s in want])
        assert tracer.metrics.snapshot() == eager.metrics.snapshot()
        for index in range(-len(want), len(want)):
            assert view[index] == want[index]
        assert view[1:] == want[1:] and view[::-2] == want[::-2]
        assert list(reversed(view)) == want[::-1]
        if want:
            assert view != want[:-1] and view != want + want[:1]
            assert view != [replace(want[0], name="other")] + want[1:]
            assert want[0] in view and view.count(want[0]) == want.count(want[0])
        with pytest.raises(IndexError):
            view[len(want)]

    def test_columns_hold_each_spans_own_fields(self):
        """Entry i of each ``SpanColumns`` column is span i's own field
        (NaN without a ``cid``, 1 without ``members``)."""
        assert len(SpanColumns([])) == 0
        spans = list(_stepped(1).tracer.spans)
        columns = SpanColumns.of(spans)
        assert len(columns) == len(spans) > 0
        want = {
            "kind": [KIND_NAMES.index(s.kind) for s in spans],
            "busy_s": [s.busy_s for s in spans],
            "group_len": [-1 if s.group is None else len(s.group)
                          for s in spans],
            "cid": [s.attrs.get("cid", np.nan) for s in spans],
            "members": [s.attrs.get("members", 1) for s in spans],
        }
        for name in ("name", "rank", "t0", "dur", "hidden_s", "nbytes",
                     "flops", "scope"):
            want[name] = [getattr(s, name) for s in spans]
        assert set(want) == set(SpanColumns.__slots__)
        assert not np.isnan(columns.cid).all()
        for name, values in want.items():
            got = getattr(columns, name)
            assert np.array_equal(got, np.array(values, dtype=got.dtype),
                                  equal_nan=got.dtype.kind == "f"), name

    def test_view_has_no_mutators_and_follows_the_tracer(self):
        tracer = Tracer()
        view = tracer.spans
        assert not hasattr(view, "append") and not hasattr(view, "clear")
        with pytest.raises(TypeError):
            view[0] = None
        tracer.span("compute", "x", 0, 0.0, 1.0)
        assert len(view) == 1 and view[0].name == "x"
        tracer.clear()
        assert len(view) == 0 and view == []

    def test_view_builds_a_span_and_forgets_it(self):
        tracer = Tracer()
        tracer.span("serve", "batch.0", 1, 0.0, 1.0, size=3)
        first = tracer.spans[0]
        assert first == tracer.spans[0] and first is not tracer.spans[0]
        first.attrs["size"] = 99  # a caller's copy, not the table
        assert tracer.spans[0].attrs == {"size": 3}


def _stepped(num_steps):
    """A traced 16-GCD ``orbit-115m-2n`` session after ``num_steps``."""
    session = Session(RunSpec.from_case(DEFAULT_MATRIX[0]))
    for step in range(num_steps):
        session.meta_step(step)
    return session


class TestWorkDone:
    """Counts of the work the table saves: exact, so they can be pinned."""

    @pytest.mark.parametrize("num_steps", [1, 3])
    def test_recording_and_analysing_build_no_span(self, monkeypatch, num_steps):
        """Before the table: one ``Span`` per event, 11,206 a step."""
        built = []
        init = Span.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Span, "__init__", counting)
        session = _stepped(num_steps)
        analyze_trace(session.tracer)
        exposed_comm_ratio(session.tracer.spans)
        assert len(session.tracer.spans) == 11_206 * num_steps
        assert len(built) == 0
        session.tracer.spans[0]
        assert len(built) == 1

    @pytest.mark.parametrize("num_steps,cuts", [(1, 1), (3, 4)])
    def test_a_lone_step_is_analysed_once(self, monkeypatch, num_steps, cuts):
        """``run`` and ``step.0`` of a one-step trace are the same rows:
        one reduction, relabelled.  Three steps: the run and each step."""
        calls = []
        analyze_cut = critical_path._analyze_cut

        def counting(label, cols):
            calls.append(label)
            return analyze_cut(label, cols)

        monkeypatch.setattr(critical_path, "_analyze_cut", counting)
        analysis = analyze_trace(_stepped(num_steps).tracer)
        assert len(calls) == cuts
        assert [cut.label for cut in analysis.steps] \
            == [f"step.{n}" for n in range(num_steps)]
        if num_steps == 1:
            assert replace(analysis.steps[0], label="run") == analysis.overall


def test_bulk_rows_are_the_hooks_rows():
    """A block's rows spell its Timeline hooks' rows: one row of distinct
    values per hook is the same tuple through the hook and through a
    block, and moves the same counters."""
    tracer, scope = Tracer(metrics=MetricsRegistry()), "step.1/forward"
    tracer.set_context(scope, "gather")
    tracer.on_compute(3, 1.5, 2.5, 7.0, "fc1", members=4)
    tracer.on_comm(5, 0.5, 0.75, 0.25, 64.0, "all_gather", (5, 6), cid=9,
                   members=2)
    tracer.mark_free((6,), [4.5], "weight", 32.0)
    blocked = Tracer(metrics=MetricsRegistry())
    blocked.append_block(SpanBlock(SpanColumns(tracer._rows), bytes([0, 1, 2]), lambda: (
        ([2.5], [7.0], [4]),
        (["gather"], [0.75], [0.25], [64.0], [(5, 6)], [9], [2]),
        ([32.0],),
    )), (("compute", 1), ("gather", 2)))
    assert blocked._rows == [] and len(blocked) == 3
    assert blocked.spans._rows == tracer._rows
    assert blocked.metrics.snapshot() == tracer.metrics.snapshot()
