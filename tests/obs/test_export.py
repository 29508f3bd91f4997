"""Exporter structure: Chrome trace JSON, step report, raw dict."""

import json

import pytest

from repro.cluster import Timeline, VirtualCluster, all_reduce
from repro.obs import (
    Tracer,
    load_trace_events,
    step_report,
    to_chrome_trace,
    to_dict,
    write_chrome_trace,
    write_trace_events,
)
from repro.obs import analysis
from repro.utils.artifacts import ArtifactFormatError

import numpy as np


@pytest.fixture
def traced_timeline():
    tracer = Tracer()
    tl = Timeline(2, tracer=tracer)
    tl.record_compute(0, 0.4, flops=10.0, op="attn")
    tl.record_compute(1, 0.2, op="mlp")
    tl.record_comm([0, 1], 0.3, nbytes=1024.0, overlappable=True, op="all_gather")
    tracer.instant("optimizer", "apply", t0=1.0, step=0)
    return tracer, tl


class TestChromeTrace:
    def test_structure(self, traced_timeline):
        tracer, _ = traced_timeline
        doc = to_chrome_trace(tracer)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        assert [m["pid"] for m in metas] == [0, 1]
        assert metas[0]["args"]["name"] == "rank 0"
        # 5 spans (comm emits one per rank) + 2 process_name records.
        assert len(events) == 7

    def test_complete_events_have_duration_us(self, traced_timeline):
        tracer, _ = traced_timeline
        events = to_chrome_trace(tracer)["traceEvents"]
        compute = next(e for e in events if e.get("cat") == "compute")
        assert compute["ph"] == "X"
        assert compute["dur"] == pytest.approx(0.4e6)
        assert compute["ts"] == pytest.approx(0.0)
        assert compute["tid"] == "compute"

    def test_comm_event_lane_and_args(self, traced_timeline):
        tracer, _ = traced_timeline
        events = to_chrome_trace(tracer)["traceEvents"]
        comm = [e for e in events if e.get("cat") == "collective"]
        assert {e["tid"] for e in comm} == {"comm"}
        rank0 = next(e for e in comm if e["pid"] == 0)
        assert rank0["args"]["nbytes"] == 1024.0
        assert rank0["args"]["group"] == [0, 1]
        # rank 0 had 0.4 s of compute slack: the 0.3 s gather fully hides.
        assert rank0["args"]["disposition"] == "hidden"

    def test_instant_event(self, traced_timeline):
        tracer, _ = traced_timeline
        events = to_chrome_trace(tracer)["traceEvents"]
        instant = next(e for e in events if e.get("cat") == "optimizer")
        assert instant["ph"] == "i"
        assert instant["s"] == "t"
        assert "dur" not in instant
        assert instant["args"]["step"] == 0

    def test_write_round_trips_as_json(self, traced_timeline, tmp_path):
        tracer, _ = traced_timeline
        path = write_chrome_trace(tracer, tmp_path / "sub" / "trace.json")
        assert path.exists()
        loaded = json.loads(path.read_text())
        assert loaded == to_chrome_trace(tracer)


class TestDictExport:
    def test_spans_and_metrics(self, traced_timeline):
        tracer, _ = traced_timeline
        doc = to_dict(tracer)
        assert len(doc["spans"]) == 5
        assert doc["metrics"]["counters"]["spans.compute"] == 2.0
        json.dumps(doc)  # must be serializable


class TestTraceEventsFile:
    def test_round_trip_is_the_same_table(self, traced_timeline, tmp_path):
        tracer, _ = traced_timeline
        loaded = load_trace_events(
            write_trace_events(tracer, tmp_path / "events.json"))
        assert loaded == tracer.spans
        assert [s.to_dict() for s in loaded] == to_dict(tracer)["spans"]

    ENTRY = {"kind": "compute", "name": "mlp", "rank": 0, "t0": 0.0, "dur": 1.0}

    @pytest.mark.parametrize("text,reason", [
        ('{"spans": [{"kind": "comp', "not valid JSON"),
        ("", "not valid JSON"),
        pytest.param("[]", "expected a JSON object, found list",
                     id="[]-no 'spans' list"),
        ('{"metrics": {}}', "no 'spans' list"),
        ('{"spans": {"kind": "compute"}}', "no 'spans' list"),
        ('{"spans": [3]}', "spans[0] is not an object"),
    ])
    def test_unusable_document_is_named(self, tmp_path, text, reason):
        path = tmp_path / "events.json"
        path.write_text(text)
        with pytest.raises(ArtifactFormatError) as exc:
            load_trace_events(path)
        assert str(path) in str(exc.value) and reason in str(exc.value)

    @pytest.mark.parametrize("change,reason", [
        ({"dur": None}, "spans[1] has no 'dur'"),
        ({"kind": None}, "spans[1] has no 'kind'"),
        ({"kind": "bogus"}, "spans[1]: unknown span kind 'bogus'"),
        ({"dur": -1e-9}, "spans[1]: 'dur' must be >= 0, got -1e-09"),
        ({"dur": float("nan")}, "spans[1]: 'dur' must be >= 0, got nan"),
        ({"rank": 1.5}, "spans[1]: 'rank' cannot be 1.5"),
        ({"t0": "soon"}, "spans[1]: 't0' cannot be 'soon'"),
        ({"hidden_s": True}, "spans[1]: 'hidden_s' cannot be True"),
        ({"group": 3}, "spans[1]: 'group' cannot be 3"),
        ({"attrs": {"cid": "x"}}, "spans[1]: attrs['cid'] cannot be 'x'"),
    ])
    def test_unusable_entry_is_named(self, tmp_path, change, reason):
        """``None`` in ``change`` drops the field."""
        entry = {k: v for k, v in {**self.ENTRY, **change}.items()
                 if v is not None}
        path = tmp_path / "events.json"
        path.write_text(json.dumps({"spans": [self.ENTRY, entry]}))
        with pytest.raises(ArtifactFormatError) as exc:
            load_trace_events(path)
        assert str(exc.value).startswith(f"trace {path}: {reason}")

    def test_format_error_is_a_value_error(self):
        assert issubclass(ArtifactFormatError, ValueError)

    def test_missing_file_stays_an_os_error(self, tmp_path):
        """The reader's error names the path; the OS error is its cause."""
        path = tmp_path / "absent.json"
        with pytest.raises(ArtifactFormatError) as exc:
            load_trace_events(path)
        assert isinstance(exc.value.__cause__, FileNotFoundError)
        assert str(exc.value) == (
            f"trace {path}: cannot be read (No such file or directory)")


class TestStepReport:
    def test_contains_rank_rows_and_totals(self, traced_timeline):
        tracer, tl = traced_timeline
        text = step_report(tracer)
        assert "Per-rank time breakdown" in text
        assert "walltime (max busy rank)" in text
        assert f"{tl.walltime_s():.6f}" in text
        assert "exposed-comm ratio" in text
        assert "all_gather" in text

    def test_memory_column_with_cluster(self):
        tracer = Tracer()
        cluster = VirtualCluster(num_gpus=2, tracer=tracer)
        bufs = [np.ones(8, dtype=np.float32) for _ in range(2)]
        all_reduce(cluster.world, bufs)
        text = step_report(tracer, cluster=cluster)
        assert "peak_mem" in text
        assert "MiB" in text

    def test_empty_trace(self):
        text = step_report(Tracer())
        assert "spans recorded:           0" in text


class TestAnalysis:
    def test_top_operations_grouping(self, traced_timeline):
        tracer, _ = traced_timeline
        ops = analysis.top_operations(tracer.spans)
        names = {(o["kind"], o["name"]) for o in ops}
        assert ("collective", "all_gather") in names
        gather = next(o for o in ops if o["name"] == "all_gather")
        assert gather["count"] == 2  # one span per rank

    def test_top_operations_key_validation(self):
        with pytest.raises(ValueError):
            analysis.top_operations([], key="bogus")

    def test_exposed_ratio_zero_for_empty(self):
        assert analysis.exposed_comm_ratio([]) == 0.0


class TestPrometheus:
    """Gauges in the plain-text step report."""

    def test_step_report_includes_gauges_table(self, traced_timeline):
        tracer, _ = traced_timeline
        tracer.metrics.gauge("goodput.fraction").set(0.97)
        text = step_report(tracer)
        assert "Gauges" in text
        assert "goodput.fraction" in text
