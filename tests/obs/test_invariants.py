"""Trace <-> ledger invariants on a full 2-node / 16-GCD traced step.

The acceptance bar for the observability subsystem: for every rank the
span sums must equal the Timeline ledgers *exactly* (bitwise ``==``,
not approximately) because both sides accumulate the same floats in
the same order, and a disabled tracer must record nothing while
leaving the simulation byte-identical.
"""

import json
from dataclasses import replace

import pytest

from repro.models import OrbitConfig
from repro.obs import rank_attribution, run_traced_spec, to_chrome_trace
from repro.obs.capture import TRACE_CONFIG_KWARGS
from repro.obs.tracer import SPAN_KINDS
from repro.runtime import RunSpec

TRACE_TINY = OrbitConfig("trace-tiny", **TRACE_CONFIG_KWARGS)
#: The default ``repro trace`` step: 2 nodes, 16 GCDs, tp 4 x fsdp 2 x ddp 2.
TRACE_16 = RunSpec(config=TRACE_TINY, num_gpus=16, tp_size=4, fsdp_size=2,
                   ddp_size=2, micro_batch=2, meta=False)
#: One 4-GCD node, tp 2 x fsdp 2.
TRACE_4 = RunSpec(config=TRACE_TINY, num_gpus=4, gpus_per_node=4, tp_size=2,
                  fsdp_size=2, meta=False)


@pytest.fixture(scope="module", params=["off", "on"])
def run(request):
    """One traced step on the default 2-node, 16-GCD layout.

    Parameterized over the symmetry-folding policy: traced steps are
    numeric, so ``fold="on"`` silently stays in exact mode — every
    invariant must hold identically under both settings.
    """
    return run_traced_spec(replace(TRACE_16, fold=request.param))


@pytest.fixture(scope="module")
def table(run):
    return rank_attribution(run.tracer)


class TestLedgerEquality:
    def test_compute_sums_match_exactly(self, run, table):
        for rank in range(run.cluster.world_size):
            assert table[rank].compute_s == run.cluster.timeline.ledger(rank).compute_s

    def test_exposed_comm_sums_match_exactly(self, run, table):
        for rank in range(run.cluster.world_size):
            ledger = run.cluster.timeline.ledger(rank)
            assert table[rank].exposed_comm_s == ledger.exposed_comm_s

    def test_total_comm_sums_match_exactly(self, run, table):
        for rank in range(run.cluster.world_size):
            assert table[rank].comm_s == run.cluster.timeline.ledger(rank).comm_s

    def test_busy_sums_equal_ledger_walltime(self, run, table):
        """sum(span durations on rank r) == ledger(r).walltime_s."""
        for rank in range(run.cluster.world_size):
            ledger = run.cluster.timeline.ledger(rank)
            attr = table[rank]
            assert attr.compute_s + attr.exposed_comm_s == ledger.walltime_s

    def test_walltime_is_max_busy_rank(self, run, table):
        assert run.walltime_s == max(attr.busy_s for attr in table.values())
        assert run.walltime_s == run.cluster.timeline.walltime_s()


class TestSpanWellFormedness:
    def test_every_span_kind_is_known(self, run):
        assert {s.kind for s in run.tracer.spans} <= SPAN_KINDS

    def test_hidden_never_exceeds_duration(self, run):
        for span in run.tracer.spans:
            assert 0.0 <= span.hidden_s <= span.dur
            assert span.busy_s >= 0.0

    def test_all_ranks_traced(self, run):
        ranks = {s.rank for s in run.tracer.spans if s.kind == "compute"}
        assert ranks == set(range(16))

    def test_gather_spans_reclassified(self, run):
        """FSDP shard gathers are kind 'gather', not bare collectives."""
        gathers = [s for s in run.tracer.spans if s.kind == "gather"]
        assert gathers
        assert all(s.name == "all_gather" for s in gathers if s.dur > 0)

    def test_scopes_capture_step_phases(self, run):
        scopes = {s.scope for s in run.tracer.spans}
        assert any(scope.startswith("step.0/engine.forward") for scope in scopes)
        assert any(scope.startswith("step.0/engine.backward") for scope in scopes)
        assert any("engine.grad_sync" in scope for scope in scopes)

    def test_optimizer_marker_recorded(self, run):
        markers = [s for s in run.tracer.spans if s.kind == "optimizer"]
        assert len(markers) == 1
        assert markers[0].name == "apply"


class TestChromeExportValidity:
    def test_trace_json_is_valid_and_consistent(self, run, tmp_path):
        doc = to_chrome_trace(run.tracer)
        # Round-trip through the serializer chrome://tracing would read.
        loaded = json.loads(json.dumps(doc))
        events = [e for e in loaded["traceEvents"] if e["ph"] in ("X", "i")]
        assert len(events) == len(run.tracer.spans)
        for event in events:
            assert event["ts"] >= 0.0
            if event["ph"] == "X":
                assert event["dur"] > 0.0

    def test_per_rank_span_sums_match_ledgers_via_export(self, run):
        """Chrome-trace durations reproduce the ledgers (in microseconds)."""
        doc = to_chrome_trace(run.tracer)
        busy_us: dict[int, float] = {}
        for event in doc["traceEvents"]:
            if event.get("ph") == "X":
                busy_us[event["pid"]] = busy_us.get(event["pid"], 0.0) + \
                    event["args"]["exposed_s"] * 1e6
        for rank in range(run.cluster.world_size):
            ledger = run.cluster.timeline.ledger(rank)
            assert busy_us[rank] == pytest.approx(ledger.walltime_s * 1e6, rel=1e-12)


class TestMetrics:
    def test_step_metrics_populated(self, run):
        snap = run.tracer.metrics.as_dict()
        assert snap["counters"]["optimizer.steps"] == 1.0
        assert snap["histograms"]["step.walltime_s"]["count"] == 1
        assert snap["histograms"]["train.loss"]["count"] == 1
        assert snap["gauges"]["step.loss"] == run.loss
        for rank in range(16):
            assert snap["gauges"][f"memory.peak_bytes.rank{rank}"] > 0.0
        assert 0.0 <= snap["gauges"]["step.exposed_comm_ratio"] <= 1.0

    def test_span_counters_match_span_list(self, run):
        snap = run.tracer.metrics.as_dict()["counters"]
        for kind in ("compute", "collective", "gather"):
            recorded = sum(1 for s in run.tracer.spans if s.kind == kind)
            assert snap[f"spans.{kind}"] == recorded


class TestDisabledTracer:
    def test_untraced_run_records_nothing_and_matches(self, run):
        """Default (null) tracer: zero events, byte-identical simulation."""
        from repro.cluster import VirtualCluster
        from repro.data.loader import Batch
        from repro.models import build_model
        from repro.parallel import HybridParallelPlan, HybridSTOPEngine
        from repro.parallel.compute import PeakFractionCompute
        from repro.train.distributed import DistributedTrainer

        import numpy as np

        cluster = VirtualCluster(num_gpus=16, gpus_per_node=8)  # no tracer
        plan = HybridParallelPlan(cluster, tp_size=4, fsdp_size=2, ddp_size=2)
        config = TRACE_TINY
        model = build_model(config, rng=0)
        engine = HybridSTOPEngine(model, plan, prefetch=True, layer_wrapping=True,
                                  compute_model=PeakFractionCompute(cluster))
        trainer = DistributedTrainer(engine, np.ones((config.img_height, 1)))
        rng = np.random.default_rng(0)
        batch = Batch(
            x=rng.normal(size=(8, 3, 8, 8)).astype(np.float32),
            y=rng.normal(size=(8, 2, 8, 8)).astype(np.float32),
            lead_time_hours=np.full((8,), 24.0, dtype=np.float32),
        )
        loss = trainer.train_step(batch)

        assert len(cluster.tracer.spans) == 0
        assert cluster.tracer.metrics.as_dict() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }
        # The simulation itself is unaffected by tracing.
        assert loss == run.loss
        for rank in range(16):
            a = cluster.timeline.ledger(rank)
            b = run.cluster.timeline.ledger(rank)
            assert (a.compute_s, a.comm_s, a.exposed_comm_s) == \
                (b.compute_s, b.comm_s, b.exposed_comm_s)


class TestDeterminism:
    def test_identical_seeds_identical_traces(self, run):
        other = run_traced_spec(TRACE_16)
        assert len(other.tracer.spans) == len(run.tracer.spans)
        assert [s.to_dict() for s in other.tracer.spans] == \
            [s.to_dict() for s in run.tracer.spans]
