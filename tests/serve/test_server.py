"""End-to-end serving invariants: the issue's acceptance contract.

1. Every served forecast is **bitwise-equal** to a direct
   ``RolloutForecaster.forecast`` call — batching, caching, and
   scaling are invisible in the payload.
2. Identical seeded workloads produce **byte-identical** journals and
   artifacts — the serving stack is a deterministic simulation.
"""

import numpy as np
import pytest

from repro.obs.journal import EventJournal
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.serve import (
    ForecastRequest,
    ForecastServer,
    LoadSpec,
    RequestError,
    ServePolicy,
    STATUS_REJECTED,
    generate_requests,
)

HOT_LOAD = LoadSpec(rate_rps=60.0, duration_s=1.5, seed=3, num_windows=24,
                    num_hot=3, hot_fraction=0.85)


@pytest.fixture()
def requests():
    return generate_requests(HOT_LOAD)


def direct(forecaster, dataset, request):
    full = forecaster.forecast(dataset, request.init_index, request.lead_steps)
    names = list(dataset.out_names)
    return full[[names.index(v) for v in request.out_vars]]


class TestPayloadParity:
    def test_every_response_bitwise_equals_direct_forecast(
        self, forecaster, dataset, requests
    ):
        report = ForecastServer(forecaster, dataset).serve(requests)
        assert report.completed
        for response in report.completed:
            np.testing.assert_array_equal(
                response.result, direct(forecaster, dataset, response.request)
            )

    def test_cache_disabled_serves_identical_payloads(
        self, forecaster, dataset, requests
    ):
        """Eviction/caching policy must never change bytes: capacity 0
        and capacity 32 serve the same arrays."""
        cached = ForecastServer(
            forecaster, dataset, ServePolicy(cache_entries=32)
        ).serve(requests)
        uncached = ForecastServer(
            forecaster, dataset, ServePolicy(cache_entries=0)
        ).serve(requests)
        assert len(cached.responses) == len(uncached.responses)
        for a, b in zip(cached.completed, uncached.completed):
            assert a.request.request_id == b.request.request_id
            np.testing.assert_array_equal(a.result, b.result)
        # Same bytes, very different cost.
        assert cached.stats()["model_steps"] < uncached.stats()["model_steps"]


class TestReplayDeterminism:
    def _run(self, forecaster, dataset):
        journal = EventJournal()
        server = ForecastServer(
            forecaster, dataset,
            tracer=Tracer(), journal=journal, metrics=MetricsRegistry(),
        )
        report = server.serve(generate_requests(HOT_LOAD))
        return report, journal

    def test_identical_seeded_replays_byte_identical(self, forecaster, dataset):
        report_a, journal_a = self._run(forecaster, dataset)
        report_b, journal_b = self._run(forecaster, dataset)
        assert journal_a.to_jsonl() == journal_b.to_jsonl()
        assert report_a.histogram_json() == report_b.histogram_json()
        assert report_a.stats() == report_b.stats()
        assert [d.as_dict() for d in report_a.decisions] == \
               [d.as_dict() for d in report_b.decisions]

    def test_journal_records_serve_lifecycle(self, forecaster, dataset):
        _, journal = self._run(forecaster, dataset)
        categories = [e.category for e in journal.events if e.kind == "serve"]
        assert categories[0] == "start"
        assert categories[-1] == "end"


class TestAdmissionControl:
    def test_tiny_queue_rejects_overload(self, forecaster, dataset):
        policy = ServePolicy(queue_limit=2, max_batch=2, batch_window_s=0.05)
        burst = LoadSpec(rate_rps=500.0, duration_s=0.3, seed=1,
                         num_windows=8, num_hot=2, hot_fraction=0.5)
        report = ForecastServer(forecaster, dataset, policy).serve(
            generate_requests(burst)
        )
        assert report.rejected
        assert all(r.status == STATUS_REJECTED and r.result is None
                   for r in report.rejected)
        stats = report.stats()
        assert stats["offered"] == stats["completed"] + stats["rejected"]

    def test_rejections_are_journaled(self, forecaster, dataset):
        journal = EventJournal()
        policy = ServePolicy(queue_limit=1, max_batch=1, batch_window_s=0.05)
        burst = LoadSpec(rate_rps=500.0, duration_s=0.2, seed=1,
                         num_windows=8, num_hot=2, hot_fraction=0.5)
        ForecastServer(forecaster, dataset, policy, journal=journal).serve(
            generate_requests(burst)
        )
        rejects = [e for e in journal.events if e.category == "reject"]
        assert rejects
        assert all(e.severity == "warning" for e in rejects)


class TestOneSlotSurge:
    """A surge against one replica serving one request at a time: the
    queue fills, admission control sheds most of the load, and what is
    served is still the direct rollout, bit for bit."""

    POLICY = ServePolicy(max_batch=1, min_replicas=1, max_replicas=1,
                         queue_limit=4)
    SURGE = LoadSpec(rate_rps=2000.0, duration_s=0.25, seed=0,
                     num_windows=48, num_hot=4, hot_fraction=0.0)

    def _run(self, forecaster, dataset):
        journal = EventJournal()
        server = ForecastServer(forecaster, dataset, self.POLICY,
                                tracer=Tracer(), journal=journal,
                                metrics=MetricsRegistry())
        return server.serve(generate_requests(self.SURGE)), journal

    def test_sheds_load_and_serves_exact_forecasts(self, forecaster, dataset):
        report, journal = self._run(forecaster, dataset)
        stats = report.stats()
        offered = len(generate_requests(self.SURGE))
        assert stats["completed"] + stats["rejected"] == stats["offered"] == offered
        assert stats["rejected"] > 0
        # The slot keeps draining the queue: far more than one queue's
        # worth of requests completes.
        assert stats["completed"] > self.POLICY.queue_limit
        assert stats["replicas_peak"] == 1
        assert report.completed
        for response in report.completed:
            np.testing.assert_array_equal(
                response.result, direct(forecaster, dataset, response.request)
            )
        _, replay = self._run(forecaster, dataset)
        assert journal.to_jsonl() == replay.to_jsonl()


class TestReportShape:
    def test_hot_workload_hit_ratio_above_half(self, forecaster, dataset,
                                               requests):
        stats = ForecastServer(forecaster, dataset).serve(requests).stats()
        assert stats["cache_hit_ratio"] > 0.5

    def test_stats_keys_and_ordering(self, forecaster, dataset, requests):
        report = ForecastServer(forecaster, dataset).serve(requests)
        stats = report.stats()
        for key in ("offered", "completed", "rejected", "throughput_rps",
                    "latency_p50_s", "latency_p99_s", "cache_hit_ratio",
                    "replicas_peak", "utilization", "makespan_s"):
            assert key in stats
        assert stats["latency_p50_s"] <= stats["latency_p99_s"]
        assert [r.request.request_id for r in report.responses] == \
               sorted(r.request.request_id for r in report.responses)

    def test_latency_histogram_counts_every_completion(self, forecaster,
                                                       dataset, requests):
        report = ForecastServer(forecaster, dataset).serve(requests)
        histogram = report.latency_histogram()
        assert sum(histogram["counts"]) == len(report.completed)
        assert len(histogram["bins"]) == len(histogram["counts"]) + 1

    def test_serve_spans_and_metrics_emitted(self, forecaster, dataset,
                                             requests):
        tracer = Tracer()
        metrics = MetricsRegistry()
        ForecastServer(forecaster, dataset, tracer=tracer,
                       metrics=metrics).serve(requests)
        spans = [s for s in tracer.spans if s.kind == "serve"]
        assert spans
        assert metrics.counter("serve.requests").value == len(requests)
        assert metrics.counter("serve.cache_hits").value > 0

    def test_stacking_ratio_is_readable_from_a_run(self, forecaster, dataset,
                                                   requests):
        """Self-metrics: how many forwards the model steps cost, and how
        wide each one was — in the registry and ``cache.stats()``, not
        in the bench-facing ``ServeReport.stats()``."""
        metrics = MetricsRegistry()
        report = ForecastServer(forecaster, dataset,
                                metrics=metrics).serve(requests)
        forwards = metrics.counter("serve.forward_calls").value
        widths = metrics.histogram("serve.stack_width")
        assert forwards == widths.count == report.cache_stats["forward_calls"]
        assert widths.sum == report.cache_stats["steps_computed"]
        assert 0 < forwards < report.cache_stats["steps_computed"]
        assert widths.min >= 1
        assert widths.max <= metrics.histogram("serve.batch_size").max
        assert "forward_calls" not in report.stats()


class TestQueueDepth:
    def test_running_count_is_the_walked_sum(self, forecaster, dataset):
        """``queue_depth`` keeps a count of the requests in ready
        batches; at every arrival it must equal a walk over them."""
        policy = ServePolicy(max_batch=2, batch_window_s=0.001,
                             max_replicas=1, queue_limit=64)
        burst = LoadSpec(rate_rps=2000.0, duration_s=0.1, seed=2,
                         num_windows=16, num_hot=2, hot_fraction=0.2)
        server = ForecastServer(forecaster, dataset, policy)
        arrive, ready_batches = server._arrive, []

        def checked_arrive(request):
            assert server.queue_depth == server.batcher.waiting + sum(
                batch.size for batch in server._ready)
            ready_batches.append(len(server._ready))
            arrive(request)

        server._arrive = checked_arrive
        report = server.serve(generate_requests(burst))
        assert max(ready_batches) > 4  # batches did pile up behind the replica
        assert server.queue_depth == 0
        assert len(report.responses) == len(ready_batches)


class TestDuplicateRequestIds:
    def test_rejected_before_anything_is_scheduled_journaled_or_counted(
        self, forecaster, dataset
    ):
        out_vars = (dataset.out_names[0],)
        server = ForecastServer(forecaster, dataset, metrics=MetricsRegistry())
        cache_before = server.cache.stats()
        with pytest.raises(RequestError, match="request 7: duplicate request_id"):
            server.serve([ForecastRequest(7, 3, 2, out_vars, 0.0),
                          ForecastRequest(7, 5, 4, out_vars, 0.1)])
        assert server.cache.stats() == cache_before
        assert len(server.journal) == 0
        assert server.metrics.snapshot() == {}
        assert server.loop.pending == 0 and server.loop.fired == 0
