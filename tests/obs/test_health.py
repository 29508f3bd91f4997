"""Run-health monitor: findings from clean and perturbed simulated runs.

Straggler injection uses the perturbed cost model
(:class:`repro.faults.degradation.SkewedCompute` via
a traced ``RunSpec(compute_skew=...)``).
"""

from dataclasses import replace

import pytest

from repro.obs import check_run, health, health_report, run_traced_spec
from repro.obs.health import check_memory_watermark
from tests.obs.test_invariants import TRACE_16


@pytest.fixture(scope="module")
def clean_run():
    return run_traced_spec(TRACE_16)


@pytest.fixture(scope="module")
def skewed_run():
    """Rank 5's compute slowed enough to dominate the tiny step.

    The trace-tiny model's per-rank compute is O(10 ns), so the factor
    must be enormous to overtake the comm-dominated busy times.
    """
    return run_traced_spec(replace(TRACE_16, compute_skew={5: 10_000_000.0}))


def _by_category(findings):
    grouped = {}
    for finding in findings:
        grouped.setdefault(finding.category, []).append(finding)
    return grouped


class TestStragglerInjection:
    def test_skewed_rank_flagged_as_straggler(self, skewed_run):
        findings = check_run(skewed_run.tracer, cluster=skewed_run.cluster,
                             plan=skewed_run.plan)
        stragglers = _by_category(findings).get("straggler", [])
        assert any(5 in finding.ranks for finding in stragglers)
        worst = max(stragglers, key=lambda f: f.value)
        assert worst.ranks == (5,)
        assert worst.severity == "critical"

    def test_clean_run_does_not_flag_the_injected_rank(self, clean_run):
        findings = check_run(clean_run.tracer, cluster=clean_run.cluster,
                             plan=clean_run.plan)
        stragglers = _by_category(findings).get("straggler", [])
        assert not any(5 in finding.ranks for finding in stragglers)

    def test_skew_creates_group_imbalance(self, skewed_run):
        """Rank 5's TP group sees a ~100%% compute spread."""
        findings = check_run(skewed_run.tracer, plan=skewed_run.plan)
        tp = _by_category(findings).get("tp_imbalance", [])
        assert any(5 in finding.ranks for finding in tp)


class TestMemoryWatermark:
    def test_high_watermark_flagged(self, clean_run):
        cluster = clean_run.cluster
        tracker = cluster.device(3).memory
        headroom = tracker.capacity_bytes - tracker.current_bytes
        alloc = tracker.allocate(int(headroom * 0.93), tag="test.balloon")
        try:
            findings = check_memory_watermark(cluster)
        finally:
            tracker.free(alloc)
            tracker.reset_peak()  # don't leak the watermark to other tests
        assert any(
            finding.ranks == (3,) and finding.severity == "warning"
            for finding in findings
        )

    def test_near_oom_is_critical(self, clean_run):
        cluster = clean_run.cluster
        tracker = cluster.device(7).memory
        headroom = tracker.capacity_bytes - tracker.current_bytes
        alloc = tracker.allocate(int(headroom * 0.99), tag="test.balloon")
        try:
            findings = check_memory_watermark(cluster)
        finally:
            tracker.free(alloc)
            tracker.reset_peak()  # don't leak the watermark to other tests
        flagged = [finding for finding in findings if finding.ranks == (7,)]
        assert flagged and flagged[0].severity == "critical"

    def test_no_findings_below_threshold(self, clean_run):
        # The tiny trace model peaks far below 85% of a 64 GB GCD.
        findings = check_memory_watermark(clean_run.cluster)
        assert findings == []


class TestMetricsAndReporting:
    def test_findings_emitted_through_metrics(self, skewed_run):
        findings = check_run(skewed_run.tracer, plan=skewed_run.plan)
        snapshot = skewed_run.tracer.metrics.as_dict()
        assert snapshot["gauges"]["health.findings"] >= len(findings) > 0
        assert snapshot["counters"]["health.findings.straggler"] >= 1

    def test_findings_sorted_most_severe_first(self, skewed_run):
        findings = check_run(skewed_run.tracer, plan=skewed_run.plan)
        order = {"critical": 0, "warning": 1, "info": 2}
        severities = [order[finding.severity] for finding in findings]
        assert severities == sorted(severities)

    def test_report_text(self, skewed_run):
        findings = check_run(skewed_run.tracer, plan=skewed_run.plan)
        text = health_report(findings)
        assert "straggler" in text
        assert health_report([]) == "health: OK (no findings)"


class TestThresholds:
    def test_loose_thresholds_silence_stragglers(self, skewed_run, monkeypatch):
        monkeypatch.setattr(health, "STRAGGLER_FRAC", 1e9)
        monkeypatch.setattr(health, "IMBALANCE_FRAC", 1e9)
        monkeypatch.setattr(health, "OVERLAP_EXPOSED_FRAC", 1.1)
        findings = check_run(skewed_run.tracer, cluster=skewed_run.cluster,
                             plan=skewed_run.plan)
        assert findings == []

    def test_spans_only_input(self, skewed_run):
        """check_run accepts a bare span list (offline --trace mode)."""
        findings = check_run(list(skewed_run.tracer.spans))
        assert any(finding.category == "straggler" for finding in findings)
