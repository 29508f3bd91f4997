"""Run-health monitor: findings from clean and perturbed simulated runs.

Straggler injection uses the perturbed cost model
(:class:`repro.faults.degradation.SkewedCompute` via
a traced ``RunSpec(compute_skew=...)``).
"""

from dataclasses import replace

import pytest

from repro.obs import HealthThresholds, check_run, health_report, run_traced_spec
from repro.obs.health import Finding, FindingKind, check_memory_watermark
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
            findings = check_memory_watermark(cluster, HealthThresholds())
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
            findings = check_memory_watermark(cluster, HealthThresholds())
        finally:
            tracker.free(alloc)
            tracker.reset_peak()  # don't leak the watermark to other tests
        flagged = [finding for finding in findings if finding.ranks == (7,)]
        assert flagged and flagged[0].severity == "critical"

    def test_no_findings_below_threshold(self, clean_run):
        # The tiny trace model peaks far below 85% of a 64 GB GCD.
        findings = check_memory_watermark(clean_run.cluster, HealthThresholds())
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

    def test_finding_as_dict_round_trips(self):
        finding = Finding(category="straggler", severity="warning",
                          message="m", ranks=(3,), value=0.5, threshold=0.1)
        payload = finding.as_dict()
        assert payload["ranks"] == [3]
        assert payload["category"] == "straggler"


class TestMachineReadableShape:
    FINDING = Finding(category="straggler", severity="warning",
                      message="rank 3 is slow", ranks=(3, 7), value=0.5,
                      threshold=0.1)

    def test_kind_is_a_taxonomy_member(self):
        assert self.FINDING.kind is FindingKind.STRAGGLER
        assert self.FINDING.kind.value == "straggler"

    def test_unknown_category_maps_to_other(self):
        odd = Finding(category="novel_failure", severity="info", message="m")
        assert odd.kind is FindingKind.OTHER

    def test_magnitude_aliases_value(self):
        assert self.FINDING.magnitude == self.FINDING.value == 0.5

    def test_as_dict_carries_the_machine_readable_fields(self):
        payload = self.FINDING.as_dict()
        assert payload["kind"] == "straggler"
        assert payload["ranks"] == [3, 7]
        assert payload["magnitude"] == 0.5
        assert payload["threshold"] == 0.1

    def test_from_dict_round_trips(self):
        assert Finding.from_dict(self.FINDING.as_dict()) == self.FINDING

    def test_from_dict_ignores_derived_fields(self):
        payload = self.FINDING.as_dict()
        # kind/magnitude are derived: tampering with them cannot skew
        # the rebuilt finding.
        payload["kind"] = "goodput_decay"
        payload["magnitude"] = 99.0
        assert Finding.from_dict(payload) == self.FINDING

    def test_every_stock_category_is_in_the_taxonomy(self):
        from repro.obs.detect import default_rules

        for rule in default_rules():
            assert FindingKind(rule.detector) is not FindingKind.OTHER

    def test_round_trip_through_json(self):
        import json

        payload = json.loads(json.dumps(self.FINDING.as_dict()))
        assert Finding.from_dict(payload) == self.FINDING


class TestThresholds:
    def test_loose_thresholds_silence_stragglers(self, skewed_run):
        loose = HealthThresholds(straggler_frac=1e9, imbalance_frac=1e9,
                                 overlap_exposed_frac=1.1)
        findings = check_run(skewed_run.tracer, cluster=skewed_run.cluster,
                             plan=skewed_run.plan, thresholds=loose)
        assert findings == []

    def test_spans_only_input(self, skewed_run):
        """check_run accepts a bare span list (offline --trace mode)."""
        findings = check_run(list(skewed_run.tracer.spans))
        assert any(finding.category == "straggler" for finding in findings)
