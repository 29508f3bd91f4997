"""Detector semantics: thresholds, z-score drift, sustain, escalation."""

import pytest

from repro.obs import AlertRule, DetectorBank, TimeseriesStore, default_rules


def drive(bank, store, samples, metric="m"):
    """Feed scalar samples through the observe-then-record protocol."""
    alerts = []
    for step, value in enumerate(samples):
        values = {metric: value}
        alerts.extend((step, f) for f in bank.observe(step, values, store))
        store.record(step, values)
    return alerts


class TestAlertRule:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            AlertRule(metric="m", detector="d", kind="spline")
        with pytest.raises(ValueError, match="direction"):
            AlertRule(metric="m", detector="d", direction="sideways")
        with pytest.raises(ValueError, match="sustain"):
            AlertRule(metric="m", detector="d", sustain=0)
        with pytest.raises(ValueError, match="positive threshold"):
            AlertRule(metric="m", detector="d", kind="zscore", threshold=0.0)

    def test_as_dict_round_trips_through_rules_from_dicts(self):
        # ``repro monitor --json`` lists the rules through ``as_dict``.
        for rule in default_rules():
            assert AlertRule(**rule.as_dict()) == rule

    def test_duplicate_rules_rejected(self):
        rule = AlertRule(metric="m", detector="d")
        with pytest.raises(ValueError, match="duplicate"):
            DetectorBank((rule, rule))


class TestThresholdRules:
    def test_fires_after_sustain_and_escalates(self):
        rule = AlertRule(metric="m", detector="hot", threshold=1.0,
                         sustain=2, escalate=2.0)
        bank, store = DetectorBank((rule,)), TimeseriesStore()
        alerts = drive(bank, store, [0.5, 2.0, 2.0, 2.0, 2.0, 0.5])
        severities = [(step, f.severity) for step, f in alerts]
        # Warning at the 2nd violating step, one critical at the 4th.
        assert severities == [(2, "warning"), (4, "critical")]

    def test_streak_resets_when_violation_ends(self):
        rule = AlertRule(metric="m", detector="hot", threshold=1.0, sustain=2)
        bank, store = DetectorBank((rule,)), TimeseriesStore()
        alerts = drive(bank, store, [2.0, 0.5, 2.0, 0.5, 2.0, 0.5])
        # Never two consecutive violations, so nothing ever fires.
        assert alerts == []

    def test_below_direction(self):
        rule = AlertRule(metric="m", detector="low", threshold=0.9,
                         direction="below", sustain=1)
        bank, store = DetectorBank((rule,)), TimeseriesStore()
        alerts = drive(bank, store, [1.0, 0.95, 0.5])
        assert [step for step, _ in alerts] == [2]

    def test_escalate_zero_disables_critical(self):
        rule = AlertRule(metric="m", detector="hot", threshold=1.0,
                         sustain=1, escalate=0.0)
        bank, store = DetectorBank((rule,)), TimeseriesStore()
        alerts = drive(bank, store, [2.0] * 10)
        assert [(step, f.severity) for step, f in alerts] == [(0, "warning")]


class TestZScoreRules:
    RULE = AlertRule(metric="m", detector="drift", kind="zscore",
                     threshold=4.0, sustain=2, warmup=8)

    def test_silent_during_warmup_and_on_steady_series(self):
        bank, store = DetectorBank((self.RULE,)), TimeseriesStore()
        alerts = drive(bank, store, [1.0] * 30)
        assert alerts == []

    def test_steady_series_then_jump_is_infinite_sigma(self):
        # Bitwise-steady regime, then a level shift: ewstd is exactly 0
        # at the jump, so any deviation is an infinite-z event.  Only
        # the first shifted point is infinite — the EWMA adapts and the
        # next z is sqrt((1-alpha)/alpha) regardless of jump size — so
        # level shifts are a sustain=1 phenomenon by construction.
        rule = AlertRule(metric="m", detector="drift", kind="zscore",
                         threshold=4.0, sustain=1, warmup=8)
        bank, store = DetectorBank((rule,)), TimeseriesStore()
        alerts = drive(bank, store, [1.0] * 10 + [1.5] * 4)
        assert [step for step, _ in alerts] == [10]

    def test_noisy_regime_tolerates_in_band_variation(self):
        bank, store = DetectorBank((self.RULE,)), TimeseriesStore()
        wobble = [1.0 + 0.1 * (-1) ** i for i in range(40)]
        assert drive(bank, store, wobble) == []

    def test_deterministic_given_the_sample_sequence(self):
        samples = [1.0] * 12 + [3.0] * 5 + [1.0] * 3

        def run():
            bank, store = DetectorBank((self.RULE,)), TimeseriesStore()
            return [(s, f.severity, f.message)
                    for s, f in drive(bank, store, samples)]

        assert run() == run()


class TestDefaultRules:
    def test_covers_the_six_stock_detectors(self):
        detectors = {r.detector for r in default_rules()}
        assert detectors == {
            "step_time_drift", "exposed_comm_regression", "straggler",
            "memory_watermark_creep", "goodput_decay", "degraded_goodput",
        }

    def test_unmentioned_metric_is_ignored(self):
        bank, store = DetectorBank(), TimeseriesStore()
        # Samples that never include a watched metric produce nothing.
        assert bank.observe(0, {"unwatched": 1e9}, store) == []
