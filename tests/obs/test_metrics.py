"""MetricsRegistry instrument semantics."""

import math

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.metrics import nearest_rank


class TestCounter:
    def test_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("x").inc(-1.0)


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("x")
        g.set(3.0)
        g.set(1.0)
        assert g.value == 1.0

    def test_max_keeps_high_water(self):
        g = Gauge("x")
        g.max(2.0)
        g.max(1.0)
        g.max(5.0)
        assert g.value == 5.0


class TestHistogram:
    def test_stats(self):
        h = Histogram("x")
        for v in (3.0, 1.0, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(6.0)
        assert h.mean == pytest.approx(2.0)
        assert h.min == 1.0 and h.max == 3.0
        assert h.percentile(50) == 2.0
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 3.0

    def test_empty_stats_are_nan(self):
        h = Histogram("x")
        assert math.isnan(h.mean)
        assert math.isnan(h.percentile(50))
        assert h.count == 0 and h.sum == 0.0

    def test_percentile_bounds(self):
        h = Histogram("x")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            h.percentile(-1)

    @pytest.mark.parametrize("q", [50, 95, 99])
    def test_nearest_rank_is_the_exact_integer_rank(self, q):
        # The float ceil(q / 100 * n) never rounds across an integer for
        # the quantiles the histograms and the serve reports ask for.
        for n in range(1, 2001):
            assert nearest_rank(range(n), q) == -(-q * n // 100) - 1

    def test_summary_keys(self):
        h = Histogram("x")
        h.observe(1.0)
        assert set(h.summary()) == {"count", "sum", "mean", "min", "max", "p50", "p95"}


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("a")

    def test_as_dict_partitions_by_type(self):
        reg = MetricsRegistry()
        reg.counter("steps").inc(2)
        reg.gauge("mem").set(7.0)
        reg.histogram("loss").observe(0.5)
        snap = reg.as_dict()
        assert snap["counters"] == {"steps": 2.0}
        assert snap["gauges"] == {"mem": 7.0}
        assert snap["histograms"]["loss"]["count"] == 1

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a")
        assert list(reg.names()) == ["a", "b"]

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert len(reg) == 0
        assert reg.counter("a").value == 0.0


class TestSnapshot:
    def test_flat_sorted_view(self):
        reg = MetricsRegistry()
        reg.gauge("b.gauge").set(2.0)
        reg.counter("a.counter").inc(3)
        reg.histogram("c.hist").observe(1.0)
        snap = reg.snapshot()
        assert list(snap) == ["a.counter", "b.gauge", "c.hist"]
        assert snap["a.counter"] == 3.0
        assert snap["b.gauge"] == 2.0
        assert snap["c.hist"]["count"] == 1

    def test_snapshot_shares_no_state(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        snap = reg.snapshot()
        reg.counter("a").inc(9)
        assert snap["a"] == 1.0

    def test_null_registry_snapshot_is_empty(self):
        from repro.obs import OFF

        assert OFF.snapshot() == {}
