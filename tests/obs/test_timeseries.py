"""Timeseries substrate: streaming stats, P² quantiles, JSONL round-trip."""

import math
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import P2Quantile, Series, StreamingStats, TimeseriesStore
from repro.obs.timeseries import (
    ALPHA,
    CAPACITY,
    ROLLUP_EVERY,
    TIMESERIES_SCHEMA,
    load_timeseries,
)

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


class TestStreamingStats:
    def test_welford_matches_statistics_module(self):
        values = [3.0, 1.5, 4.25, -2.0, 0.5, 9.0]
        s = StreamingStats()
        for v in values:
            s.update(v)
        assert s.count == len(values)
        assert s.mean == pytest.approx(statistics.fmean(values))
        assert s.variance == pytest.approx(statistics.pvariance(values))
        assert s.minimum == min(values) and s.maximum == max(values)
        assert s.last == values[-1]

    def test_constant_series_has_zero_spread(self):
        s = StreamingStats()
        for _ in range(50):
            s.update(1.25)
        assert s.ewma == 1.25
        assert s.ewstd == 0.0
        assert s.std == 0.0

    def test_ewma_tracks_recent_regime(self):
        s = StreamingStats()
        for _ in range(20):
            s.update(1.0)
        for _ in range(20):
            s.update(10.0)
        # The EW mean has (nearly) converged to the new regime; the
        # exact mean still remembers the old one.
        assert s.ewma == pytest.approx(10.0 - 9.0 * (1.0 - ALPHA) ** 20)
        assert s.ewma > 9.9
        assert s.mean == pytest.approx(5.5)

    @given(st.lists(finite, min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_welford_agrees_with_batch_formulas(self, values):
        s = StreamingStats()
        for v in values:
            s.update(v)
        assert s.mean == pytest.approx(statistics.fmean(values), rel=1e-9, abs=1e-9)
        assert s.variance >= -1e-12


class TestP2Quantile:
    def test_exact_under_five_samples(self):
        q = P2Quantile(0.5)
        assert math.isnan(q.value)
        q.update(5.0)
        assert q.value == 5.0
        q.update(1.0)
        q.update(3.0)
        assert q.value == 3.0  # exact median of {1, 3, 5}

    def test_median_estimate_on_uniform_ramp(self):
        q = P2Quantile(0.5)
        for i in range(1, 201):
            q.update(float(i))
        assert q.value == pytest.approx(100.0, rel=0.1)

    def test_p95_estimate_on_uniform_ramp(self):
        q = P2Quantile(0.95)
        for i in range(1, 201):
            q.update(float(i))
        assert q.value == pytest.approx(190.0, rel=0.1)

    def test_quantile_validated(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)

    @given(st.lists(finite, min_size=5, max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_estimate_stays_within_observed_range(self, values):
        q = P2Quantile(0.5)
        for v in values:
            q.update(v)
        assert min(values) - 1e-9 <= q.value <= max(values) + 1e-9


class TestSeries:
    def test_ring_buffer_bounds_raw_points(self):
        series = Series("m")
        for step in range(CAPACITY + 6):
            series.append(step, float(step))
        assert len(series.raw) == CAPACITY
        assert [p[0] for p in series.raw] == list(range(6, CAPACITY + 6))
        # Every point still landed in a rollup bucket.
        assert sum(b[0] for b in series.rollups.values()) == CAPACITY + 6

    def test_rollup_buckets_carry_count_sum_min_max(self):
        series = Series("m")
        values = [2.0, 4.0, 1.0, 3.0] * (ROLLUP_EVERY // 4) + [10.0]
        for step, value in enumerate(values):
            series.append(step, value)
        assert series.rollups[0] == [ROLLUP_EVERY, 2.5 * ROLLUP_EVERY, 1.0, 4.0]
        assert series.rollups[1] == [1, 10.0, 10.0, 10.0]

    def test_summary_is_json_able(self):
        import json

        series = Series("m")
        series.append(0, 1.0)
        json.dumps(series.summary())


class TestTimeseriesStore:
    def test_record_creates_series_on_first_use(self):
        store = TimeseriesStore()
        store.record(0, {"b": 2.0, "a": 1.0})
        assert store.names() == ["a", "b"]
        assert "a" in store and "missing" not in store
        assert len(store) == 2

    def test_jsonl_round_trip(self, tmp_path):
        store = TimeseriesStore()
        steps = CAPACITY + 2
        for step in range(steps):
            store.record(step, {"x": float(step), "y": -float(step)})
        path = store.write_jsonl(tmp_path / "ts.jsonl")
        doc = load_timeseries(path)
        assert doc["schema"] == TIMESERIES_SCHEMA
        assert doc["capacity"] == CAPACITY
        assert doc["rollup_every"] == ROLLUP_EVERY
        assert sorted(doc["series"]) == ["x", "y"]
        x = doc["series"]["x"]
        assert x["summary"]["count"] == steps
        assert x["points"] == [(s, float(s)) for s in range(2, steps)]
        assert sum(r["count"] for r in x["rollups"]) == steps

    def test_serialization_is_byte_deterministic(self):
        def build():
            store = TimeseriesStore()
            for step in range(20):
                store.record(step, {"x": 0.125 * step, "y": 3.0})
            return store.to_jsonl()

        assert build() == build()

    def test_load_rejects_missing_header_and_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind":"point","name":"x","step":0,"value":1}\n')
        with pytest.raises(ValueError, match="no header"):
            load_timeseries(bad)
        worse = tmp_path / "worse.jsonl"
        worse.write_text('{"kind":"header","schema":99}\n')
        with pytest.raises(ValueError, match="schema"):
            load_timeseries(worse)


def _tear(lines):
    lines[-1] = lines[-1][:len(lines[-1]) // 2]
    return len(lines)


def _not_an_object(lines):
    lines[2] = "[1]"
    return 3


def _point_before_its_series(lines):
    point = next(i for i, line in enumerate(lines) if '"kind":"point"' in line)
    lines.insert(1, lines.pop(point))
    return 2


def _no_kind(lines):
    lines[1] = lines[1].replace('"kind":"series",', "")
    return 2


def _header_without_geometry(lines):
    lines[0] = '{"kind":"header","schema":1}'
    return 1


@pytest.mark.parametrize("damage, problem", [
    (_tear, "not valid JSON"),
    (_not_an_object, "expected a JSON object, found list"),
    (_point_before_its_series, "point line before its series line"),
    (_no_kind, "no 'kind'"),
    (_header_without_geometry, "no 'capacity'"),
], ids=["torn-last-line", "not-an-object", "point-before-series", "no-kind",
        "header-without-geometry"])
def test_a_damaged_timeseries_names_the_path_the_line_and_the_problem(
        tmp_path, damage, problem):
    store = TimeseriesStore()
    for step in range(10):
        store.record(step, {"x": float(step)})
    path = tmp_path / "ts.jsonl"
    lines = store.to_jsonl().splitlines()
    number = damage(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        load_timeseries(path)
    assert str(info.value).startswith(f"{path}: line {number}: {problem}")
