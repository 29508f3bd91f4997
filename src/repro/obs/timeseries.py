"""Per-step metric timeseries: bounded buffers with streaming statistics.

The post-hoc observability stack (tracer, critical-path, health)
analyzes *one* step's trace after the fact and keeps no history; a
49,152-GCD run lives or dies on noticing degradation while it happens.
This module is the persistent substrate: a
:class:`TimeseriesStore` holds one :class:`Series` per metric, each a
bounded ring buffer of recent raw points plus streaming aggregates —
EWMA mean/variance (West's algorithm), exact Welford mean/variance,
and P² quantile estimates — so a multi-thousand-step run costs O(1)
memory per step no matter how long it gets.

Persistence is JSONL with rollup/downsampling: raw points beyond the
ring capacity survive as fixed-width rollup buckets (count/sum/min/
max), so the on-disk artifact stays small while preserving the shape
of the whole run.  Everything is pure float arithmetic on recorded
values — two identical seeded runs serialize byte-identical files,
which is what lets the journal and timeseries artifacts double as
determinism fixtures.
"""

from __future__ import annotations

import json
import math
from collections import deque
from pathlib import Path

from repro.utils.artifacts import (
    CANONICAL_JSON,
    ArtifactFormatError,
    read_jsonl,
    write_artifact,
)

#: Format version of the timeseries JSONL artifact.
TIMESERIES_SCHEMA = 1
#: Raw points each series keeps (the ring-buffer tail).
CAPACITY = 1024
#: Steps per rollup bucket.
ROLLUP_EVERY = 64
#: EWMA smoothing factor of every series' streaming statistics.
ALPHA = 0.25


class StreamingStats:
    """Exact (Welford) and exponentially-weighted mean/variance.

    The EWMA pair is what the drift detectors consult — it tracks the
    *recent* regime, so a slow degradation shows up as deviation from
    it; the Welford pair summarizes the whole series for reports.
    """

    __slots__ = ("count", "mean", "_m2", "ewma", "ewvar", "minimum",
                 "maximum", "last")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.ewma = 0.0
        self.ewvar = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.last = math.nan

    def update(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.last = value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if self.count == 1:
            self.ewma = value
            self.ewvar = 0.0
        else:
            diff = value - self.ewma
            incr = ALPHA * diff
            self.ewma += incr
            self.ewvar = (1.0 - ALPHA) * (self.ewvar + diff * incr)

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else math.nan

    @property
    def std(self) -> float:
        return math.sqrt(self.variance) if self.count else math.nan

    @property
    def ewstd(self) -> float:
        return math.sqrt(self.ewvar) if self.count else math.nan


class P2Quantile:
    """Jain & Chlamtac's P² streaming quantile estimator.

    Five markers, O(1) memory, no stored samples; exact for the first
    five observations and a parabolic-interpolation estimate after.
    Deterministic: the estimate depends only on the value sequence.
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_increments")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile {q} outside (0, 1)")
        self.q = q
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def update(self, value: float) -> None:
        value = float(value)
        heights = self._heights
        if len(heights) < 5:
            heights.append(value)
            heights.sort()
            return
        # Locate the cell and bump marker positions above it.
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        positions = self._positions
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Adjust the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            delta = self._desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    @property
    def value(self) -> float:
        """Current estimate (``nan`` before any observation)."""
        heights = self._heights
        if not heights:
            return math.nan
        if len(heights) < 5:
            # Exact nearest-rank on the few samples seen so far.
            rank = max(0, math.ceil(self.q * len(heights)) - 1)
            return sorted(heights)[rank]
        return heights[2]


class Series:
    """One metric's bounded history plus streaming aggregates.

    Raw ``(step, value)`` points live in a ring buffer of
    :data:`CAPACITY`; every point (kept or evicted) also lands in a
    fixed-width rollup bucket (``step // ROLLUP_EVERY``) carrying
    count/sum/min/max, so the serialized artifact covers the whole run
    at bounded size.
    """

    __slots__ = ("name", "stats", "p50", "p95", "raw", "rollups")

    def __init__(self, name: str):
        self.name = name
        self.stats = StreamingStats()
        self.p50 = P2Quantile(0.50)
        self.p95 = P2Quantile(0.95)
        self.raw: deque[tuple[int, float]] = deque(maxlen=CAPACITY)
        #: bucket index -> [count, sum, min, max]
        self.rollups: dict[int, list[float]] = {}

    def append(self, step: int, value: float) -> None:
        step, value = int(step), float(value)
        self.stats.update(value)
        self.p50.update(value)
        self.p95.update(value)
        self.raw.append((step, value))
        bucket = self.rollups.setdefault(
            step // ROLLUP_EVERY, [0, 0.0, math.inf, -math.inf]
        )
        bucket[0] += 1
        bucket[1] += value
        bucket[2] = min(bucket[2], value)
        bucket[3] = max(bucket[3], value)

    @property
    def count(self) -> int:
        return self.stats.count

    @property
    def last(self) -> float:
        return self.stats.last

    def summary(self) -> dict:
        """JSON-able aggregate view (the end-of-run report row)."""
        s = self.stats
        return {
            "name": self.name,
            "count": s.count,
            "last": s.last,
            "mean": s.mean,
            "std": s.std,
            "ewma": s.ewma,
            "ewstd": s.ewstd,
            "min": s.minimum if s.count else math.nan,
            "max": s.maximum if s.count else math.nan,
            "p50": self.p50.value,
            "p95": self.p95.value,
        }


class TimeseriesStore:
    """Named :class:`Series`, created on first record.

    The store is the monitor's memory: ``record(step, {...})`` feeds a
    whole step's metrics at once, detectors read the per-series
    streaming stats, and :meth:`to_jsonl` serializes the bounded
    artifact (header, per-series summaries, rollup buckets, raw tail).
    """

    def __init__(self):
        self._series: dict[str, Series] = {}

    def series(self, name: str) -> Series:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = Series(name)
        return series

    def record(self, step: int, values: dict[str, float]) -> None:
        """Append one step's samples, one per named series."""
        for name in sorted(values):
            self.series(name).append(step, values[name])

    def names(self) -> list[str]:
        return sorted(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def __len__(self) -> int:
        return len(self._series)

    def summaries(self) -> list[dict]:
        return [self._series[name].summary() for name in self.names()]

    # -- persistence ---------------------------------------------------------
    def to_jsonl(self) -> str:
        """The canonical JSONL artifact (byte-deterministic)."""
        lines = [json.dumps(
            {"kind": "header", "schema": TIMESERIES_SCHEMA,
             "capacity": CAPACITY, "rollup_every": ROLLUP_EVERY},
            **CANONICAL_JSON,
        )]
        for name in self.names():
            series = self._series[name]
            lines.append(json.dumps(
                {"kind": "series", **series.summary()}, **CANONICAL_JSON
            ))
            for bucket in sorted(series.rollups):
                count, total, low, high = series.rollups[bucket]
                lines.append(json.dumps(
                    {"kind": "rollup", "name": name, "bucket": bucket,
                     "count": count, "sum": total, "min": low, "max": high},
                    **CANONICAL_JSON,
                ))
            for step, value in series.raw:
                lines.append(json.dumps(
                    {"kind": "point", "name": name, "step": step,
                     "value": value},
                    **CANONICAL_JSON,
                ))
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path) -> Path:
        return write_artifact(path, self.to_jsonl())


def load_timeseries(path) -> dict:
    """Parse a :meth:`TimeseriesStore.write_jsonl` artifact.

    Returns ``{"schema", "capacity", "rollup_every", "series"}`` where
    ``series`` maps names to ``{"summary", "rollups", "points"}`` — the
    read side of the round-trip tests and offline analysis.
    """
    header, entries = read_jsonl(path, "timeseries", "header",
                                 TIMESERIES_SCHEMA)
    try:
        geometry = {"capacity": header["capacity"],
                    "rollup_every": header["rollup_every"]}
    except KeyError as exc:
        raise ArtifactFormatError(f"{path}: line 1: no {exc.args[0]!r}") from None
    series: dict[str, dict] = {}
    for number, entry in entries:
        where = f"{path}: line {number}"
        try:
            kind = entry.pop("kind")
            if kind == "series":
                series[entry["name"]] = {
                    "summary": entry, "rollups": [], "points": []
                }
                continue
            if kind not in ("rollup", "point"):
                raise ArtifactFormatError(
                    f"{where}: unknown timeseries line kind {kind!r}")
            target = series.get(entry.pop("name"))
            if target is None:
                raise ArtifactFormatError(
                    f"{where}: {kind} line before its series line")
            if kind == "rollup":
                target["rollups"].append(entry)
            else:
                target["points"].append((entry["step"], entry["value"]))
        except KeyError as exc:  # a field the line's kind requires
            raise ArtifactFormatError(f"{where}: no {exc.args[0]!r}") from None
    return {
        "schema": header["schema"],
        **geometry,
        "series": series,
    }
