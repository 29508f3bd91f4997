"""Counters, gauges, and histograms for the observability subsystem.

A :class:`MetricsRegistry` is a flat namespace of typed instruments.
Instruments are created on first access (``registry.counter("x")``)
so instrumented code never has to pre-declare what it measures, and a
name can only ever hold one instrument type (re-requesting it with a
different type is an error, not a silent shadow).

The disabled registry is :data:`~repro.obs.off.OFF`: its accessors hand
back ``OFF`` again, so disabled callers pay one attribute lookup and one
no-op call — no conditionals.
"""

from __future__ import annotations

import math
from typing import Iterable


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """A point-in-time value (e.g. memory high-water, exposed-comm ratio)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def max(self, value: float) -> None:
        """Keep the running maximum (high-water semantics)."""
        self.value = max(self.value, float(value))


def nearest_rank(ordered: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in [0, 100]) of the
    non-empty, ascending ``ordered``."""
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class Histogram:
    """A distribution of observed values (step times, span durations)."""

    __slots__ = ("name", "values")

    def __init__(self, name: str):
        self.name = name
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> float:
        return math.fsum(self.values)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.values else float("nan")

    @property
    def min(self) -> float:
        return min(self.values) if self.values else float("nan")

    @property
    def max(self) -> float:
        return max(self.values) if self.values else float("nan")

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, ``q`` in [0, 100]."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q} outside [0, 100]")
        if not self.values:
            return float("nan")
        return nearest_rank(sorted(self.values), q)

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
        }


class MetricsRegistry:
    """Get-or-create registry of named instruments."""

    def __init__(self):
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        #: Bumped by :meth:`reset`.  A caller on a hot path may hold the
        #: instruments it fetched for as long as this reads the same.
        self.generation = 0

    def _get(self, name: str, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = cls(name)
        elif type(instrument) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, requested {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self) -> Iterable[str]:
        return sorted(self._instruments)

    def as_dict(self) -> dict:
        """Machine-readable snapshot: ``{counters, gauges, histograms}``."""
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                out["counters"][name] = instrument.value
            elif isinstance(instrument, Gauge):
                out["gauges"][name] = instrument.value
            else:
                out["histograms"][name] = instrument.summary()
        return out

    def snapshot(self) -> dict:
        """Flat point-in-time view, sorted by name.

        Counters and gauges map to their scalar value; histograms to
        their :meth:`Histogram.summary` dict.  The result shares no
        state with the registry — mutate instruments afterwards and the
        snapshot stands still (the bench artifacts rely on that).
        """
        out: dict = {}
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                out[name] = instrument.summary()
            else:
                out[name] = instrument.value
        return out

    def reset(self) -> None:
        self._instruments.clear()
        self.generation += 1

    def __len__(self) -> int:
        return len(self._instruments)
