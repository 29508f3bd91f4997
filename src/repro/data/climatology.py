"""Climatology estimation (the reference for anomaly metrics).

wACC (paper Sec IV) correlates *anomalies with respect to the
climatology*.  This module estimates a dataset's climatology as
per-variable, per-grid-point means — either one annual mean per
variable (the default) or day-of-year bins (``num_bins > 1``), the
seasonal climatology WeatherBench-style evaluations use.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import ClimateDataset

DAYS_PER_YEAR = 365.25


class Climatology:
    """Per-channel mean fields, optionally resolved by season.

    ``mean_fields`` is ``(C, H, W)`` for an annual climatology or
    ``(num_bins, C, H, W)`` for a seasonal one.
    """

    def __init__(self, mean_fields: np.ndarray, names: list[str]):
        if mean_fields.ndim == 3:
            mean_fields = mean_fields[None]
        if mean_fields.ndim != 4 or mean_fields.shape[1] != len(names):
            raise ValueError("mean_fields must be (C, H, W) or (bins, C, H, W) matching names")
        self.binned_fields = mean_fields
        self.names = list(names)
        self._index = {n: i for i, n in enumerate(self.names)}

    @property
    def num_bins(self) -> int:
        return self.binned_fields.shape[0]

    @property
    def mean_fields(self) -> np.ndarray:
        """Annual-mean view ``(C, H, W)`` (bins averaged)."""
        return self.binned_fields.mean(axis=0)

    # -- construction -----------------------------------------------------------
    @classmethod
    def from_dataset(
        cls,
        dataset: ClimateDataset,
        num_samples: int = 64,
        use_targets: bool = True,
        num_bins: int = 1,
    ) -> "Climatology":
        """Estimate by averaging evenly spaced snapshots.

        ``use_targets`` computes the climatology of the dataset's
        output variables (what wACC needs); ``num_bins > 1`` resolves
        the seasonal cycle into day-of-year bins (empty bins fall back
        to the overall mean).
        """
        if num_samples < 1 or num_bins < 1:
            raise ValueError("num_samples and num_bins must be positive")
        indices = np.linspace(0, len(dataset) - 1, min(num_samples, len(dataset)), dtype=int)
        fetch = dataset.target if use_targets else dataset.snapshot
        names = dataset.out_names if use_targets else list(dataset.registry.names)
        totals = None
        counts = np.zeros(num_bins)
        for index in indices:
            snap = fetch(int(index)).astype(np.float64)
            if totals is None:
                totals = np.zeros((num_bins,) + snap.shape)
            bin_index = cls._bin_for(dataset, int(index), num_bins)
            totals[bin_index] += snap
            counts[bin_index] += 1
        overall = totals.sum(axis=0) / counts.sum()
        binned = np.empty_like(totals)
        for b in range(num_bins):
            binned[b] = totals[b] / counts[b] if counts[b] else overall
        return cls(binned, names)

    @staticmethod
    def _bin_for(dataset, index: int, num_bins: int) -> int:
        if num_bins == 1:
            return 0
        day = Climatology._day_of_year(dataset, index)
        return min(num_bins - 1, int(day / DAYS_PER_YEAR * num_bins))

    @staticmethod
    def _day_of_year(dataset, index: int) -> float:
        system = getattr(dataset, "system", None)
        day_fn = getattr(system, "day_of_year", None)
        if day_fn is None:
            return 0.0
        return float(day_fn(dataset.absolute_step(index)))

    # -- queries --------------------------------------------------------------------
    def fields_for(self, day_of_year: float | None = None) -> np.ndarray:
        """The ``(C, H, W)`` climatology for a date (annual mean if None)."""
        if day_of_year is None or self.num_bins == 1:
            return self.mean_fields
        b = min(self.num_bins - 1, int(day_of_year / DAYS_PER_YEAR * self.num_bins))
        return self.binned_fields[b]

    def field(self, name: str, day_of_year: float | None = None) -> np.ndarray:
        """Climatology map of one variable (optionally for a date)."""
        try:
            channel = self._index[name]
        except KeyError:
            raise KeyError(f"no climatology for variable {name!r}") from None
        return self.fields_for(day_of_year)[channel]
