"""Lead-time forecast evaluation over a test year (the Fig 9 harness)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.climatology import Climatology
from repro.data.dataset import ClimateDataset
from repro.eval.metrics import latitude_weighted_acc, latitude_weighted_rmse


@dataclass
class LeadTimeScores:
    """Per-variable wACC / wRMSE at one lead time."""

    lead_steps: int
    wacc: dict[str, float] = field(default_factory=dict)
    wrmse: dict[str, float] = field(default_factory=dict)

    @property
    def lead_days(self) -> float:
        return self.lead_steps / 4.0

    def mean_wacc(self) -> float:
        return float(np.mean(list(self.wacc.values())))


class ForecastEvaluator:
    """Evaluate forecasters over evenly spaced initializations.

    Mirrors the paper's protocol: predictions over the test year
    (2020), scored per variable with latitude-weighted ACC against the
    climatology (Sec IV / Fig 9).
    """

    def __init__(
        self,
        test_dataset: ClimateDataset,
        climatology: Climatology,
        num_initializations: int = 8,
    ):
        if num_initializations < 1:
            raise ValueError("need at least one initialization")
        self.dataset = test_dataset
        self.climatology = climatology
        self.num_initializations = num_initializations
        self.lat_weights = test_dataset.system.grid.latitude_weights()

    def _init_indices(self, lead_steps: int) -> np.ndarray:
        max_index = self.dataset.max_input_index(lead_steps)
        count = min(self.num_initializations, max_index + 1)
        return np.linspace(0, max_index, count, dtype=int)

    def _verification_day(self, index: int) -> float | None:
        """Day-of-year of the verification time (None when unavailable)."""
        if self.climatology.num_bins == 1:
            return None
        day_fn = getattr(self.dataset.system, "day_of_year", None)
        if day_fn is None:
            return None
        return float(day_fn(self.dataset.absolute_step(index)))

    def evaluate(self, forecaster, lead_steps: int) -> LeadTimeScores:
        """Score one forecaster at one lead time.

        With a seasonal climatology, anomalies are taken against the
        verification date's day-of-year bin (the WeatherBench protocol).
        """
        names = self.dataset.out_names
        acc_sums = {n: 0.0 for n in names}
        rmse_sums = {n: 0.0 for n in names}
        indices = self._init_indices(lead_steps)
        for index in indices:
            prediction = forecaster.forecast(self.dataset, int(index), lead_steps)
            truth = self.dataset.target(int(index) + lead_steps)
            day = self._verification_day(int(index) + lead_steps)
            for c, name in enumerate(names):
                acc_sums[name] += latitude_weighted_acc(
                    prediction[c], truth[c], self.climatology.field(name, day),
                    self.lat_weights,
                )
                rmse_sums[name] += latitude_weighted_rmse(
                    prediction[c], truth[c], self.lat_weights
                )
        n = len(indices)
        return LeadTimeScores(
            lead_steps=lead_steps,
            wacc={name: acc_sums[name] / n for name in names},
            wrmse={name: rmse_sums[name] / n for name in names},
        )
