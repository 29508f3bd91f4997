"""Synthetic ERA5 reanalysis with the WeatherBench2 split (paper Sec IV).

The fine-tuning dataset: a single "real world" realization — a
:class:`~repro.data.synthetic.ClimateSystemModel` distinct from every
CMIP6 source (its own noise realization and slightly different
dynamics), spanning 1979-2020 with the standard split: up to 2018 for
training, 2019 for validation, 2020 for evaluation.

The paper's fine-tuning targets are geopotential at 500 hPa (z500),
temperature at 850 hPa (t850), 2-meter temperature (t2m), and 10-meter
zonal wind (u10).
"""

from __future__ import annotations

import dataclasses

from repro.data.dataset import ClimateDataset
from repro.data.grid import LatLonGrid
from repro.data.synthetic import STEPS_PER_YEAR, ClimateSystemModel, LatentSpec
from repro.data.variables import VariableRegistry, default_registry
from repro.utils.seeding import SeedSequenceFactory

#: The paper's four fine-tuning output variables.
TARGET_VARIABLES = (
    "geopotential_500",
    "temperature_850",
    "2m_temperature",
    "10m_u_component_of_wind",
)

FIRST_YEAR = 1979
TRAIN_END_YEAR = 2018  # inclusive
VAL_YEAR = 2019
TEST_YEAR = 2020


class SyntheticERA5:
    """The observation-like fine-tuning world.

    Parameters
    ----------
    steps_per_year:
        Snapshots per simulated year; the real cadence is 1460
        (six-hourly).  Smaller values give proportionally shorter
        "years" for workstation-scale runs.
    """

    def __init__(
        self,
        grid: LatLonGrid,
        registry: VariableRegistry | None = None,
        seed: int = 1979,
        steps_per_year: int = STEPS_PER_YEAR,
        spec: LatentSpec | None = None,
    ):
        if steps_per_year < 2:
            raise ValueError("steps_per_year must be at least 2")
        self.grid = grid
        self.registry = registry if registry is not None else default_registry(91)
        self.steps_per_year = int(steps_per_year)
        seeds = SeedSequenceFactory(seed)
        if spec is None:
            # The real world is not any one model: nudge the dynamics.
            spec = dataclasses.replace(
                LatentSpec(),
                persistence=0.965,
                advection_cells_per_step=0.75,
            )
        self.system = ClimateSystemModel(
            grid, self.registry, seed=seeds.integer_seed("world"), spec=spec
        )
        self.num_years = TEST_YEAR - FIRST_YEAR + 1
        self._full = ClimateDataset(
            self.system,
            num_steps=self.num_years * self.steps_per_year,
            out_names=[n for n in TARGET_VARIABLES if n in self.registry.names],
            name="era5",
        )

    def _year_window(self, start_year: int, end_year: int, name: str) -> ClimateDataset:
        start = (start_year - FIRST_YEAR) * self.steps_per_year
        length = (end_year - start_year + 1) * self.steps_per_year
        return self._full.window(start, length, name=name)

    def train(self) -> ClimateDataset:
        """1979-2018 (the WeatherBench2 training period)."""
        return self._year_window(FIRST_YEAR, TRAIN_END_YEAR, "era5-train")

    def validation(self) -> ClimateDataset:
        """2019."""
        return self._year_window(VAL_YEAR, VAL_YEAR, "era5-val")

    def test(self) -> ClimateDataset:
        """2020 (the evaluation year of Fig 9)."""
        return self._year_window(TEST_YEAR, TEST_YEAR, "era5-test")
