"""Synthetic CMIP6 multi-model archive (paper Sec IV).

The paper pre-trains on ten CMIP6 sources spanning 65-100 simulated
years each (1.2M six-hourly snapshots total).  Here each source is a
:class:`~repro.data.synthetic.ClimateSystemModel` sharing one coupling
structure (all sources describe the same planet) but with perturbed
dynamics parameters and its own noise realization — the synthetic
analogue of inter-model spread in a multi-model ensemble.
"""

from __future__ import annotations

import dataclasses

from repro.data.dataset import ClimateDataset
from repro.data.grid import LatLonGrid
from repro.data.synthetic import STEPS_PER_YEAR, ClimateSystemModel, LatentSpec
from repro.data.variables import VariableRegistry, default_registry
from repro.utils.seeding import SeedSequenceFactory

#: The ten sources named in the paper.
CMIP6_SOURCES = (
    "MPI-ESM", "AWI-ESM", "HAMMOZ", "CMCC", "TAI-ESM",
    "NOR", "EC", "MIRO", "MRI", "NESM",
)


class SyntheticCMIP6Archive:
    """Ten perturbed-physics climate models over a shared planet."""

    def __init__(
        self,
        grid: LatLonGrid,
        registry: VariableRegistry | None = None,
        years_per_source: float = 1.0,
        seed: int = 2024,
        spec: LatentSpec = LatentSpec(),
    ):
        if years_per_source <= 0:
            raise ValueError("years_per_source must be positive")
        self.grid = grid
        self.registry = registry if registry is not None else default_registry(48)
        self.years_per_source = years_per_source
        self.steps_per_source = max(2, int(years_per_source * STEPS_PER_YEAR))
        self._seeds = SeedSequenceFactory(seed)
        self._systems: dict[str, ClimateSystemModel] = {}
        self._spec = spec

    def _perturbed_spec(self, source: str) -> LatentSpec:
        rng = self._seeds.generator("spec", source)
        persistence = float(
            min(0.995, max(0.9, self._spec.persistence * (1 + rng.normal(0, 0.01))))
        )
        advection = float(self._spec.advection_cells_per_step * (1 + rng.normal(0, 0.1)))
        return dataclasses.replace(
            self._spec, persistence=persistence, advection_cells_per_step=advection
        )

    def system(self, source: str) -> ClimateSystemModel:
        """The climate model behind one source (built lazily)."""
        if source not in CMIP6_SOURCES:
            raise KeyError(f"unknown CMIP6 source {source!r}; expected one of {CMIP6_SOURCES}")
        if source not in self._systems:
            self._systems[source] = ClimateSystemModel(
                self.grid,
                self.registry,
                seed=self._seeds.integer_seed("noise", source),
                spec=self._perturbed_spec(source),
            )
        return self._systems[source]

    def dataset(self, source: str) -> ClimateDataset:
        """The six-hourly snapshot window of one source."""
        return ClimateDataset(
            self.system(source), num_steps=self.steps_per_source, name=source
        )

    def datasets(self) -> list[ClimateDataset]:
        """All ten sources' datasets, in the paper's order."""
        return [self.dataset(source) for source in CMIP6_SOURCES]
