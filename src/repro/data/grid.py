"""Latitude-longitude grids and area weights.

The paper's resolution is 1.40625 degrees: a 128 x 256 equiangular
grid.  Latitude weights (proportional to the cosine of latitude,
normalized to unit mean) enter both the training loss (wMSE) and the
evaluation metric (wACC) so polar grid cells do not dominate
(Sec IV, "Performance Metrics").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LatLonGrid:
    """Equiangular global grid with ``nlat x nlon`` cell centers."""

    nlat: int
    nlon: int

    def __post_init__(self):
        if self.nlat < 2 or self.nlon < 2:
            raise ValueError("grid needs at least 2 points per axis")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nlat, self.nlon)

    @property
    def latitudes(self) -> np.ndarray:
        """Cell-center latitudes in degrees, north to south."""
        step = 180.0 / self.nlat
        return 90.0 - step * (np.arange(self.nlat) + 0.5)

    def latitude_weights(self) -> np.ndarray:
        """Per-row weights ``cos(lat)`` normalized to unit mean, shape (nlat, 1).

        Broadcastable against ``(..., nlat, nlon)`` fields.
        """
        weights = np.cos(np.deg2rad(self.latitudes))
        weights = weights / weights.mean()
        return weights[:, None].astype(np.float64)


#: The paper's pre-training/fine-tuning grid (1.40625 degrees).
PAPER_GRID = LatLonGrid(128, 256)
