"""Tests for the variable registry and lat-lon grid."""

import numpy as np
import pytest

from repro.data import LatLonGrid, VariableKind, default_registry
from repro.data.grid import PAPER_GRID
from repro.data.variables import PRESSURE_LEVELS_17


class TestRegistry:
    def test_full_inventory_matches_paper(self):
        """91 = 3 static + 3 surface + 85 atmospheric on 17 levels."""
        reg = default_registry(91)
        assert len(reg) == 91
        kinds = {}
        for v in reg:
            kinds[v.kind] = kinds.get(v.kind, 0) + 1
        assert kinds[VariableKind.STATIC] == 3
        assert kinds[VariableKind.SURFACE] == 3
        assert kinds[VariableKind.ATMOSPHERIC] == 85

    def test_17_pressure_levels(self):
        assert len(PRESSURE_LEVELS_17) == 17
        reg = default_registry(91)
        levels = {v.level_hpa for v in reg if v.kind == VariableKind.ATMOSPHERIC}
        assert levels == set(PRESSURE_LEVELS_17)

    def test_48_variable_subset(self):
        reg = default_registry(48)
        assert len(reg) == 48
        names91 = set(default_registry(91).names)
        assert set(reg.names) <= names91

    def test_48_contains_finetune_targets(self):
        reg = default_registry(48)
        for name in ("geopotential_500", "temperature_850", "2m_temperature",
                     "10m_u_component_of_wind"):
            assert name in reg.names

    def test_lookup_by_name_and_index(self):
        reg = default_registry(91)
        assert reg.index("2m_temperature") == 3
        assert reg["2m_temperature"].units == "K"
        assert reg[0].name == "land_sea_mask"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            default_registry(48).index("vorticity_500")

    def test_subset_preserves_order(self):
        reg = default_registry(91)
        sub = reg.subset(["2m_temperature", "orography"])
        assert sub.names == ("2m_temperature", "orography")

    def test_static_indices(self):
        reg = default_registry(91)
        assert reg.static_indices == [0, 1, 2]

    def test_truncated_registry(self):
        assert len(default_registry(8)) == 8

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            default_registry(0)
        with pytest.raises(ValueError):
            default_registry(92)

    def test_statics_have_zero_coupling(self):
        reg = default_registry(91)
        for v in reg:
            if v.is_static:
                assert v.latent_coupling == 0.0


class TestGrid:
    def test_paper_grid_resolution(self):
        assert PAPER_GRID.shape == (128, 256)
        np.testing.assert_allclose(np.diff(PAPER_GRID.latitudes), -1.40625)

    def test_latitudes_symmetric(self):
        grid = LatLonGrid(8, 16)
        lats = grid.latitudes
        np.testing.assert_allclose(lats, -lats[::-1])
        assert lats[0] > 0  # north first

    def test_latitude_weights_unit_mean(self):
        grid = LatLonGrid(32, 64)
        weights = grid.latitude_weights()
        assert weights.shape == (32, 1)
        assert weights.mean() == pytest.approx(1.0)

    def test_polar_rows_downweighted(self):
        grid = LatLonGrid(32, 64)
        weights = grid.latitude_weights()[:, 0]
        assert weights[0] < weights[16]  # pole < equator

    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            LatLonGrid(1, 16)
