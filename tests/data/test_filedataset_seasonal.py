"""Tests for file-backed datasets and the seasonal climatology."""

import numpy as np
import pytest

from repro.data import (
    BatchLoader,
    Climatology,
    LatLonGrid,
    Normalizer,
    SyntheticERA5,
    default_registry,
)
from repro.data.filedataset import FileDataset, save_archive
from repro.data.synthetic import STEPS_PER_YEAR
from repro.eval import ForecastEvaluator, PersistenceForecaster

GRID = LatLonGrid(8, 16)
REG = default_registry(91).subset(
    ["land_sea_mask", "2m_temperature", "temperature_850", "geopotential_500"]
)


@pytest.fixture(scope="module")
def era5():
    return SyntheticERA5(GRID, REG, steps_per_year=16, seed=4)


@pytest.fixture
def archive_path(tmp_path, era5):
    path = tmp_path / "era5_export.npz"
    save_archive(era5.validation(), path)
    return path


class TestFileDataset:
    def test_snapshots_match_source(self, archive_path, era5):
        source = era5.validation()
        loaded = FileDataset(archive_path)
        assert len(loaded) == len(source)
        np.testing.assert_allclose(loaded.snapshot(3), source.snapshot(3), rtol=1e-6)

    def test_metadata_roundtrip(self, archive_path, era5):
        loaded = FileDataset(archive_path)
        assert loaded.registry.names == REG.names
        assert loaded.out_names == era5.validation().out_names
        assert loaded.start_step == era5.validation().start_step
        assert loaded.grid.shape == GRID.shape

    def test_forecast_samples(self, archive_path):
        loaded = FileDataset(archive_path)
        sample = loaded.forecast_sample(0, lead_steps=2)
        np.testing.assert_allclose(sample.y, loaded.target(2))
        assert sample.lead_time_hours == 12.0
        with pytest.raises(IndexError):
            loaded.forecast_sample(len(loaded) - 1, 1)

    def test_window_view(self, archive_path):
        loaded = FileDataset(archive_path)
        window = loaded.window(2, 5)
        assert len(window) == 5
        np.testing.assert_allclose(window.snapshot(0), loaded.snapshot(2))
        with pytest.raises(ValueError):
            loaded.window(0, 10**6)

    def test_works_with_loader_and_normalizer(self, archive_path):
        loaded = FileDataset(archive_path)
        norm = Normalizer.fit(loaded, num_samples=4)
        loader = BatchLoader(loaded, 2, normalizer=norm)
        batch = loader.next_batch()
        assert batch.x.shape == (2, 4, 8, 16)

    def test_works_with_evaluator(self, archive_path):
        loaded = FileDataset(archive_path)
        clim = Climatology.from_dataset(loaded, num_samples=8)
        evaluator = ForecastEvaluator(loaded, clim, num_initializations=2)
        scores = evaluator.evaluate(PersistenceForecaster(), lead_steps=1)
        assert set(scores.wacc) == set(loaded.out_names)

    def test_save_returns_the_npz_path_it_wrote(self, tmp_path, era5):
        written = save_archive(era5.validation(), tmp_path / "train")
        assert written == tmp_path / "train.npz"
        loaded = FileDataset(written)
        np.testing.assert_array_equal(loaded.snapshot(0), era5.validation().snapshot(0))
        assert loaded.system.grid is loaded.grid

    def test_partial_snapshot_export(self, tmp_path, era5):
        path = tmp_path / "subset.npz"
        save_archive(era5.validation(), path, indices=[0, 2, 4])
        loaded = FileDataset(path)
        assert len(loaded) == 3
        np.testing.assert_allclose(loaded.snapshot(1), era5.validation().snapshot(2), rtol=1e-6)


class TestSeasonalClimatology:
    @pytest.fixture(scope="class")
    def seasonal_world(self):
        # Full-rate world so day-of-year spans the seasons properly.
        era5 = SyntheticERA5(GRID, REG, steps_per_year=STEPS_PER_YEAR, seed=8)
        return era5.train().window(0, 2 * STEPS_PER_YEAR, name="two-years")

    def test_bins_capture_seasonal_cycle(self, seasonal_world):
        clim = Climatology.from_dataset(seasonal_world, num_samples=96, num_bins=4)
        assert clim.num_bins == 4
        t2m = [clim.field("2m_temperature", day) for day in (45.0, 228.0)]
        # Northern-hemisphere winter vs summer contrast flips between bins.
        north_winter = t2m[0][:4].mean()
        north_summer = t2m[1][:4].mean()
        assert abs(north_winter - north_summer) > 1.0

    def test_annual_mean_is_bin_average(self, seasonal_world):
        clim = Climatology.from_dataset(seasonal_world, num_samples=32, num_bins=4)
        np.testing.assert_allclose(clim.mean_fields, clim.binned_fields.mean(axis=0))

    def test_annual_default_unchanged(self, seasonal_world):
        annual = Climatology.from_dataset(seasonal_world, num_samples=16)
        assert annual.num_bins == 1
        assert annual.field("2m_temperature").shape == GRID.shape
        # day_of_year argument is accepted and ignored for annual.
        np.testing.assert_array_equal(
            annual.field("2m_temperature", 100.0), annual.field("2m_temperature")
        )

    def test_empty_bins_fall_back_to_overall_mean(self, seasonal_world):
        # Two samples cannot fill 8 bins; empty ones get the overall mean.
        clim = Climatology.from_dataset(seasonal_world, num_samples=2, num_bins=8)
        overall = clim.binned_fields.reshape(8, -1)
        assert np.isfinite(overall).all()

    def test_seasonal_climatology_tightens_wacc_reference(self, seasonal_world):
        """Against a seasonal climatology, climatology-anomaly ACC of the
        *seasonal mean itself* is ~0 while the annual reference credits
        the seasonal cycle as skill."""
        seasonal = Climatology.from_dataset(seasonal_world, num_samples=96, num_bins=4)
        annual = Climatology.from_dataset(seasonal_world, num_samples=96, num_bins=1)
        evaluator_seasonal = ForecastEvaluator(seasonal_world, seasonal, num_initializations=3)
        evaluator_annual = ForecastEvaluator(seasonal_world, annual, num_initializations=3)

        class SeasonalMeanForecaster:
            name = "seasonal-mean"

            def forecast(self, dataset, index, lead_steps):
                day = dataset.system.day_of_year(dataset.absolute_step(index + lead_steps))
                return seasonal.fields_for(day).astype(np.float32)

        fc = SeasonalMeanForecaster()
        score_seasonal = evaluator_seasonal.evaluate(fc, lead_steps=4).mean_wacc()
        score_annual = evaluator_annual.evaluate(fc, lead_steps=4).mean_wacc()
        assert score_annual > score_seasonal - 0.05

    def test_invalid_bins_rejected(self, seasonal_world):
        with pytest.raises(ValueError):
            Climatology.from_dataset(seasonal_world, num_bins=0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Climatology(np.zeros((2, 3)), ["a"])
