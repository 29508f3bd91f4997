"""Tests for datasets, CMIP6/ERA5 archives, climatology, normalization, loaders."""

import numpy as np
import pytest

from repro.data import (
    BatchLoader,
    CMIP6_SOURCES,
    Climatology,
    LatLonGrid,
    Normalizer,
    ShardSpec,
    SyntheticCMIP6Archive,
    SyntheticERA5,
    default_registry,
)
from repro.data.era5 import TARGET_VARIABLES
from repro.data.loader import round_robin_loaders

GRID = LatLonGrid(8, 16)
REG = default_registry(91).subset(
    ["land_sea_mask", "orography", "2m_temperature", "temperature_850",
     "geopotential_500", "10m_u_component_of_wind"]
)


@pytest.fixture(scope="module")
def archive():
    return SyntheticCMIP6Archive(GRID, REG, years_per_source=0.05, seed=11)


@pytest.fixture(scope="module")
def era5():
    return SyntheticERA5(GRID, REG, steps_per_year=12)


class TestCMIP6Archive:
    def test_ten_sources(self, archive):
        assert len(CMIP6_SOURCES) == 10
        assert len(archive.datasets()) == 10

    def test_sources_differ(self, archive):
        a = archive.dataset("MPI-ESM").snapshot(3)
        b = archive.dataset("NOR").snapshot(3)
        assert not np.allclose(a, b)

    def test_sources_share_planet_structure(self, archive):
        """Static fields (orography etc.) are identical across sources."""
        a = archive.dataset("MPI-ESM").snapshot(0)[1]
        b = archive.dataset("NOR").snapshot(0)[1]
        np.testing.assert_array_equal(a, b)

    def test_unknown_source_rejected(self, archive):
        with pytest.raises(KeyError):
            archive.dataset("GFDL")

    def test_total_observations(self, archive):
        total = sum(len(dataset) for dataset in archive.datasets())
        assert total == 10 * archive.steps_per_source

    def test_systems_cached(self, archive):
        assert archive.system("EC") is archive.system("EC")


class TestERA5:
    def test_split_lengths(self, era5):
        assert len(era5.train()) == 40 * 12  # 1979-2018
        assert len(era5.validation()) == 12
        assert len(era5.test()) == 12

    def test_splits_are_disjoint_and_ordered(self, era5):
        train, val, test = era5.train(), era5.validation(), era5.test()
        assert train.start_step + len(train) == val.start_step
        assert val.start_step + len(val) == test.start_step

    def test_target_variables(self, era5):
        targets = era5.train().out_names
        assert set(targets) <= set(TARGET_VARIABLES)
        assert "geopotential_500" in targets

    def test_differs_from_cmip6_sources(self, era5, archive):
        a = era5.train().snapshot(0)
        b = archive.dataset("MPI-ESM").snapshot(0)
        assert not np.allclose(a, b)


class TestDataset:
    def test_forecast_sample_shapes(self, era5):
        ds = era5.train()
        sample = ds.forecast_sample(0, lead_steps=2)
        assert sample.x.shape == (len(REG), 8, 16)
        assert sample.y.shape == (len(ds.out_names), 8, 16)
        assert sample.lead_time_hours == 12.0

    def test_target_is_future_snapshot_subset(self, era5):
        ds = era5.train()
        sample = ds.forecast_sample(3, lead_steps=1)
        full = ds.snapshot(4)
        idx = [list(REG.names).index(n) for n in ds.out_names]
        np.testing.assert_array_equal(sample.y, full[idx])

    def test_out_of_range_rejected(self, era5):
        ds = era5.validation()
        with pytest.raises(IndexError):
            ds.forecast_sample(len(ds) - 1, lead_steps=1)
        with pytest.raises(ValueError):
            ds.forecast_sample(0, lead_steps=0)

    def test_window_bounds_checked(self, era5):
        with pytest.raises(ValueError):
            era5.train().window(0, 10**6)


class TestClimatology:
    def test_mean_matches_manual(self, era5):
        ds = era5.validation()
        clim = Climatology.from_dataset(ds, num_samples=4)
        manual = np.mean([ds.target(i).astype(np.float64)
                          for i in np.linspace(0, len(ds) - 1, 4, dtype=int)], axis=0)
        np.testing.assert_allclose(clim.mean_fields, manual)

    def test_anomalies_are_centered(self, era5):
        ds = era5.validation()
        clim = Climatology.from_dataset(ds, num_samples=len(ds))
        anoms = [ds.target(i) - clim.fields_for() for i in range(len(ds))]
        np.testing.assert_allclose(np.mean(anoms, axis=0), 0.0, atol=1e-3)

    def test_field_lookup(self, era5):
        clim = Climatology.from_dataset(era5.validation(), num_samples=2)
        assert clim.field("geopotential_500").shape == (8, 16)
        with pytest.raises(KeyError):
            clim.field("nonexistent")

class TestNormalizer:
    def test_normalized_stats(self, era5):
        ds = era5.train()
        norm = Normalizer.fit(ds, num_samples=8)
        x = norm.normalize(ds.snapshot(0))
        dynamic = [i for i, v in enumerate(REG) if not v.is_static]
        assert np.abs(x[dynamic].mean(axis=(1, 2))).max() < 3.0
        assert x.dtype == np.float32

    def test_roundtrip(self, era5):
        ds = era5.train()
        norm = Normalizer.fit(ds, num_samples=4)
        snap = ds.snapshot(1)
        back = norm.denormalize(norm.normalize(snap))
        np.testing.assert_allclose(back, snap, rtol=1e-4, atol=1e-3)

    def test_subset_names(self, era5):
        ds = era5.train()
        norm = Normalizer.fit(ds, num_samples=4)
        y = ds.target(0)
        normed = norm.normalize(y, names=ds.out_names)
        assert normed.shape == y.shape

    def test_invalid_stats_rejected(self):
        with pytest.raises(ValueError):
            Normalizer(np.zeros(3), np.zeros(3), ["a", "b", "c"])  # zero std


class TestBatchLoader:
    def test_batch_shapes(self, era5):
        loader = BatchLoader(era5.train(), batch_size=3, lead_steps_choices=(1, 2))
        batch = loader.next_batch()
        assert batch.x.shape == (3, len(REG), 8, 16)
        assert batch.y.shape[0] == 3
        assert batch.lead_time_hours.shape == (3,)
        assert set(batch.lead_time_hours) <= {6.0, 12.0}

    def test_deterministic_replay(self, era5):
        l1 = BatchLoader(era5.train(), 2, seed=5)
        l2 = BatchLoader(era5.train(), 2, seed=5)
        np.testing.assert_array_equal(l1.next_batch().x, l2.next_batch().x)

    def test_reset_restarts_sequence(self, era5):
        loader = BatchLoader(era5.train(), 2, seed=5)
        first = loader.next_batch().x
        loader.next_batch()
        loader.reset()
        np.testing.assert_array_equal(loader.next_batch().x, first)

    def test_shards_draw_disjoint_indices(self, era5):
        """Different shard ranks sample disjoint input-time streams
        (index = rank mod num_shards, except the end-of-range clamp)."""
        ds = era5.train()
        drawn: dict[int, set[int]] = {}
        for rank in (0, 1):
            loader = BatchLoader(ds, 16, shard=ShardSpec(rank, 2), seed=3)
            recorded: set[int] = set()
            original = ds.forecast_sample

            def recording(index, lead_steps, _orig=original, _rec=recorded):
                _rec.add(index)
                return _orig(index, lead_steps)

            ds.forecast_sample = recording
            try:
                for _ in range(3):
                    loader.next_batch()
            finally:
                ds.forecast_sample = original
            drawn[rank] = recorded
        max_index = ds.max_input_index(1)
        unclamped = {
            rank: {i for i in indices if i < max_index} for rank, indices in drawn.items()
        }
        assert unclamped[0] and unclamped[1]
        assert all(i % 2 == 0 for i in unclamped[0])
        assert all(i % 2 == 1 for i in unclamped[1])
        assert not (unclamped[0] & unclamped[1])

    def test_normalizer_applied(self, era5):
        ds = era5.train()
        norm = Normalizer.fit(ds, num_samples=4)
        loader = BatchLoader(ds, 2, normalizer=norm)
        batch = loader.next_batch()
        assert np.abs(batch.x).max() < 50

    def test_validation(self, era5):
        with pytest.raises(ValueError):
            BatchLoader(era5.train(), 0)
        with pytest.raises(ValueError):
            BatchLoader(era5.train(), 2, lead_steps_choices=())
        with pytest.raises(ValueError):
            ShardSpec(rank=2, num_shards=2)

    def test_round_robin_cycles_sources(self, archive):
        gen = round_robin_loaders(archive.datasets()[:3], batch_size=2, seed=1)
        batches = [next(gen) for _ in range(3)]
        assert all(b.x.shape[0] == 2 for b in batches)
