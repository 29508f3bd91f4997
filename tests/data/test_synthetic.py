"""Tests for the latent-dynamics climate generator."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import ClimateSystemModel, LatentSpec, LatLonGrid, default_registry
from repro.data import synthetic
from repro.data.dataset import ClimateDataset

GRID = LatLonGrid(16, 32)
REG = default_registry(91).subset([
    "land_sea_mask", "orography", "soil_type",
    "2m_temperature", "10m_u_component_of_wind",
    "temperature_850", "geopotential_500", "specific_humidity_700",
])


@pytest.fixture(scope="module")
def system():
    return ClimateSystemModel(GRID, REG, seed=7)


class TestDeterminism:
    def test_same_seed_same_fields(self):
        a = ClimateSystemModel(GRID, REG, seed=1).snapshot(5)
        b = ClimateSystemModel(GRID, REG, seed=1).snapshot(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_weather(self):
        a = ClimateSystemModel(GRID, REG, seed=1).snapshot(5)
        b = ClimateSystemModel(GRID, REG, seed=2).snapshot(5)
        assert not np.allclose(a, b)

    def test_random_access_matches_sequential(self, system):
        fresh = ClimateSystemModel(GRID, REG, seed=7)
        far = fresh.latents_at(300)  # random access crossing a checkpoint
        seq = ClimateSystemModel(GRID, REG, seed=7)
        for t in range(0, 300):
            seq.latents_at(t)
        np.testing.assert_allclose(far, seq.latents_at(300), rtol=1e-12)


#: Steps the memo tests draw from: past two checkpoints and far enough
#: for a sweep to wrap the memo.
_HORIZON = 2 * synthetic._CHECKPOINT_INTERVAL + synthetic._MEMO_STATES + 40


@pytest.fixture(scope="module")
def reference_latents():
    """The oracle: the AR(1) chain integrated step by step from the
    initial state, by ``_evolve`` alone — no checkpoint, no memo."""
    system = ClimateSystemModel(GRID, REG, seed=7)
    states = [system._initial_latents()]
    for t in range(_HORIZON):
        states.append(system._evolve(states[-1], t))
    return states


@pytest.fixture
def evolve_calls(monkeypatch):
    """Counts every ``ClimateSystemModel._evolve`` call while installed."""
    calls = Counter()
    original = ClimateSystemModel._evolve

    def counting(self, state, t, noise=True):
        calls["evolve"] += 1
        return original(self, state, t, noise)

    monkeypatch.setattr(ClimateSystemModel, "_evolve", counting)
    return calls


class TestLatentMemo:
    """``latents_at`` answers from retained states; whichever state a
    walk starts from, the bits are those of the plain chain."""

    @settings(max_examples=20, deadline=None)
    @given(order=st.lists(st.integers(0, _HORIZON), min_size=1, max_size=40),
           wrapped=st.booleans())
    def test_any_access_order_matches_the_plain_chain(self, reference_latents,
                                                      order, wrapped):
        warmed = ClimateSystemModel(GRID, REG, seed=7)
        if wrapped:  # the memo has turned over at least once
            warmed.latents_at(_HORIZON)
            assert 0 < min(warmed._memo) - synthetic._MEMO_STATES
        for t in order:
            np.testing.assert_array_equal(warmed.latents_at(t),
                                          reference_latents[t])
        assert len(warmed._memo) <= synthetic._MEMO_STATES

    def test_warmed_snapshots_equal_a_fresh_systems(self):
        warmed = ClimateSystemModel(GRID, REG, seed=7)
        for t in (300, 40, 299, 300, 0, 256, 41):
            warmed.snapshot(t)
        for t in (300, 41, 256, 0, 17):
            fresh = ClimateSystemModel(GRID, REG, seed=7)
            np.testing.assert_array_equal(warmed.snapshot(t), fresh.snapshot(t))
            np.testing.assert_array_equal(
                warmed.field("temperature_850", t),
                ClimateSystemModel(GRID, REG, seed=7).field("temperature_850", t))
            np.testing.assert_array_equal(
                warmed.numerical_forecast(t, 6),
                ClimateSystemModel(GRID, REG, seed=7).numerical_forecast(t, 6))

    def test_retained_latents_are_read_only(self):
        """Memoized and checkpointed arrays are shared with every later
        caller, so an aliasing write must fail loudly."""
        system = ClimateSystemModel(GRID, REG, seed=7)
        interval = synthetic._CHECKPOINT_INTERVAL
        for t in (0, 5, interval, interval + 5):
            latents = system.latents_at(t)
            assert system.latents_at(t) is latents
            with pytest.raises(ValueError, match="read-only"):
                latents[0, 0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                latents *= 2.0

    def test_a_window_is_integrated_once(self, evolve_calls):
        """200 random ``forecast_sample(i, 8)`` over a 64-step window:
        after the walk to the window, at most one ``_evolve`` per step
        of window + lead (38,712 calls before the memo)."""
        system = ClimateSystemModel(GRID, REG, seed=7)
        dataset = ClimateDataset(system, start_step=2624, num_steps=72)
        dataset.snapshot(0)
        assert evolve_calls["evolve"] == 2624
        rng = np.random.default_rng(0)
        for index in rng.integers(0, 64, size=200):
            dataset.forecast_sample(int(index), 8)
        assert evolve_calls["evolve"] - 2624 <= 64 + 8

    def test_memo_never_exceeds_its_bound(self, evolve_calls):
        system = ClimateSystemModel(GRID, REG, seed=7)
        bound = synthetic._MEMO_STATES
        for t in range(0, 10 * bound, 7):
            system.latents_at(t)
            assert len(system._memo) <= bound
        assert len(system._memo) == bound
        # the sweep was one walk: no step integrated twice
        assert evolve_calls["evolve"] == max(range(0, 10 * bound, 7))
        # cold random access stays within one checkpoint interval
        system.latents_at(3 * synthetic._CHECKPOINT_INTERVAL - 1)
        assert evolve_calls["evolve"] - max(range(0, 10 * bound, 7)) \
            < synthetic._CHECKPOINT_INTERVAL


class TestStatistics:
    def test_snapshot_shape_and_dtype(self, system):
        snap = system.snapshot(0)
        assert snap.shape == (len(REG), 16, 32)
        assert snap.dtype == np.float32

    def test_fields_are_finite(self, system):
        assert np.isfinite(system.snapshot(10)).all()

    def test_static_fields_constant_in_time(self, system):
        f0 = system.field("orography", 0)
        f9 = system.field("orography", 9)
        np.testing.assert_array_equal(f0, f9)

    def test_dynamic_fields_change_in_time(self, system):
        assert not np.allclose(system.field("2m_temperature", 0),
                               system.field("2m_temperature", 8))

    def test_realistic_magnitudes(self, system):
        t2m = system.field("2m_temperature", 0)
        assert 180 < t2m.mean() < 330  # kelvin, roughly Earth-like

    def test_temperature_warmer_at_equator(self, system):
        """The latitudinal climatology must have the right sign."""
        t2m = np.mean([system.field("2m_temperature", t) for t in range(0, 64, 8)], axis=0)
        equator = t2m[7:9].mean()
        poles = (t2m[0].mean() + t2m[-1].mean()) / 2
        assert equator > poles

    def test_seasonal_cycle_present(self):
        """Opposite seasons differ in the hemispheric temperature contrast."""
        system = ClimateSystemModel(GRID, REG, seed=3)
        winter = system.climatology_field("2m_temperature", 365)   # ~day 91
        summer = system.climatology_field("2m_temperature", 1095)  # ~day 274
        north_contrast_w = winter[:8].mean() - winter[8:].mean()
        north_contrast_s = summer[:8].mean() - summer[8:].mean()
        assert abs(north_contrast_w - north_contrast_s) > 1.0  # kelvin

    def test_temporal_persistence(self, system):
        """Adjacent steps are much more similar than distant ones —
        the property that makes short-lead forecasting easier."""
        a = system.field("2m_temperature", 100)
        b = system.field("2m_temperature", 101)
        c = system.field("2m_temperature", 200)
        clim_a = system.climatology_field("2m_temperature", 100)
        clim_b = system.climatology_field("2m_temperature", 101)
        clim_c = system.climatology_field("2m_temperature", 200)
        near = np.corrcoef((a - clim_a).ravel(), (b - clim_b).ravel())[0, 1]
        far = np.corrcoef((a - clim_a).ravel(), (c - clim_c).ravel())[0, 1]
        # On this coarse test grid advection dephases high modes quickly,
        # so adjacent-step correlation lands near 0.8 (higher on 256 lon).
        assert near > 0.7
        assert abs(far) < near - 0.2

    def test_cross_variable_correlation_via_shared_latents(self, system):
        """Different dynamic variables are statistically related."""
        rng_corr = []
        for t in range(0, 160, 16):
            t850 = system.field("temperature_850", t) - system.climatology_field("temperature_850", t)
            t2m = system.field("2m_temperature", t) - system.climatology_field("2m_temperature", t)
            rng_corr.append(abs(np.corrcoef(t850.ravel(), t2m.ravel())[0, 1]))
        assert max(rng_corr) > 0.05  # not independent


class TestNumericalSurrogate:
    def test_short_lead_nearly_perfect(self, system):
        truth = system.field("2m_temperature", 101)
        forecast = system.numerical_forecast(100, 1, names=["2m_temperature"])[0]
        clim = system.climatology_field("2m_temperature", 101)
        err_forecast = np.abs(forecast - truth).mean()
        err_clim = np.abs(clim - truth).mean()
        assert err_forecast < err_clim

    def test_skill_decays_with_lead(self, system):
        errors = []
        for lead in (1, 20, 120):
            truth = system.field("2m_temperature", 100 + lead)
            forecast = system.numerical_forecast(100, lead, names=["2m_temperature"])[0]
            errors.append(float(np.abs(forecast - truth).mean()))
        assert errors[0] < errors[1] < errors[2] * 1.5

    def test_statics_pass_through(self, system):
        out = system.numerical_forecast(0, 4, names=["orography"])
        np.testing.assert_allclose(out[0], system.field("orography", 0))


class TestValidation:
    def test_negative_time_rejected(self, system):
        with pytest.raises(ValueError):
            system.latents_at(-1)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            LatentSpec(persistence=1.5)
        with pytest.raises(ValueError):
            LatentSpec(num_modes_lat=0)
