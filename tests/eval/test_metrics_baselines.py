"""Tests for wACC/wRMSE, the forecast harness, and baselines."""

import numpy as np
import pytest

from repro.data import (
    Climatology,
    LatLonGrid,
    Normalizer,
    SyntheticERA5,
    default_registry,
)
from repro.eval import (
    ClimatologyForecaster,
    FFTFilterForecaster,
    ForecastEvaluator,
    NumericalSurrogateForecaster,
    PersistenceForecaster,
    PUBLISHED_WACC,
    latitude_weighted_acc,
    latitude_weighted_rmse,
)

GRID = LatLonGrid(8, 16)
REG = default_registry(91).subset(
    ["land_sea_mask", "2m_temperature", "temperature_850", "geopotential_500",
     "10m_u_component_of_wind"]
)


@pytest.fixture(scope="module")
def era5():
    return SyntheticERA5(GRID, REG, steps_per_year=24)


@pytest.fixture(scope="module")
def evaluator(era5):
    clim = Climatology.from_dataset(era5.train(), num_samples=48)
    return ForecastEvaluator(era5.test(), clim, num_initializations=4)


class TestWACC:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.weights = GRID.latitude_weights()
        self.clim = rng.normal(size=(8, 16))
        self.truth = self.clim + rng.normal(size=(8, 16))

    def test_perfect_forecast_scores_one(self):
        acc = latitude_weighted_acc(self.truth, self.truth, self.clim, self.weights)
        assert acc == pytest.approx(1.0)

    def test_climatology_scores_zero(self):
        acc = latitude_weighted_acc(self.clim, self.truth, self.clim, self.weights)
        assert acc == pytest.approx(0.0, abs=1e-9)

    def test_anti_correlated_scores_minus_one(self):
        anti = 2 * self.clim - self.truth  # anomaly flipped in sign
        acc = latitude_weighted_acc(anti, self.truth, self.clim, self.weights)
        assert acc == pytest.approx(-1.0)

    def test_range_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pred = self.clim + rng.normal(size=(8, 16))
            acc = latitude_weighted_acc(pred, self.truth, self.clim, self.weights)
            assert -1.0 - 1e-9 <= acc <= 1.0 + 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            latitude_weighted_acc(np.zeros((4, 4)), np.zeros((8, 16)), self.clim, self.weights)


class TestWRMSE:
    def test_zero_for_perfect(self):
        x = np.random.default_rng(0).normal(size=(8, 16))
        assert latitude_weighted_rmse(x, x, GRID.latitude_weights()) == 0.0

    def test_constant_offset(self):
        x = np.zeros((8, 16))
        rmse = latitude_weighted_rmse(x + 2.0, x, GRID.latitude_weights())
        assert rmse == pytest.approx(2.0)


class TestBaselines:
    def test_climatology_forecaster_scores_near_zero(self, era5, evaluator):
        clim = Climatology.from_dataset(era5.train(), num_samples=48)
        scores = evaluator.evaluate(ClimatologyForecaster(clim), lead_steps=2)
        assert abs(scores.mean_wacc()) < 0.35

    def test_persistence_beats_climatology_at_short_lead(self, era5, evaluator):
        clim = Climatology.from_dataset(era5.train(), num_samples=48)
        persistence = evaluator.evaluate(PersistenceForecaster(), lead_steps=1)
        climatology = evaluator.evaluate(ClimatologyForecaster(clim), lead_steps=1)
        assert persistence.mean_wacc() > climatology.mean_wacc() + 0.2

    def test_persistence_skill_decays_with_lead(self, evaluator):
        short = evaluator.evaluate(PersistenceForecaster(), lead_steps=1)
        long = evaluator.evaluate(PersistenceForecaster(), lead_steps=8)
        assert short.mean_wacc() > long.mean_wacc()

    def test_numerical_surrogate_strong_at_short_lead(self, evaluator):
        scores = evaluator.evaluate(NumericalSurrogateForecaster(), lead_steps=1)
        assert scores.mean_wacc() > 0.9

    def test_numerical_surrogate_decays(self, evaluator):
        short = evaluator.evaluate(NumericalSurrogateForecaster(), lead_steps=1)
        long = evaluator.evaluate(NumericalSurrogateForecaster(), lead_steps=12)
        assert long.mean_wacc() < short.mean_wacc()

    def test_fft_forecaster_beats_persistence(self, era5, evaluator):
        clim = Climatology.from_dataset(era5.train(), num_samples=48)
        fft = FFTFilterForecaster(era5.train(), clim, num_fit_samples=16)
        lead = 4
        fft_scores = evaluator.evaluate(fft, lead_steps=lead)
        persistence = evaluator.evaluate(PersistenceForecaster(), lead_steps=lead)
        assert fft_scores.mean_wacc() > persistence.mean_wacc()

    def test_scores_structure(self, evaluator):
        scores = evaluator.evaluate(PersistenceForecaster(), lead_steps=2)
        assert set(scores.wacc) == set(evaluator.dataset.out_names)
        assert scores.lead_days == 0.5
        assert all(v >= 0 for v in scores.wrmse.values())


class TestReferenceTable:
    def test_models_and_variables_present(self):
        assert set(PUBLISHED_WACC) == {"ORBIT-115M", "ClimaX", "Stormer", "FourCastNet", "IFS"}
        for scores in PUBLISHED_WACC.values():
            assert set(scores) == {
                "geopotential_500", "temperature_850", "2m_temperature",
                "10m_u_component_of_wind",
            }

    def test_unavailable_leads_marked_none(self):
        assert PUBLISHED_WACC["Stormer"]["geopotential_500"][30] is None
        assert PUBLISHED_WACC["FourCastNet"]["geopotential_500"][14] is None

    def test_orbit_wins_at_long_leads(self):
        """The paper's headline: ORBIT >= ClimaX at 30 days, every variable."""
        for var, scores in PUBLISHED_WACC["ORBIT-115M"].items():
            assert scores[30] >= PUBLISHED_WACC["ClimaX"][var][30]
