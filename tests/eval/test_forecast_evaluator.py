"""Rollout buffer-safety.

The serving stack leans on ``RolloutForecaster.advance`` never writing
the model's returned buffer (a model handing back a cached array must
keep it intact).
"""

import numpy as np
import pytest

from repro.data import (
    LatLonGrid,
    Normalizer,
    SyntheticERA5,
    default_registry,
)
from repro.eval.rollout import RolloutForecaster
from repro.models import OrbitConfig, build_model

GRID = LatLonGrid(8, 16)
NAMES = ["land_sea_mask", "2m_temperature", "temperature_850",
         "geopotential_500"]
REG = default_registry(91).subset(NAMES)


@pytest.fixture(scope="module")
def world():
    era5 = SyntheticERA5(GRID, REG, steps_per_year=24, seed=5)
    train, test = era5.train(), era5.test()
    for ds in (train, test):
        ds.out_names[:] = list(REG.names)
        ds._out_indices[:] = ds.system.registry.indices(list(REG.names))
    norm = Normalizer.fit(train, num_samples=16)
    model = build_model(
        OrbitConfig("eval-many", embed_dim=16, depth=1, num_heads=2,
                    in_vars=len(NAMES), out_vars=len(NAMES),
                    img_height=8, img_width=16, patch_size=4),
        rng=3,
    )
    return test, norm, model


class _SharedBufferModel:
    """Returns the same array object on every call (no clear_cache) —
    the shape of model that made in-place mutation in the rollout a
    real bug."""

    def __init__(self, model):
        self._model = model
        self._buffer = None
        self.calls = 0

    def __call__(self, x, lead_hours):
        self.calls += 1
        out = self._model(x, lead_hours)
        if self._buffer is None:
            self._buffer = np.array(out)
        else:
            self._buffer[...] = out
        return self._buffer


class TestRolloutBufferSafety:
    def test_advance_never_writes_the_models_buffer(self, world):
        from repro.data.synthetic import HOURS_PER_STEP

        test, norm, model = world
        shared = _SharedBufferModel(model)
        rollout = RolloutForecaster(shared, norm)
        static = test.registry.static_indices
        state = rollout.initial_state(test, 0)
        result = rollout.advance(state, static)
        # The returned state is a fresh array with statics pinned ...
        assert result.base is not shared._buffer
        np.testing.assert_array_equal(result[static], state[static])
        # ... while the model's own buffer still holds raw model output
        # (pinning went to a copy, not to the shared buffer).
        raw = model(
            state[None].astype(np.float32),
            np.asarray([HOURS_PER_STEP], np.float32),
        )
        np.testing.assert_array_equal(shared._buffer, raw)

    def test_forecast_identical_with_shared_buffer_model(self, world):
        """Rolling out through a buffer-reusing model must equal rolling
        out through the plain model — proof advance copies before
        pinning statics."""
        test, norm, model = world
        plain = RolloutForecaster(model, norm).forecast(test, 0, 3)
        shared = RolloutForecaster(_SharedBufferModel(model), norm).forecast(
            test, 0, 3
        )
        np.testing.assert_array_equal(plain, shared)

    def test_model_without_clear_cache_is_tolerated(self, world):
        test, norm, model = world
        shared = _SharedBufferModel(model)
        assert not hasattr(shared, "clear_cache")
        out = RolloutForecaster(shared, norm).forecast(test, 0, 2)
        assert out.shape == (len(NAMES), 8, 16)
