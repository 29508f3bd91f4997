"""Tests for autoregressive rollout forecasting."""

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
from repro.eval import ForecastEvaluator, ModelForecaster, PersistenceForecaster
from repro.eval.rollout import RolloutForecaster
from repro.models import OrbitConfig, build_model
from repro.train import AdamW, Trainer

GRID = LatLonGrid(8, 16)
NAMES = ["land_sea_mask", "2m_temperature", "temperature_850", "geopotential_500"]
REG = default_registry(91).subset(NAMES)


@pytest.fixture(scope="module")
def trained_world():
    era5 = SyntheticERA5(GRID, REG, steps_per_year=24, seed=13)
    train, test = era5.train(), era5.test()
    # Rollout needs all-channel prediction: out_names = all channels.
    for ds in (train, test):
        ds.out_names[:] = list(REG.names)
        ds._out_indices[:] = ds.system.registry.indices(list(REG.names))
    norm = Normalizer.fit(train, num_samples=16)
    config = OrbitConfig(
        "rollout-test", embed_dim=16, depth=1, num_heads=2,
        in_vars=len(NAMES), out_vars=len(NAMES),
        img_height=8, img_width=16, patch_size=4,
    )
    model = build_model(config, rng=1)
    loader = BatchLoader(train, 4, lead_steps_choices=(1,), normalizer=norm, seed=1)
    Trainer(model, loader.batches(10**9), GRID.latitude_weights(),
            AdamW(model.parameters(), lr=3e-3, weight_decay=0.0)).train(150)
    return era5, train, test, norm, model


class TestRollout:
    def test_forecast_shape(self, trained_world):
        _, _, test, norm, model = trained_world
        rollout = RolloutForecaster(model, norm)
        out = rollout.forecast(test, 0, lead_steps=2)
        assert out.shape == (len(NAMES), 8, 16)

    def test_static_channels_carried_over(self, trained_world):
        _, _, test, norm, model = trained_world
        rollout = RolloutForecaster(model, norm)
        out = rollout.forecast(test, 0, lead_steps=3)
        lsm_index = list(REG.names).index("land_sea_mask")
        np.testing.assert_allclose(
            out[lsm_index], test.snapshot(0)[lsm_index], rtol=1e-4, atol=1e-4
        )

    def test_one_application_matches_direct(self, trained_world):
        """A single rollout step is the direct forecast on dynamic channels
        (rollout pins statics to the initial condition by design)."""
        _, _, test, norm, model = trained_world
        rollout = RolloutForecaster(model, norm)
        direct = ModelForecaster(model, norm)
        dynamic = [i for i, v in enumerate(REG) if not v.is_static]
        np.testing.assert_allclose(
            rollout.forecast(test, 2, 1)[dynamic],
            direct.forecast(test, 2, 1)[dynamic],
            rtol=1e-5, atol=1e-4,
        )

    def test_rollout_has_skill_at_longer_lead(self, trained_world):
        _, train, test, norm, model = trained_world
        clim = Climatology.from_dataset(train, num_samples=48)
        evaluator = ForecastEvaluator(test, clim, num_initializations=4)
        rollout = RolloutForecaster(model, norm)
        score = evaluator.evaluate(rollout, lead_steps=2).mean_wacc()
        persistence = evaluator.evaluate(PersistenceForecaster(), lead_steps=2).mean_wacc()
        assert score > persistence - 0.1
        assert score > 0.2

    def test_indivisible_lead_rejected(self, trained_world):
        _, _, test, norm, model = trained_world
        rollout = RolloutForecaster(model, norm, base_lead_steps=2)
        with pytest.raises(ValueError):
            rollout.forecast(test, 0, lead_steps=3)

    def test_partial_channel_model_rejected(self, trained_world):
        _, _, test, norm, _ = trained_world
        partial_cfg = OrbitConfig(
            "partial", embed_dim=16, depth=1, num_heads=2,
            in_vars=len(NAMES), out_vars=2, img_height=8, img_width=16, patch_size=4,
        )
        partial = build_model(partial_cfg, rng=0)
        rollout = RolloutForecaster(partial, norm)
        with pytest.raises(ValueError):
            rollout.forecast(test, 0, lead_steps=2)

    def test_invalid_base_lead(self, trained_world):
        _, _, _, norm, model = trained_world
        with pytest.raises(ValueError):
            RolloutForecaster(model, norm, base_lead_steps=0)


class _SharedBufferModel:
    """Hands back one reused array per batch width (no ``clear_cache``)."""

    def __init__(self, model):
        self._model = model
        self._buffers = {}

    def __call__(self, x, lead_hours):
        out = self._model(x, lead_hours)
        buffer = self._buffers.setdefault(len(x), np.empty_like(out))
        buffer[...] = out
        return buffer


#: (embed_dim, depth, num_heads, vars, height, width, patch_size)
_STACK_GEOMETRIES = [
    (16, 1, 2, 4, 8, 16, 4),   # the serve bench world
    (16, 2, 4, 7, 8, 16, 2),
    (32, 1, 4, 4, 16, 32, 4),
    (48, 2, 2, 7, 16, 32, 2),
    (64, 2, 4, 4, 16, 32, 4),
    (96, 1, 2, 7, 32, 64, 4),
]


class TestStackedAdvance:
    """The named oracle of the serving data plane: a state advanced in a
    stack of ``B`` is bitwise the state advanced alone.  Nothing in the
    code falls back if a BLAS build breaks this; this test fails."""

    @pytest.mark.parametrize("shared_buffer", [False, True],
                             ids=["plain", "shared-buffer"])
    @pytest.mark.parametrize("geometry", _STACK_GEOMETRIES,
                             ids=lambda g: "x".join(map(str, g)))
    def test_stack_elements_equal_single_advances(self, geometry,
                                                  shared_buffer):
        embed, depth, heads, num_vars, height, width, patch = geometry
        model = build_model(OrbitConfig(
            "stack-oracle", embed_dim=embed, depth=depth, num_heads=heads,
            in_vars=num_vars, out_vars=num_vars, img_height=height,
            img_width=width, patch_size=patch), rng=embed + depth)
        if shared_buffer:
            model = _SharedBufferModel(model)
        rollout = RolloutForecaster(model, normalizer=None)
        rng = np.random.default_rng(num_vars)
        static = [0, num_vars - 1]
        for width_b in (2, 3, 5, 8, 16):
            states = list(rng.normal(
                size=(width_b, num_vars, height, width)).astype(np.float32))
            alone = [rollout.advance(state, static) for state in states]
            stacked = rollout.advance_many(states, static)
            assert len(stacked) == width_b
            for state, one, many in zip(states, alone, stacked):
                np.testing.assert_array_equal(many, one)
                np.testing.assert_array_equal(many[static], state[static])
                # a fresh array owning its memory: not a view of the
                # stacked output, not the model's buffer
                assert many.flags.owndata and many.flags.writeable

    def test_two_steps_stacked_equal_two_steps_alone(self, trained_world):
        """Chains at different depths share a forward: window 0 at step
        2 and window 3 at step 1 advance together."""
        _, _, test, norm, model = trained_world
        rollout = RolloutForecaster(model, norm)
        static = test.registry.static_indices
        deep = rollout.advance(rollout.initial_state(test, 0), static)
        shallow = rollout.initial_state(test, 3)
        stacked = rollout.advance_many([deep, shallow], static)
        np.testing.assert_array_equal(stacked[0], rollout.advance(deep, static))
        np.testing.assert_array_equal(stacked[1],
                                      rollout.advance(shallow, static))
        np.testing.assert_array_equal(
            rollout.finalize(stacked[0], test), rollout.forecast(test, 0, 2))


class TestEngineCheckpointExport:
    def test_gathered_state_dict_loads_into_serial(self):
        from repro.cluster import VirtualCluster
        from repro.parallel import HybridParallelPlan, HybridSTOPEngine

        config = OrbitConfig(
            "export-test", embed_dim=16, depth=2, num_heads=2,
            in_vars=3, out_vars=3, img_height=8, img_width=8, patch_size=4,
        )
        cluster = VirtualCluster(num_gpus=4, gpus_per_node=8)
        plan = HybridParallelPlan(cluster, tp_size=2, fsdp_size=2)
        engine = HybridSTOPEngine(build_model(config, rng=77), plan)

        fresh = build_model(config, rng=0)
        fresh.load_state_dict(engine.gathered_state_dict())

        reference = build_model(config, rng=77)
        x = np.random.default_rng(0).normal(size=(1, 3, 8, 8)).astype(np.float32)
        lead = np.array([24.0], np.float32)
        np.testing.assert_allclose(fresh(x, lead), reference(x, lead), rtol=1e-5, atol=1e-6)
