"""Integration tests: the training loop actually learns.

Uses a tiny grid/model so each run stays in the seconds range.
"""

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
from repro.models import OrbitConfig, build_model
from repro.nn import DynamicGradScaler
from repro.nn.precision import BF16_MIXED
from repro.train import AdamW, Finetuner, Trainer, WarmupCosineSchedule

GRID = LatLonGrid(8, 16)
NAMES = ["land_sea_mask", "2m_temperature", "temperature_850", "geopotential_500"]
REG = default_registry(91).subset(NAMES)
CFG = OrbitConfig(
    "tiny-train",
    embed_dim=16,
    depth=1,
    num_heads=2,
    in_vars=len(NAMES),
    out_vars=3,  # dynamic targets
    img_height=8,
    img_width=16,
    patch_size=4,
)
TARGETS = ["2m_temperature", "temperature_850", "geopotential_500"]


@pytest.fixture(scope="module")
def world():
    era5 = SyntheticERA5(GRID, REG, steps_per_year=16, seed=5)
    train = era5.train()
    train.out_names[:] = TARGETS
    train._out_indices[:] = train.system.registry.indices(TARGETS)
    norm = Normalizer.fit(train, num_samples=16)
    return era5, train, norm


def make_trainer(train, norm, seed=0, steps_total=60, scaler=None, precision=None):
    model = build_model(CFG, rng=seed)
    loader = BatchLoader(train, batch_size=4, lead_steps_choices=(1,), normalizer=norm, seed=seed)
    optimizer = AdamW(model.parameters(), lr=2e-3, weight_decay=0.0)
    schedule = WarmupCosineSchedule(2e-3, warmup_steps=5, total_steps=steps_total)
    weights = GRID.latitude_weights()
    trainer = Trainer(
        model, loader.batches(10**6), weights, optimizer,
        schedule=schedule, scaler=scaler, precision=precision,
    )
    return model, trainer


class TestTrainer:
    def test_loss_decreases(self, world):
        _, train, norm = world
        _, trainer = make_trainer(train, norm, seed=1)
        result = trainer.train(50)
        early = np.mean([l for _, l in result.history[:5]])
        late = np.mean([l for _, l in result.history[-5:]])
        assert late < 0.7 * early

    def test_history_counts_observations(self, world):
        _, train, norm = world
        _, trainer = make_trainer(train, norm, seed=2)
        result = trainer.train(3)
        assert [obs for obs, _ in result.history] == [4, 8, 12]

    def test_bf16_training_with_scaler_learns(self, world):
        """Mixed precision + dynamic scaling still converges (Sec III-B)."""
        _, train, norm = world
        scaler = DynamicGradScaler(init_scale=2.0**8, growth_interval=1000)
        _, trainer = make_trainer(train, norm, seed=4, scaler=scaler, precision=BF16_MIXED)
        result = trainer.train(40)
        early = np.mean([l for _, l in result.history[:5]])
        late = np.mean([l for _, l in result.history[-5:]])
        assert late < early
        assert result.skipped_steps < 10

    def test_deterministic_given_seed(self, world):
        _, train, norm = world
        model_a, trainer_a = make_trainer(train, norm, seed=7)
        trainer_a.train(3)
        model_b, trainer_b = make_trainer(train, norm, seed=7)
        trainer_b.train(3)
        for (n, pa), (_, pb) in zip(model_a.named_parameters(), model_b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=n)

    def test_invalid_steps(self, world):
        _, train, norm = world
        _, trainer = make_trainer(train, norm)
        with pytest.raises(ValueError):
            trainer.train(0)


class TestTrainedModelSkill:
    def test_beats_persistence_beyond_one_step(self, world):
        """A trained tiny model out-forecasts persistence on its world.

        At one step persistence is a near-unbeatable baseline on a
        strongly autocorrelated system; the learned model matches it
        there and wins clearly at two steps, where persistence decays.
        """
        era5, train, norm = world
        model, trainer = make_trainer(train, norm, seed=11, steps_total=300)
        trainer.train(300)

        test = era5.test()
        test.out_names[:] = TARGETS
        test._out_indices[:] = test.system.registry.indices(TARGETS)
        clim = Climatology.from_dataset(train, num_samples=64)
        evaluator = ForecastEvaluator(test, clim, num_initializations=4)
        forecaster = ModelForecaster(model, norm)
        model_1 = evaluator.evaluate(forecaster, lead_steps=1).mean_wacc()
        persistence_1 = evaluator.evaluate(PersistenceForecaster(), lead_steps=1).mean_wacc()
        model_2 = evaluator.evaluate(forecaster, lead_steps=2).mean_wacc()
        persistence_2 = evaluator.evaluate(PersistenceForecaster(), lead_steps=2).mean_wacc()
        assert model_1 > persistence_1 - 0.08  # parity at 6 hours
        assert model_2 > persistence_2 + 0.1  # clear win at 12 hours
        assert model_2 > 0.4


class TestFinetuner:
    def _make_finetuner(self, world, seed=0):
        era5, train, norm = world
        model, trainer = make_trainer(train, norm, seed=seed, steps_total=200)
        val = era5.validation()
        val.out_names[:] = TARGETS
        val._out_indices[:] = val.system.registry.indices(TARGETS)
        clim = Climatology.from_dataset(train, num_samples=32)
        evaluator = ForecastEvaluator(val, clim, num_initializations=2)
        return Finetuner(trainer, evaluator, norm, eval_lead_steps=1)

    def test_history_and_samples(self, world):
        tuner = self._make_finetuner(world, seed=13)
        result = tuner.run(max_steps=12, eval_interval=4, patience=100)
        assert len(result.history) == 3
        assert result.history[-1][0] == 48  # samples processed
        assert result.samples_to_converge is not None

    def test_converges_and_stops_early(self, world):
        tuner = self._make_finetuner(world, seed=17)
        result = tuner.run(max_steps=400, eval_interval=10, patience=2, tolerance=0.01)
        assert result.converged
        assert result.history[-1][0] < 400 * 4
        assert result.best_wacc > 0.0

    def test_validation(self, world):
        tuner = self._make_finetuner(world)
        with pytest.raises(ValueError):
            tuner.run(max_steps=0, eval_interval=1)


class TestGradientAccumulation:
    def test_accumulated_update_matches_large_batch(self, world):
        """N micro-steps of batch b == one step of batch N*b (the paper's
        global batch 2880 over micro-batches of 2-3)."""
        _, train, norm = world
        from repro.data import BatchLoader
        from repro.train import AdamW, Trainer

        big_loader = BatchLoader(train, batch_size=8, lead_steps_choices=(1,),
                                 normalizer=norm, seed=31)
        big_batch = big_loader.next_batch()

        class _Replay:
            """Yield fixed batches (slices of one global batch)."""

            def __init__(self, batches):
                self._batches = batches

            def __iter__(self):
                return iter(self._batches)

        from repro.data.loader import Batch
        import numpy as np

        halves = [
            Batch(big_batch.x[:4], big_batch.y[:4], big_batch.lead_time_hours[:4]),
            Batch(big_batch.x[4:], big_batch.y[4:], big_batch.lead_time_hours[4:]),
        ]
        from repro.models import build_model

        model_acc = build_model(CFG, rng=55)
        trainer_acc = Trainer(
            model_acc, _Replay(halves), GRID.latitude_weights(),
            AdamW(model_acc.parameters(), lr=1e-3, weight_decay=0.0),
            accumulation_steps=2,
        )
        trainer_acc.train_step()
        trainer_acc.train_step()

        model_big = build_model(CFG, rng=55)
        trainer_big = Trainer(
            model_big, _Replay([big_batch]), GRID.latitude_weights(),
            AdamW(model_big.parameters(), lr=1e-3, weight_decay=0.0),
        )
        trainer_big.train_step()

        for (name, pa), (_, pb) in zip(
            model_acc.named_parameters(), model_big.named_parameters()
        ):
            # float32 forward/backward: summation-order noise only.
            np.testing.assert_allclose(pa.data, pb.data, rtol=1e-4, atol=1e-7, err_msg=name)

    def test_optimizer_steps_counted_per_update(self, world):
        _, train, norm = world
        _, trainer = make_trainer(train, norm, seed=60)
        trainer.accumulation_steps = 3
        for _ in range(6):
            trainer.train_step()
        assert trainer.step_count == 2

    def test_invalid_accumulation_rejected(self, world):
        _, train, norm = world
        from repro.data import BatchLoader
        from repro.models import build_model
        from repro.train import AdamW, Trainer
        import pytest as _pytest

        model = build_model(CFG, rng=0)
        with _pytest.raises(ValueError):
            Trainer(model, iter([]), GRID.latitude_weights(),
                    AdamW(model.parameters()), accumulation_steps=0)
