"""StepLoop: hooks, budgets, early stop, and resume bookkeeping."""

import pytest

from repro.runtime import StepHooks, StepLoop


def counting_step(losses):
    history = iter(losses)

    def step_fn(step):
        return next(history), 4

    return step_fn


class TestDriving:
    def test_runs_the_budget_and_accumulates_history(self):
        loop = StepLoop(counting_step([1.0, 0.5, 0.25]))
        result = loop.run(3)
        assert result.history == [(4, 1.0), (8, 0.5), (12, 0.25)]
        assert loop.step == 3

    def test_consecutive_runs_continue_the_trajectory(self):
        loop = StepLoop(counting_step([1.0, 0.5, 0.25]))
        loop.run(1)
        result = loop.run(2)
        assert result.history == [(4, 1.0), (8, 0.5), (12, 0.25)]

    def test_non_positive_budget_raises(self):
        with pytest.raises(ValueError):
            StepLoop(counting_step([1.0])).run(0)

    def test_resume_state_continues_numbering(self):
        loop = StepLoop(counting_step([0.5]), start_step=7,
                        observations_seen=28, history=[(28, 1.0)])
        result = loop.run(1)
        assert loop.step == 8
        assert result.history == [(28, 1.0), (32, 0.5)]


class TestHooks:
    def test_hook_order_and_payload(self):
        events = []
        hooks = StepHooks(
            on_step_start=lambda loop, step: events.append(("start", step)),
            on_step_end=lambda loop, ev: events.append(("end", ev.step, ev.loss)),
        )
        StepLoop(counting_step([2.0]), hooks=hooks).run(1)
        assert events == [("start", 0), ("end", 0, 2.0)]

    def test_multiple_hooks_all_fire(self):
        seen = []
        mk = lambda tag: StepHooks(on_step_end=lambda loop, ev: seen.append(tag))
        StepLoop(counting_step([1.0]), hooks=[mk("a"), mk("b")]).run(1)
        assert seen == ["a", "b"]

    def test_request_stop_ends_the_run_early(self):
        hooks = StepHooks(on_step_end=lambda loop, ev: loop.request_stop())
        loop = StepLoop(counting_step([1.0, 2.0, 3.0]), hooks=hooks)
        result = loop.run(3)
        assert len(result.history) == 1


class TestTrainerIntegration:
    def test_serial_trainer_routes_through_steploop(self):
        """Trainer.train is StepLoop-driven: hooks attached via
        step_loop() observe exactly the steps train() would run."""
        import numpy as np

        from repro.models import build_model
        from repro.models.configs import OrbitConfig
        from repro.train import AdamW, Trainer
        from tests.runtime.test_session import TINY

        rng = np.random.default_rng(0)

        def batches():
            from repro.data.loader import Batch

            while True:
                yield Batch(
                    x=rng.normal(size=(2, 3, 8, 8)).astype(np.float32),
                    y=rng.normal(size=(2, 2, 8, 8)).astype(np.float32),
                    lead_time_hours=np.full((2,), 6.0, dtype=np.float32),
                )

        model = build_model(TINY, rng=0)
        trainer = Trainer(model, batches(), np.ones((8, 1)),
                          AdamW(model.parameters(), lr=1e-3))
        seen = []
        loop = trainer.step_loop(
            hooks=StepHooks(on_step_end=lambda loop, ev: seen.append(ev.step))
        )
        result = loop.run(3)
        assert seen == [0, 1, 2]
        assert len(result.history) == 3
