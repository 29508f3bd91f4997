"""Fine-tuning with convergence detection (Figs 9 and 10).

The paper fine-tunes pre-trained ORBIT models on ERA5, predicting all
four target variables as a single task, and (for Fig 10) counts how
many samples each model size needs before the validation wACC
converges for the 30-day task.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.eval.baselines import ModelForecaster
from repro.eval.forecast import ForecastEvaluator
from repro.train.trainer import Trainer


@dataclass
class FinetuneResult:
    """Outcome of a fine-tuning run."""

    #: (samples processed, validation mean wACC) per evaluation.
    history: list[tuple[int, float]] = field(default_factory=list)
    samples_to_converge: int | None = None
    converged: bool = False

    @property
    def best_wacc(self) -> float:
        return max((w for _, w in self.history), default=float("-inf"))


class Finetuner:
    """Fine-tune a model, stopping when validation wACC converges.

    Parameters
    ----------
    trainer:
        A configured :class:`~repro.train.trainer.Trainer` over the
        fine-tuning loader.
    evaluator:
        Validation :class:`~repro.eval.forecast.ForecastEvaluator`.
    normalizer:
        Used to wrap the model as a physical-space forecaster.
    eval_lead_steps:
        Lead used for the convergence metric (the paper uses the
        30-day task for Fig 10).
    """

    def __init__(
        self,
        trainer: Trainer,
        evaluator: ForecastEvaluator,
        normalizer,
        eval_lead_steps: int,
        model_name: str = "orbit",
    ):
        self.trainer = trainer
        self.evaluator = evaluator
        self.forecaster = ModelForecaster(trainer.model, normalizer, name=model_name)
        self.eval_lead_steps = eval_lead_steps

    def validation_wacc(self) -> float:
        """Mean wACC over target variables at the convergence lead."""
        scores = self.evaluator.evaluate(self.forecaster, self.eval_lead_steps)
        return scores.mean_wacc()

    def run(
        self,
        max_steps: int,
        eval_interval: int,
        patience: int = 2,
        tolerance: float = 0.005,
    ) -> FinetuneResult:
        """Train until wACC stops improving (or ``max_steps``).

        Convergence: ``patience`` consecutive evaluations without an
        improvement larger than ``tolerance`` over the best seen.
        """
        if max_steps < 1 or eval_interval < 1:
            raise ValueError("max_steps and eval_interval must be positive")
        from repro.runtime.steploop import StepHooks

        result = FinetuneResult()
        state = {"best": float("-inf"), "stale": 0}

        def evaluate(loop, event):
            if loop.step % eval_interval and loop.step < max_steps:
                return
            wacc = self.validation_wacc()
            result.history.append((event.observations_seen, wacc))
            if wacc > state["best"] + tolerance:
                state["best"] = wacc
                state["stale"] = 0
                result.samples_to_converge = event.observations_seen
            else:
                state["stale"] += 1
                if state["stale"] >= patience:
                    result.converged = True
                    loop.request_stop()

        loop = self.trainer.step_loop(hooks=StepHooks(on_step_end=evaluate))
        loop.run(max_steps)
        if result.samples_to_converge is None:
            result.samples_to_converge = loop.observations_seen
        return result
