"""Fig 10 — fine-tuning data efficiency vs model size.

Paper result (30-day task): samples to convergence fall with size —
about 76,000 for 115M, 47,000 for 1B, 32,800 for 10B (a 38% / 57%
reduction relative to the smallest model).

Reproduction: three proxy sizes are pre-trained identically on the
synthetic CMIP6 archive, then fine-tuned on synthetic ERA5 with the
convergence detector of :class:`~repro.train.finetune.Finetuner`; the
recorded quantity is the number of ERA5 samples processed until the
validation wACC for the 30-day task stops improving.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.data.climatology import Climatology
from repro.data.cmip6 import SyntheticCMIP6Archive
from repro.data.era5 import SyntheticERA5
from repro.data.grid import LatLonGrid
from repro.data.loader import BatchLoader, round_robin_loaders
from repro.data.normalization import Normalizer
from repro.data.variables import default_registry
from repro.eval.forecast import ForecastEvaluator
from repro.experiments.common import format_table
from repro.experiments.fig9_wacc import ATMOSPHERIC_SPEC, DEFAULT_NAMES, LEAD_STEPS, _tiny_config
from repro.models import build_model
from repro.models.configs import OrbitConfig
from repro.train import AdamW, Finetuner, Trainer, WarmupCosineSchedule
from repro.utils.seeding import check_seed

PAPER_SAMPLES = {"orbit-115m": 76_000, "orbit-1b": 47_000, "orbit-10b": 32_800}


@dataclass
class Fig10Result:
    """Samples to convergence per model size (ascending size order)."""

    samples: dict[str, int] = field(default_factory=dict)
    best_wacc: dict[str, float] = field(default_factory=dict)

    def reductions(self) -> dict[str, float]:
        """Relative sample reduction vs the smallest model."""
        names = list(self.samples)
        base = self.samples[names[0]]
        return {n: 1.0 - self.samples[n] / base for n in names}

    def format(self) -> str:
        reductions = self.reductions()
        rows = [
            [name, self.samples[name], f"{self.best_wacc[name]:.3f}", f"{reductions[name]:.0%}"]
            for name in self.samples
        ]
        return format_table(
            ["model", "samples to converge", "best wACC", "reduction vs smallest"],
            rows,
            title="Fig 10: fine-tuning data efficiency (30-day task)",
        )


def default_size_ladder(num_vars: int, grid: LatLonGrid) -> dict[str, OrbitConfig]:
    """Three sizes mirroring 115M / 1B / 10B at workstation scale."""
    base = _tiny_config(num_vars, grid, qk_layernorm=True, name="size")
    return {
        "proxy-115m": dataclasses.replace(base, name="proxy-115m", embed_dim=16, depth=1,
                                          num_heads=2),
        "proxy-1b": dataclasses.replace(base, name="proxy-1b", embed_dim=32, depth=2,
                                        num_heads=4),
        "proxy-10b": dataclasses.replace(base, name="proxy-10b", embed_dim=64, depth=2,
                                         num_heads=4),
    }


def run(
    grid: LatLonGrid = LatLonGrid(16, 32),
    names: list[str] | None = None,
    pretrain_steps: int = 200,
    max_finetune_steps: int = 500,
    eval_interval: int = 10,
    batch_size: int = 4,
    steps_per_year: int = 240,
    patience: int = 3,
    tolerance: float = 0.01,
    lr: float = 3e-3,
    seed: int = 0,
    sizes: dict[str, OrbitConfig] | None = None,
) -> Fig10Result:
    """Fine-tune the size ladder to convergence on the 30-day task."""
    check_seed(seed)
    names = names or DEFAULT_NAMES
    registry = default_registry(91).subset(names)
    era5 = SyntheticERA5(
        grid, registry, steps_per_year=steps_per_year, seed=seed + 1979,
        spec=ATMOSPHERIC_SPEC,
    )
    train, val = era5.train(), era5.validation()
    normalizer = Normalizer.fit(train, num_samples=24)
    climatology = Climatology.from_dataset(train, num_samples=64)
    evaluator = ForecastEvaluator(val, climatology, num_initializations=2)
    archive = SyntheticCMIP6Archive(
        grid, registry, years_per_source=0.1, seed=seed + 6, spec=ATMOSPHERIC_SPEC,
    )
    sizes = sizes or default_size_ladder(len(registry), grid)

    result = Fig10Result()
    for name, config in sizes.items():
        # Identical pre-training recipe per size.
        pre_config = dataclasses.replace(config, out_vars=len(registry))
        model = build_model(pre_config, rng=seed)
        pre_batches = round_robin_loaders(
            archive.datasets(), batch_size, lead_steps_choices=(1,),
            normalizer=normalizer, seed=seed,
        )
        optimizer = AdamW(model.parameters(), lr=lr, weight_decay=0.0)
        schedule = WarmupCosineSchedule(
            lr, warmup_steps=min(5, pretrain_steps - 1), total_steps=pretrain_steps
        )
        Trainer(model, pre_batches, grid.latitude_weights(), optimizer,
                schedule=schedule).train(pretrain_steps)

        finetuned = build_model(config, rng=seed + 1)
        state = finetuned.state_dict()
        for key, value in model.state_dict().items():
            if key in state and state[key].shape == value.shape:
                state[key] = value
        finetuned.load_state_dict(state)

        loader = BatchLoader(
            train, batch_size, lead_steps_choices=(LEAD_STEPS[30],),
            normalizer=normalizer, seed=seed + 2,
        )
        ft_optimizer = AdamW(finetuned.parameters(), lr=lr, weight_decay=0.0)
        trainer = Trainer(
            finetuned, loader.batches(10**9), grid.latitude_weights(), ft_optimizer
        )
        tuner = Finetuner(trainer, evaluator, normalizer, eval_lead_steps=LEAD_STEPS[30],
                          model_name=name)
        outcome = tuner.run(
            max_steps=max_finetune_steps,
            eval_interval=eval_interval,
            patience=patience,
            tolerance=tolerance,
        )
        result.samples[name] = outcome.samples_to_converge
        result.best_wacc[name] = outcome.best_wacc
    return result
