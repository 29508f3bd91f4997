"""Fig 8 — pre-training loss vs observations for the four model sizes.

Paper result (48 channels, global batch 2880, 2.5 epochs): larger
models start with higher loss but are more data-efficient — the 10B
and 113B curves cross below the smaller models after about 2M
observations.

Here the four-point size ladder is the scaled-down proxy family
(DESIGN.md): real training on the synthetic CMIP6 archive, same data
order for every size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.cmip6 import SyntheticCMIP6Archive
from repro.data.grid import LatLonGrid
from repro.data.loader import round_robin_loaders
from repro.data.normalization import Normalizer
from repro.data.variables import default_registry
from repro.experiments.common import format_table
from repro.models import build_model
from repro.models.configs import OrbitConfig, proxy_family
from repro.train import AdamW, Trainer, WarmupCosineSchedule
from repro.utils.seeding import check_seed


@dataclass
class Fig8Result:
    """Per-size pre-training loss histories."""

    histories: dict[str, list[tuple[int, float]]] = field(default_factory=dict)

    def final_smoothed_loss(self, name: str, window: int = 10) -> float:
        losses = [loss for _, loss in self.histories[name][-window:]]
        return float(np.mean(losses))

    def format(self) -> str:
        rows = []
        for name, history in self.histories.items():
            first = float(np.mean([l for _, l in history[:5]]))
            rows.append(
                [name, history[-1][0], f"{first:.3f}", f"{self.final_smoothed_loss(name):.3f}"]
            )
        return format_table(
            ["model", "observations", "initial wMSE", "final wMSE"],
            rows,
            title="Fig 8: pre-training loss by model size",
        )


def default_sizes(num_vars: int, grid: LatLonGrid, patch_size: int) -> dict[str, OrbitConfig]:
    """The proxy ladder adapted to the experiment's grid/channels."""
    family = proxy_family(
        in_vars=num_vars,
        out_vars=num_vars,  # pre-training reconstructs every channel
        img_height=grid.nlat,
        img_width=grid.nlon,
        patch_size=patch_size,
    )
    return family


def run(
    num_steps: int = 80,
    batch_size: int = 4,
    grid: LatLonGrid = LatLonGrid(16, 32),
    num_vars: int = 6,
    patch_size: int = 8,
    years_per_source: float = 0.05,
    lr: float = 2e-3,
    seed: int = 0,
    sizes: dict[str, OrbitConfig] | None = None,
) -> Fig8Result:
    """Pre-train every size on the same CMIP6 batch stream."""
    check_seed(seed)
    registry = default_registry(num_vars)
    archive = SyntheticCMIP6Archive(
        grid, registry, years_per_source=years_per_source, seed=seed
    )
    datasets = archive.datasets()
    normalizer = Normalizer.fit(datasets[0], num_samples=16)
    sizes = sizes or default_sizes(num_vars, grid, patch_size)
    weights = grid.latitude_weights()

    result = Fig8Result()
    for name, config in sizes.items():
        batches = round_robin_loaders(
            datasets,
            batch_size,
            lead_steps_choices=(1,),
            normalizer=normalizer,
            seed=seed,
        )
        model = build_model(config, rng=seed)
        optimizer = AdamW(model.parameters(), lr=lr, weight_decay=0.0)
        schedule = WarmupCosineSchedule(
            lr, warmup_steps=min(5, num_steps - 1), total_steps=num_steps
        )
        trainer = Trainer(model, batches, weights, optimizer, schedule=schedule)
        result.histories[name] = trainer.train(num_steps).history
    return result
