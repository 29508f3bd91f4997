"""Batch loading with rank sharding.

Batches are drawn as ``(x, y, lead_time)`` forecast pairs with lead
times sampled from a configurable set (pre-training uses the 6-hour
step; fine-tuning mixes leads up to 30 days, which is how one ORBIT
model serves every forecast horizon).

Sharding follows the hierarchy of paper Fig 4: different DDP replicas
and different FSDP indices see disjoint sample streams
(:class:`ShardSpec`), while tensor-parallel ranks share theirs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import ClimateDataset
from repro.data.normalization import Normalizer
from repro.utils.seeding import SeedSequenceFactory


@dataclass(frozen=True)
class ShardSpec:
    """Which of ``num_shards`` disjoint sample streams this loader draws."""

    rank: int = 0
    num_shards: int = 1

    def __post_init__(self):
        if not 0 <= self.rank < self.num_shards:
            raise ValueError(f"rank {self.rank} outside [0, {self.num_shards})")


@dataclass(frozen=True)
class Batch:
    """One training batch."""

    x: np.ndarray  # (B, C_in, H, W) float32
    y: np.ndarray  # (B, C_out, H, W) float32
    lead_time_hours: np.ndarray  # (B,) float32


class BatchLoader:
    """Random forecast-pair batches from a dataset window."""

    def __init__(
        self,
        dataset: ClimateDataset,
        batch_size: int,
        lead_steps_choices: tuple[int, ...] = (1,),
        shard: ShardSpec = ShardSpec(),
        normalizer: Normalizer | None = None,
        seed: int = 0,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not lead_steps_choices or min(lead_steps_choices) < 1:
            raise ValueError("lead_steps_choices must be positive step counts")
        max_lead = max(lead_steps_choices)
        if dataset.max_input_index(max_lead) < 0:
            raise ValueError("dataset too short for the requested leads")
        self.dataset = dataset
        self.batch_size = batch_size
        self.lead_steps_choices = tuple(lead_steps_choices)
        self.shard = shard
        self.normalizer = normalizer
        self._seeds = SeedSequenceFactory(seed)
        self._batch_counter = 0

    def _rng_for_batch(self, counter: int) -> np.random.Generator:
        return self._seeds.generator("batch", self.shard.rank, counter)

    def next_batch(self) -> Batch:
        """Draw the next batch (deterministic given seed/shard/sequence)."""
        rng = self._rng_for_batch(self._batch_counter)
        self._batch_counter += 1
        xs, ys, leads = [], [], []
        for _ in range(self.batch_size):
            lead = int(rng.choice(self.lead_steps_choices))
            max_index = self.dataset.max_input_index(lead)
            # Disjoint shard streams: stride the index space by shard count.
            index = int(rng.integers(0, max_index // self.shard.num_shards + 1))
            index = min(index * self.shard.num_shards + self.shard.rank, max_index)
            sample = self.dataset.forecast_sample(index, lead)
            x, y = sample.x, sample.y
            if self.normalizer is not None:
                x = self.normalizer.normalize(x)
                y = self.normalizer.normalize(y, names=self.dataset.out_names)
            xs.append(x)
            ys.append(y)
            leads.append(sample.lead_time_hours)
        return Batch(
            x=np.stack(xs).astype(np.float32),
            y=np.stack(ys).astype(np.float32),
            lead_time_hours=np.asarray(leads, dtype=np.float32),
        )

    def batches(self, num_batches: int):
        """Yield ``num_batches`` consecutive batches."""
        for _ in range(num_batches):
            yield self.next_batch()

    def reset(self) -> None:
        """Restart the deterministic batch sequence."""
        self._batch_counter = 0


class RoundRobinBatches:
    """Endless batch stream cycling over multiple loaders."""

    def __init__(self, loaders: list[BatchLoader]):
        if not loaders:
            raise ValueError("need at least one loader")
        self.loaders = list(loaders)
        self._index = 0

    def __iter__(self):
        return self

    def __next__(self) -> Batch:
        loader = self.loaders[self._index % len(self.loaders)]
        self._index += 1
        return loader.next_batch()


def round_robin_loaders(
    datasets: list[ClimateDataset],
    batch_size: int,
    **kwargs,
) -> RoundRobinBatches:
    """Cycle pre-training batches over multiple sources (CMIP6 style)."""
    if not datasets:
        raise ValueError("need at least one dataset")
    seed = kwargs.pop("seed", 0)
    return RoundRobinBatches([
        BatchLoader(ds, batch_size, seed=seed + i, **kwargs)
        for i, ds in enumerate(datasets)
    ])
