"""Training: optimizers, schedules, the wMSE loss, and trainers."""

from repro.train.distributed import DistributedTrainer
from repro.train.finetune import FinetuneResult, Finetuner
from repro.train.loss import latitude_weighted_mse
from repro.train.optimizer import AdamW, sharded_views
from repro.train.schedule import WarmupCosineSchedule
from repro.train.trainer import PretrainResult, Trainer

__all__ = [
    "AdamW",
    "DistributedTrainer",
    "FinetuneResult",
    "Finetuner",
    "PretrainResult",
    "Trainer",
    "WarmupCosineSchedule",
    "latitude_weighted_mse",
    "sharded_views",
]
