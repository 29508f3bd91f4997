"""ORBIT / ClimaX vision-transformer models and size presets."""

from repro.models.climax_vit import ClimaXViT, build_model
from repro.models.configs import (
    ORBIT_113B,
    ORBIT_10B,
    ORBIT_115M,
    ORBIT_1B,
    PAPER_MODELS,
    PROXY_MODELS,
    OrbitConfig,
    proxy_family,
)
from repro.models.flops import count_parameters, parameter_breakdown
from repro.models.heads import PredictionHead

__all__ = [
    "ClimaXViT",
    "ORBIT_113B",
    "ORBIT_10B",
    "ORBIT_115M",
    "ORBIT_1B",
    "OrbitConfig",
    "PAPER_MODELS",
    "PROXY_MODELS",
    "PredictionHead",
    "build_model",
    "count_parameters",
    "parameter_breakdown",
    "proxy_family",
]
