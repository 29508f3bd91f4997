"""Scaling metrics (paper Sec IV, "Performance Metrics")."""

from __future__ import annotations


def scaling_efficiency(
    baseline_gpus: int,
    baseline_time_per_obs: float,
    gpus: int,
    time_per_obs: float,
) -> float:
    """Strong scaling efficiency relative to a baseline GPU count.

    Defined as the achieved speedup of epoch time divided by the ideal
    speedup (the GPU-count ratio); the paper uses the 512-GPU run as
    the 100% baseline.
    """
    if min(baseline_gpus, gpus) < 1 or min(baseline_time_per_obs, time_per_obs) <= 0:
        raise ValueError("GPU counts and times must be positive")
    speedup = baseline_time_per_obs / time_per_obs
    ideal = gpus / baseline_gpus
    return speedup / ideal


def epoch_hours(time_per_obs_s: float, observations: int = 1_200_000) -> float:
    """Wall-clock hours for one pre-training epoch (1.2M points by default)."""
    if time_per_obs_s <= 0 or observations < 1:
        raise ValueError("time per observation and observation count must be positive")
    return time_per_obs_s * observations / 3600.0
