"""Latitude-weighted mean squared error (the paper's pre-training loss)."""

from __future__ import annotations

import numpy as np

from repro.nn.ops import kernel


def latitude_weighted_mse(
    prediction: np.ndarray,
    target: np.ndarray,
    lat_weights: np.ndarray,
) -> tuple[float, np.ndarray]:
    """wMSE over ``(B, C, H, W)`` fields, plus its gradient.

    The latitude weights (shape broadcastable to ``(H, W)``, unit mean)
    correct the equal-area bias of the lat-lon grid toward the poles
    (paper Sec IV, "Performance Metrics").

    Returns ``(loss, grad)`` where ``grad`` is d(loss)/d(prediction),
    computed as one taped kernel.
    """
    if prediction.shape != target.shape:
        raise ValueError(f"shape mismatch: {prediction.shape} vs {target.shape}")
    if prediction.ndim != 4:
        raise ValueError(f"expected (B, C, H, W), got {prediction.shape}")
    return kernel(_wmse, prediction, target, lat_weights)


def _wmse(prediction, target, lat_weights) -> tuple[float, np.ndarray]:
    weights = np.broadcast_to(lat_weights, prediction.shape[-2:])
    diff = prediction.astype(np.float64) - target.astype(np.float64)
    weighted_sq = weights * diff**2
    # ``diff`` is float64, so the gradient already is.
    return float(weighted_sq.mean()), 2.0 * weights * diff / diff.size
