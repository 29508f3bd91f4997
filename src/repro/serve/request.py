"""Typed forecast requests and responses.

A :class:`ForecastRequest` is what one simulated user asks for: "from
the synoptic window at ``init_index``, give me these variables at this
lead".  Requests carrying the same variable set are batch-compatible —
they share a model invocation grid — and requests for the same
``init_index`` share an autoregressive rollout prefix regardless of
lead (see :mod:`repro.serve.cache`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from repro.obs.metrics import nearest_rank


class RequestError(ValueError):
    """An invalid forecast request (the CLI maps this to exit 2)."""


#: Response terminal states.
STATUS_OK = "ok"
STATUS_REJECTED = "rejected"


@dataclass(frozen=True)
class ForecastRequest:
    """One user's forecast ask, stamped with its open-loop arrival time."""

    request_id: int
    init_index: int
    lead_steps: int
    out_vars: tuple[str, ...]
    arrival_s: float

    def __post_init__(self):
        for name in ("request_id", "init_index", "lead_steps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise RequestError(f"{name} {value!r} must be an integer")
        if self.init_index < 0:
            raise RequestError(f"init_index {self.init_index} must be >= 0")
        if self.lead_steps < 1:
            raise RequestError(f"lead_steps {self.lead_steps} must be >= 1")
        if not self.out_vars:
            raise RequestError("out_vars must name at least one variable")
        if not (math.isfinite(self.arrival_s) and self.arrival_s >= 0):
            raise RequestError(f"arrival_s {self.arrival_s} must be finite and >= 0")
        object.__setattr__(self, "out_vars", tuple(self.out_vars))

    @property
    def batch_key(self) -> tuple:
        """Micro-batching compatibility class: same variables share a
        model output grid, so they can ride one dispatch."""
        return self.out_vars


@dataclass
class ForecastResponse:
    """What came back: the forecast array plus the latency decomposition."""

    request: ForecastRequest
    status: str
    completed_s: float
    result: np.ndarray | None = None
    dispatched_s: float = 0.0
    batch_id: int = -1
    replica: int = -1
    cache_hit: bool = False
    #: Autoregressive model applications this request newly paid for
    #: (0 on a full prefix-cache hit).
    model_steps: int = 0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def latency_s(self) -> float:
        """Arrival-to-completion latency on the simulated clock."""
        return self.completed_s - self.request.arrival_s

    def as_dict(self) -> dict:
        """JSON-able summary (the array stays out of artifacts)."""
        return {
            "request_id": self.request.request_id,
            "init_index": self.request.init_index,
            "lead_steps": self.request.lead_steps,
            "out_vars": list(self.request.out_vars),
            "status": self.status,
            "arrival_s": self.request.arrival_s,
            "completed_s": self.completed_s,
            "latency_s": self.latency_s,
            "batch_id": self.batch_id,
            "replica": self.replica,
            "cache_hit": self.cache_hit,
            "model_steps": self.model_steps,
        }


@dataclass
class LatencyWindow:
    """Sliding window of recent latencies for autoscaling decisions.

    Nearest-rank percentiles over the last ``capacity`` completions —
    small, deterministic, and recency-weighted the way a scaler needs
    (a p99 over the whole run would never come back down after a
    transient spike).
    """

    capacity: int = 128
    values: list[float] = field(default_factory=list)

    def observe(self, latency_s: float) -> None:
        self.values.append(float(latency_s))
        if len(self.values) > self.capacity:
            del self.values[: len(self.values) - self.capacity]

    def percentile(self, q: float) -> float:
        return nearest_rank(sorted(self.values), q) if self.values else 0.0
