"""Seeded open-loop load generation with hot synoptic windows.

Open-loop means arrivals do not wait for completions: inter-arrival
gaps are exponential at ``rate_rps`` (a Poisson process), so offered
load is independent of how the server is doing — the honest way to
measure latency under overload (closed-loop generators self-throttle
and hide queueing collapse).

Real forecast traffic is *not* uniform over initializations: most
users ask about the current synoptic window, a few about recent ones.
``hot_fraction`` of requests hit a small set of ``num_hot`` windows;
the rest spread over the whole index range.  The hot set is what makes
the rollout prefix cache earn its keep.

Everything is driven by one seeded ``numpy`` generator, so a
:class:`LoadSpec` is a complete, replayable description of a workload:
same spec → byte-identical request stream → byte-identical journals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.serve.request import ForecastRequest


@dataclass(frozen=True)
class LoadSpec:
    """A replayable workload description."""

    rate_rps: float = 50.0
    duration_s: float = 4.0
    seed: int = 0
    #: Initialization indices are drawn from ``[0, num_windows)``.
    num_windows: int = 64
    #: ``hot_fraction`` of requests target the first ``num_hot`` windows.
    num_hot: int = 4
    hot_fraction: float = 0.8
    #: Lead times (in base steps) drawn uniformly per request.
    lead_choices: tuple[int, ...] = (2, 4, 8)
    #: Variable sets drawn uniformly per request (batch classes).
    var_choices: tuple[tuple[str, ...], ...] = (
        ("2m_temperature",),
        ("2m_temperature", "geopotential_500"),
    )

    def __post_init__(self):
        # An infinite rate draws zero gaps and never reaches the duration.
        for name in ("rate_rps", "duration_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} {value} must be finite")
            if value <= 0:
                raise ValueError(f"{name} {value} must be > 0")
        if self.num_windows < 1:
            raise ValueError(f"num_windows {self.num_windows} must be >= 1")
        if not 0 < self.num_hot <= self.num_windows:
            raise ValueError(
                f"num_hot {self.num_hot} must be in [1, {self.num_windows}]"
            )
        if not 0 <= self.hot_fraction <= 1:
            raise ValueError(f"hot_fraction {self.hot_fraction} must be in [0, 1]")
        if not self.lead_choices:
            raise ValueError("lead_choices must not be empty")
        if any(lead < 1 for lead in self.lead_choices):
            raise ValueError(f"lead_choices {self.lead_choices} must all be >= 1")
        if not self.var_choices or any(not v for v in self.var_choices):
            raise ValueError("var_choices must hold non-empty variable tuples")

    def as_dict(self) -> dict:
        return {
            "rate_rps": self.rate_rps,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "num_windows": self.num_windows,
            "num_hot": self.num_hot,
            "hot_fraction": self.hot_fraction,
            "lead_choices": list(self.lead_choices),
            "var_choices": [list(v) for v in self.var_choices],
        }


def generate_requests(spec: LoadSpec) -> list[ForecastRequest]:
    """Materialize the workload: one seeded pass, arrival-ordered."""
    rng = np.random.default_rng(spec.seed)
    requests: list[ForecastRequest] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / spec.rate_rps))
        if t >= spec.duration_s:
            break
        if float(rng.random()) < spec.hot_fraction:
            init_index = int(rng.integers(0, spec.num_hot))
        else:
            init_index = int(rng.integers(0, spec.num_windows))
        lead = int(spec.lead_choices[int(rng.integers(0, len(spec.lead_choices)))])
        out_vars = spec.var_choices[int(rng.integers(0, len(spec.var_choices)))]
        requests.append(
            ForecastRequest(
                request_id=len(requests),
                init_index=init_index,
                lead_steps=lead,
                out_vars=tuple(out_vars),
                arrival_s=t,
            )
        )
    return requests
