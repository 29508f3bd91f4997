"""Async forecast serving over the fine-tuned model (the user-facing
end of the ORBIT north star).

The stack, bottom to top:

* :mod:`repro.serve.clock` — deterministic simulated-clock event loop;
* :mod:`repro.serve.request` — typed requests/responses, latency window;
* :mod:`repro.serve.policy` — the validated serving-policy record;
* :mod:`repro.serve.batcher` — dynamic micro-batching to a latency budget;
* :mod:`repro.serve.cache` — rollout prefix cache (one chain, all leads);
* :mod:`repro.serve.replica` — replica pool and the service cost model;
* :mod:`repro.serve.autoscale` — queue/p99/utilization-driven scaling;
* :mod:`repro.serve.loadgen` — seeded open-loop Poisson workloads;
* :mod:`repro.serve.server` — the front-end tying it all together;
* :mod:`repro.serve.bench` — the ``BENCH_serve.json`` latency bench.

Invariants: served forecasts are bitwise-equal to direct
:meth:`~repro.eval.rollout.RolloutForecaster.forecast` results, and
identical seeded workloads produce byte-identical serve journals.
"""

from repro.serve.autoscale import Autoscaler, ScaleDecision
from repro.serve.batcher import Batch, MicroBatcher
from repro.serve.cache import RolloutPrefixCache
from repro.serve.clock import EventLoop, SimClock
from repro.serve.loadgen import LoadSpec, generate_requests
from repro.serve.policy import ServePolicy
from repro.serve.replica import Replica, ReplicaPool, ServiceCostModel
from repro.serve.request import (
    STATUS_OK,
    STATUS_REJECTED,
    ForecastRequest,
    ForecastResponse,
    LatencyWindow,
    RequestError,
)
from repro.serve.server import ForecastServer, ServeReport

__all__ = [
    "Autoscaler",
    "Batch",
    "EventLoop",
    "ForecastRequest",
    "ForecastResponse",
    "ForecastServer",
    "LatencyWindow",
    "LoadSpec",
    "MicroBatcher",
    "Replica",
    "ReplicaPool",
    "RequestError",
    "RolloutPrefixCache",
    "STATUS_OK",
    "STATUS_REJECTED",
    "ScaleDecision",
    "ServePolicy",
    "ServeReport",
    "ServiceCostModel",
    "SimClock",
    "generate_requests",
]
