"""The async forecast front-end: queue → batcher → replicas, on one loop.

:class:`ForecastServer` wires the serving pieces together over the
deterministic event loop:

* arrivals pass **admission control** (reject beyond ``queue_limit``)
  and enter the :class:`~repro.serve.batcher.MicroBatcher`;
* flushed batches queue in arrival order and are dispatched to the
  lowest-id idle replica (deterministic tie-break);
* dispatch hands the whole micro-batch to the rollout prefix cache in
  **one call** (:meth:`~repro.serve.cache.RolloutPrefixCache.
  forecast_batch`: plan, stacked execute, finalize), so the batch the
  cost model prices as one invocation also *runs* as one — its windows
  advance together through one model forward per step.  The arrays
  handed back are bitwise-equal to direct
  :meth:`~repro.eval.rollout.RolloutForecaster.forecast` results, and
  each response's ``model_steps`` / ``cache_hit`` are what serving its
  batch one request at a time would report; the replica is occupied
  for the modeled service time;
* completions stamp latencies, feed the autoscaler's sliding window,
  and pull more batches;
* a fixed-cadence autoscaler tick reads queue depth / p99 /
  utilization and resizes the pool.

Everything observable — spans, metrics, journal events — derives from
seeded simulation state, so two runs of the same workload produce
byte-identical journals (asserted in ``tests/serve/test_server.py``).
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass, field

from repro.obs.journal import EventJournal
from repro.obs.metrics import MetricsRegistry, nearest_rank
from repro.obs.off import OFF
from repro.serve.autoscale import Autoscaler, ScaleDecision
from repro.serve.batcher import Batch, MicroBatcher
from repro.serve.cache import RolloutPrefixCache
from repro.serve.clock import EventLoop
from repro.serve.policy import ServePolicy
from repro.serve.replica import ReplicaPool, ServiceCostModel
from repro.serve.request import (
    STATUS_OK,
    STATUS_REJECTED,
    ForecastRequest,
    ForecastResponse,
    LatencyWindow,
    RequestError,
)
from repro.utils.artifacts import CANONICAL_JSON


@dataclass
class ServeReport:
    """Everything one serve run produced, for benches and artifacts."""

    policy: ServePolicy
    responses: list[ForecastResponse] = field(default_factory=list)
    decisions: list[ScaleDecision] = field(default_factory=list)
    cache_stats: dict = field(default_factory=dict)
    replicas_final: int = 0
    replicas_peak: int = 0
    utilization: float = 0.0
    makespan_s: float = 0.0
    events_fired: int = 0

    @property
    def completed(self) -> list[ForecastResponse]:
        return [r for r in self.responses if r.ok]

    @property
    def rejected(self) -> list[ForecastResponse]:
        return [r for r in self.responses if r.status == STATUS_REJECTED]

    def latencies(self) -> list[float]:
        return [r.latency_s for r in self.completed]

    def stats(self) -> dict:
        """The bench-facing scalar summary."""
        latencies = sorted(self.latencies())

        def pct(q: float) -> float:
            return nearest_rank(latencies, q) if latencies else 0.0

        completed = len(latencies)
        return {
            "offered": len(self.responses),
            "completed": completed,
            "rejected": len(self.rejected),
            "throughput_rps": completed / self.makespan_s if self.makespan_s else 0.0,
            "latency_p50_s": pct(50),
            "latency_p99_s": pct(99),
            "latency_mean_s": sum(latencies) / completed if completed else 0.0,
            "cache_hit_ratio": self.cache_stats.get("hit_ratio", 0.0),
            "model_steps": self.cache_stats.get("steps_computed", 0),
            "replicas_final": self.replicas_final,
            "replicas_peak": self.replicas_peak,
            "utilization": self.utilization,
            "makespan_s": self.makespan_s,
        }

    def latency_histogram(self, bins: int = 20) -> dict:
        """Fixed-bin latency histogram for the CI artifact."""
        latencies = self.latencies()
        if not latencies:
            return {"bins": [], "counts": [], "unit": "s"}
        low, high = min(latencies), max(latencies)
        if high <= low:
            high = low + 1e-9
        edges = [low + (high - low) * i / bins for i in range(bins + 1)]
        counts = [0] * bins
        for value in latencies:
            slot = min(int((value - low) / (high - low) * bins), bins - 1)
            counts[slot] += 1
        return {"bins": edges, "counts": counts, "unit": "s"}

    def histogram_json(self, bins: int = 20) -> str:
        """Canonical JSON encoding of :meth:`latency_histogram`."""
        return json.dumps(self.latency_histogram(bins), **CANONICAL_JSON) + "\n"


class ForecastServer:
    """Serve forecast requests from one fine-tuned model, deterministically.

    Parameters
    ----------
    forecaster:
        A :class:`~repro.eval.rollout.RolloutForecaster` over the
        served model.
    dataset:
        The dataset supplying initial conditions (synoptic windows).
    policy:
        Queue/batch/cache/scaling knobs (:class:`ServePolicy`).
    cost_model, tracer, journal, metrics:
        Optional; defaults are a stock cost model and null/fresh
        observability objects.
    """

    def __init__(
        self,
        forecaster,
        dataset,
        policy: ServePolicy | None = None,
        *,
        cost_model: ServiceCostModel | None = None,
        tracer=OFF,
        journal: EventJournal | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.forecaster = forecaster
        self.dataset = dataset
        self.policy = policy or ServePolicy()
        self.cost_model = cost_model or ServiceCostModel()
        self.tracer = tracer
        self.journal = journal if journal is not None else EventJournal()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

        self.loop = EventLoop()
        self.cache = RolloutPrefixCache(self.policy.cache_entries)
        self.pool = ReplicaPool(self.cost_model, initial=self.policy.min_replicas)
        self.autoscaler = Autoscaler(self.policy)
        self.batcher = MicroBatcher(
            self.loop,
            self._on_batch,
            max_batch=self.policy.max_batch,
            window_s=self.policy.batch_window_s,
        )
        self.latency_window = LatencyWindow()
        self._ready: deque[Batch] = deque()
        self._ready_requests = 0  # sum of batch sizes in ``_ready``
        self._responses: list[ForecastResponse] = []
        self._outstanding = 0
        self._arrivals_remaining = 0
        self._replicas_peak = len(self.pool)

    # -- queue state ---------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Admitted requests not yet dispatched (batcher + ready batches)."""
        return self.batcher.waiting + self._ready_requests

    # -- the run -------------------------------------------------------------
    def serve(self, requests: list[ForecastRequest]) -> ServeReport:
        """Run the full workload to completion; one call per server.  Two
        requests sharing a ``request_id`` (their responses could not be
        told apart) raise :class:`RequestError` before anything runs."""
        ids = Counter(request.request_id for request in requests)
        repeated = [request_id for request_id, n in ids.items() if n > 1]
        if repeated:
            raise RequestError(f"request {repeated[0]}: duplicate request_id")
        self._arrivals_remaining = len(requests)
        # the forecaster outlives this server: publish this run's share
        tape_before = self.forecaster.infer.counts()
        self.journal.append(
            0, "serve", category="start",
            message=f"serving {len(requests)} requests",
        )
        for request in requests:
            self.loop.schedule(request.arrival_s, self._arrive, request)
        if requests:
            self.loop.schedule(self.policy.autoscale_tick_s, self._autoscale_tick)
        self.loop.run_until_idle()
        self.batcher.flush_all()  # safety net; windows should have fired
        self.loop.run_until_idle()

        makespan = max((r.completed_s for r in self._responses), default=0.0)
        self.journal.append(
            len(self._responses), "serve", category="end",
            message=(
                f"served {len(self._responses)} responses in "
                f"{makespan:.4f}s simulated"
            ),
            data={"makespan_s": makespan},
        )
        self.metrics.gauge("serve.replicas").set(len(self.pool))
        for name, count in self.forecaster.infer.counts().items():
            self.metrics.counter(f"serve.tape_{name}").inc(count - tape_before[name])
        report = ServeReport(
            policy=self.policy,
            responses=sorted(self._responses, key=lambda r: r.request.request_id),
            decisions=list(self.autoscaler.decisions),
            cache_stats=self.cache.stats(),
            replicas_final=len(self.pool),
            replicas_peak=self._replicas_peak,
            utilization=self.pool.utilization(makespan) if makespan else 0.0,
            makespan_s=makespan,
            events_fired=self.loop.fired,
        )
        return report

    # -- event handlers ------------------------------------------------------
    def _arrive(self, request: ForecastRequest) -> None:
        self._arrivals_remaining -= 1
        self.metrics.counter("serve.requests").inc()
        if self.queue_depth >= self.policy.queue_limit:
            response = ForecastResponse(
                request=request,
                status=STATUS_REJECTED,
                completed_s=self.loop.now,
                detail=f"queue at limit {self.policy.queue_limit}",
            )
            self._responses.append(response)
            self.metrics.counter("serve.rejected").inc()
            self.journal.append(
                request.request_id, "serve", category="reject",
                severity="warning",
                message=f"request {request.request_id} rejected: queue full",
                data={"queue_depth": self.queue_depth},
            )
            return
        self._outstanding += 1
        self.batcher.add(request)
        self.metrics.gauge("serve.queue_depth").max(self.queue_depth)

    def _on_batch(self, batch: Batch) -> None:
        self._ready.append(batch)
        self._ready_requests += batch.size
        self.metrics.histogram("serve.batch_size").observe(batch.size)
        self._drain()

    def _drain(self) -> None:
        while self._ready:
            replica = self.pool.acquire_idle(self.loop.now)
            if replica is None:
                return
            batch = self._ready.popleft()
            self._ready_requests -= batch.size
            self._dispatch(batch, replica)

    def _dispatch(self, batch: Batch, replica) -> None:
        now = self.loop.now
        served, stack_widths = self.cache.forecast_batch(
            self.forecaster, self.dataset, batch.requests
        )
        self.metrics.counter("serve.forward_calls").inc(len(stack_widths))
        stack_width = self.metrics.histogram("serve.stack_width")
        for width in stack_widths:
            stack_width.observe(width)
        responses: list[ForecastResponse] = []
        batch_steps = 0
        for request, (result, new_steps, hit) in zip(batch.requests, served):
            batch_steps += new_steps
            if hit:
                self.metrics.counter("serve.cache_hits").inc()
            responses.append(
                ForecastResponse(
                    request=request,
                    status=STATUS_OK,
                    completed_s=0.0,  # stamped at completion
                    result=result,
                    dispatched_s=now,
                    batch_id=batch.batch_id,
                    replica=replica.replica_id,
                    cache_hit=hit,
                    model_steps=new_steps,
                )
            )
        service_s = self.cost_model.batch_service_s(batch.size, batch_steps)
        done_s = replica.begin_batch(now, service_s, batch.size)
        self.tracer.span(
            "serve", f"batch.{batch.batch_id}", replica.replica_id, now, service_s,
            size=batch.size, steps=batch_steps,
        )
        self.loop.schedule(done_s, self._complete, responses)

    def _complete(self, responses: list[ForecastResponse]) -> None:
        now = self.loop.now
        for response in responses:
            response.completed_s = now
            self._responses.append(response)
            self._outstanding -= 1
            self.latency_window.observe(response.latency_s)
            self.metrics.histogram("serve.latency_s").observe(response.latency_s)
        self._drain()

    def _autoscale_tick(self) -> None:
        decision = self.autoscaler.evaluate(
            self.loop.now,
            self.queue_depth,
            self.latency_window.percentile(99),
            self.pool,
        )
        self._replicas_peak = max(self._replicas_peak, len(self.pool))
        self.metrics.gauge("serve.replicas").set(decision.replicas)
        if decision.action != "hold":
            self.metrics.counter(f"serve.scale_{decision.action}").inc()
            self.journal.append(
                len(self._responses), "serve",
                category=f"scale_{decision.action}",
                message=decision.reason,
                data=decision.as_dict(),
            )
            if decision.action == "up":
                # the new replica becomes usable mid-flight; pull work then
                ready_at = max(
                    r.ready_at_s for r in self.pool.replicas.values()
                )
                self.loop.schedule(ready_at, self._drain)
        if self._outstanding > 0 or self._arrivals_remaining > 0:
            self.loop.schedule(
                self.loop.now + self.policy.autoscale_tick_s, self._autoscale_tick
            )
