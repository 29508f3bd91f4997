"""Replica pool and the modeled cost of serving a batch.

Replicas are simulated inference workers: each holds (conceptually) a
copy of the fine-tuned model and serves one micro-batch at a time.
As everywhere in this repo, their time is *modeled*, not measured —
:class:`ServiceCostModel` prices a batch from its size and the number
of model applications it newly pays for, so identical seeded workloads
cost identical simulated seconds.

The pool does the bookkeeping the autoscaler needs: per-replica busy
time (for utilization), ready-at times (scale-up pays a setup cost),
and safe scale-down (only idle replicas can be retired — a busy
replica finishes its batch first).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ServiceCostModel:
    """Simulated service time of one micro-batch on one replica.

    ``setup_s`` is the fixed dispatch overhead per batch; each request
    adds ``per_request_s`` (output assembly), and each *newly computed*
    autoregressive model application adds ``per_step_s`` — so a
    prefix-cache hit is visibly cheaper on the latency histogram, not
    just in a counter.
    """

    setup_s: float = 2e-3
    per_request_s: float = 2e-4
    per_step_s: float = 1.5e-3
    #: Cold-start cost of bringing a new replica into the pool.
    replica_setup_s: float = 0.05

    def batch_service_s(self, num_requests: int, model_steps: int) -> float:
        if num_requests < 1:
            raise ValueError("a batch serves at least one request")
        return (
            self.setup_s
            + self.per_request_s * num_requests
            + self.per_step_s * model_steps
        )


@dataclass
class Replica:
    """One simulated inference worker."""

    replica_id: int
    ready_at_s: float = 0.0
    busy_until_s: float = 0.0
    busy_s: float = 0.0
    batches_served: int = 0
    requests_served: int = 0

    def idle_at(self, now: float) -> bool:
        return now >= self.ready_at_s and now >= self.busy_until_s

    def begin_batch(self, start_s: float, service_s: float, num_requests: int) -> float:
        """Occupy the replica for one batch; returns the completion time."""
        if not self.idle_at(start_s):
            raise RuntimeError(
                f"replica {self.replica_id} is not idle at {start_s:.6f}"
            )
        self.busy_until_s = start_s + service_s
        self.busy_s += service_s
        self.batches_served += 1
        self.requests_served += num_requests
        return self.busy_until_s


class ReplicaPool:
    """The live replica set, with deterministic scale up/down."""

    def __init__(self, cost_model: ServiceCostModel, initial: int = 1):
        if initial < 1:
            raise ValueError("pool starts with at least one replica")
        self.cost_model = cost_model
        self._next_id = 0
        self.replicas: dict[int, Replica] = {}
        self.retired: list[Replica] = []
        for _ in range(initial):
            self._add(ready_at_s=0.0)

    def _add(self, ready_at_s: float) -> Replica:
        replica = Replica(replica_id=self._next_id, ready_at_s=ready_at_s)
        self._next_id += 1
        self.replicas[replica.replica_id] = replica
        return replica

    def __len__(self) -> int:
        return len(self.replicas)

    def acquire_idle(self, now: float) -> Replica | None:
        """Lowest-id idle replica (deterministic pick), or None."""
        for replica_id in sorted(self.replicas):
            replica = self.replicas[replica_id]
            if replica.idle_at(now):
                return replica
        return None

    def scale_up(self, now: float) -> Replica:
        """Add a replica; it becomes usable after the cold-start cost."""
        return self._add(ready_at_s=now + self.cost_model.replica_setup_s)

    def scale_down(self, now: float) -> Replica | None:
        """Retire the highest-id idle replica; None when all are busy."""
        for replica_id in sorted(self.replicas, reverse=True):
            replica = self.replicas[replica_id]
            if replica.idle_at(now):
                self.retired.append(self.replicas.pop(replica_id))
                return replica
        return None

    # -- utilization accounting (GoodputLedger style) ------------------------
    def utilization(self, now: float) -> float:
        """Busy fraction of live replica-seconds so far.

        Live capacity only (retired replicas paid for their busy time
        while alive); the autoscaler reads this as "how much of what I
        am currently paying for is working?".
        """
        if now <= 0 or not self.replicas:
            return 0.0
        live_busy = sum(
            min(r.busy_s, max(0.0, now - r.ready_at_s))
            for r in self.replicas.values()
        )
        capacity = sum(max(0.0, now - r.ready_at_s) for r in self.replicas.values())
        return live_busy / capacity if capacity > 0 else 0.0
