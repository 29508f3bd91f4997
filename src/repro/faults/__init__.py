"""Deterministic fault injection and self-healing supervision.

The failure half of the simulated Hybrid-STOP stack — the part a real
30-day Frontier pre-training run spends a material fraction of its
walltime on:

* :mod:`repro.faults.plan` — a seeded, step/event-indexed
  :class:`~repro.faults.plan.FaultPlan` naming exactly which rank
  fails how and when (JSON round-trippable, so a failure scenario is
  an artifact);
* :mod:`repro.faults.injector` — the
  :class:`~repro.faults.injector.FaultInjector` attached to the
  cluster timeline, firing each injection exactly once at the named
  compute or collective event;
* :mod:`repro.faults.supervisor` — the
  :class:`~repro.faults.supervisor.Supervisor`: retry transients with
  backoff, rollback-restart crashes from sharded checkpoints
  (bitwise), elastically regroup after permanent node loss;
* :mod:`repro.faults.goodput` — the
  :class:`~repro.faults.goodput.GoodputLedger` charging every
  recovery path, plus the Young/Daly analytic model behind
  ``repro bench --mtbf``;
* :mod:`repro.faults.report` — the
  :class:`~repro.faults.report.RecoveryReport` the CLI prints and CI
  archives;
* :mod:`repro.faults.degradation` — non-crash degradations
  (:class:`~repro.faults.degradation.SkewedCompute` stragglers).
"""

from repro.faults.degradation import SkewedCompute
from repro.faults.errors import (
    CollectiveTimeoutError,
    ElasticRecoveryError,
    FatalFaultError,
    FaultError,
    GpuCrashError,
    NodeLossError,
    TransientFaultError,
)
from repro.faults.goodput import (
    GoodputLedger,
    bench_goodput,
    expected_goodput_fraction,
    goodput_table,
    recommend_checkpoint_interval,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    DEGRADATION_KINDS,
    FATAL_KINDS,
    NUMERICAL_KINDS,
    PLAN_SCHEMA,
    TRANSIENT_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.faults.report import REPORT_SCHEMA, RecoveryEvent, RecoveryReport
from repro.faults.supervisor import Supervisor

__all__ = [
    "DEGRADATION_KINDS",
    "FATAL_KINDS",
    "NUMERICAL_KINDS",
    "PLAN_SCHEMA",
    "REPORT_SCHEMA",
    "TRANSIENT_KINDS",
    "CollectiveTimeoutError",
    "ElasticRecoveryError",
    "FatalFaultError",
    "FaultError",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "GoodputLedger",
    "GpuCrashError",
    "NodeLossError",
    "RecoveryEvent",
    "RecoveryReport",
    "SkewedCompute",
    "Supervisor",
    "TransientFaultError",
    "bench_goodput",
    "expected_goodput_fraction",
    "goodput_table",
    "recommend_checkpoint_interval",
]
