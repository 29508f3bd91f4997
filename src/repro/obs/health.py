"""Run-health monitoring: turn a trace into actionable findings.

Each check reads the critical-path decomposition
(:mod:`repro.obs.critical_path`) plus, when available, the cluster's
memory trackers and the parallel plan, and emits structured
:class:`Finding` records:

``straggler``
    A rank whose busy time exceeds the median by more than the
    threshold fraction — it *is* the critical path, everyone else
    waits on it.
``tp_imbalance`` / ``fsdp_imbalance`` / ``ddp_imbalance``
    Compute-time spread inside one tensor-parallel / FSDP / DDP group
    (members of a group run in lockstep, so spread converts directly
    into exposed wait time).
``overlap_budget``
    Prefetched (overlappable) gathers whose cost was mostly *not*
    hidden under compute — the overlap optimization is configured but
    not paying.
``memory_watermark``
    A device's peak allocation within the threshold of its capacity
    (wired to :class:`repro.memory.tracker.MemoryTracker`) — the next
    activation spike is an OOM.

Findings are emitted through :class:`repro.obs.metrics.MetricsRegistry`
(``health.findings.<category>`` counters and a ``health.findings``
gauge) and logged structurally via :mod:`repro.utils.logging`, so they
surface in both machine-readable and human pipelines.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable

from repro.obs.critical_path import TraceAnalysis, analyze_trace
from repro.obs.off import OFF
from repro.utils.logging import get_logger, trace_log_context

_LOG = get_logger("obs.health")

#: Finding severities, mildest first.
SEVERITIES = ("info", "warning", "critical")


@dataclass(frozen=True)
class Finding:
    """One structured health finding: a category, a severity, the
    affected ranks and the measured value against its threshold."""

    category: str
    severity: str
    message: str
    ranks: tuple[int, ...] = ()
    value: float = 0.0
    threshold: float = 0.0


# Limits for every check (fractions, not absolutes).
#: Rank busy time above ``(1 + frac) * median`` flags a straggler.
STRAGGLER_FRAC = 0.10
#: Compute spread ``(max - min) / max`` inside one group.
IMBALANCE_FRAC = 0.25
#: Groups whose largest member compute is below this fraction of the
#: critical path are ignored — spread on negligible compute cannot
#: gate a collective for a meaningful amount of time.
IMBALANCE_MIN_FRAC = 0.02
#: Exposed fraction of *overlappable* comm above this flags wasted
#: prefetch (only checked when there is meaningful gather volume).
OVERLAP_EXPOSED_FRAC = 0.60
#: Peak device memory as a fraction of capacity.
MEMORY_WATERMARK_FRAC = 0.85
#: Ignore times below this (cost-model noise floor).
MIN_SECONDS = 1e-12


def _spread(values: list[float]) -> float:
    top = max(values)
    if top <= 0.0:
        return 0.0
    return (top - min(values)) / top


def check_stragglers(analysis: TraceAnalysis) -> list[Finding]:
    busy = {rank: attr.busy_s for rank, attr in analysis.overall.ranks.items()}
    if len(busy) < 2:
        return []
    median = statistics.median(busy.values())
    if median <= MIN_SECONDS:
        return []
    findings = []
    for rank in sorted(busy):
        excess = busy[rank] / median - 1.0
        if excess > STRAGGLER_FRAC:
            findings.append(
                Finding(
                    category="straggler",
                    severity="warning" if excess < 2 * STRAGGLER_FRAC else "critical",
                    message=(
                        f"rank {rank} is {excess:.0%} over the median busy time "
                        f"({busy[rank]:.6f} s vs median {median:.6f} s); "
                        f"every other rank waits on it"
                    ),
                    ranks=(rank,),
                    value=excess,
                    threshold=STRAGGLER_FRAC,
                )
            )
    return findings


def check_group_imbalance(analysis: TraceAnalysis, plan) -> list[Finding]:
    """Compute-time spread inside each TP/FSDP/DDP group of the plan."""
    totals = analysis.overall.ranks
    floor = max(
        MIN_SECONDS,
        IMBALANCE_MIN_FRAC * analysis.overall.critical_path_s,
    )
    findings = []

    def groups(axis: str):
        if axis == "tp":
            for d in range(plan.ddp_size):
                for f in range(plan.fsdp_size):
                    yield plan.tp_group(d, f).ranks
        elif axis == "fsdp":
            for d in range(plan.ddp_size):
                for k in range(plan.tp_size):
                    yield plan.fsdp_group(d, k).ranks
        else:
            for f in range(plan.fsdp_size):
                for k in range(plan.tp_size):
                    yield plan.ddp_group(f, k).ranks

    for axis in ("tp", "fsdp", "ddp"):
        for ranks in groups(axis):
            if len(ranks) < 2:
                continue
            if any(r not in totals for r in ranks):
                # A folded trace records only class representatives;
                # comparing a traced member against absent (not idle)
                # ones would fabricate spread.  An exact engine run
                # traces every rank, so nothing is skipped there.
                continue
            compute = [totals[r].compute_s for r in ranks]
            if max(compute) <= floor:
                continue
            spread = _spread(compute)
            if spread > IMBALANCE_FRAC:
                findings.append(
                    Finding(
                        category=f"{axis}_imbalance",
                        severity="warning",
                        message=(
                            f"{axis} group {tuple(ranks)} compute spread {spread:.0%} "
                            f"(min {min(compute):.6f} s, max {max(compute):.6f} s); "
                            f"the slowest member gates every collective in the group"
                        ),
                        ranks=tuple(ranks),
                        value=spread,
                        threshold=IMBALANCE_FRAC,
                    )
                )
    return findings


def check_overlap_budget(analysis: TraceAnalysis) -> list[Finding]:
    """Was prefetched (gather) communication actually hidden?"""
    exposed = hidden = 0.0
    for attr in analysis.overall.ranks.values():
        exposed += attr.exposed_comm_s
        hidden += attr.hidden_comm_s
    # Only meaningful when overlap was attempted at all.
    if hidden + exposed <= MIN_SECONDS or hidden == 0.0:
        return []
    gathers = analysis.overall.exposed_comm_by_kind.get("gather", 0.0)
    crit = analysis.overall.ranks[analysis.overall.critical_rank]
    total_gather = gathers + crit.hidden_comm_s
    if total_gather <= MIN_SECONDS:
        return []
    exposed_frac = gathers / total_gather
    if exposed_frac > OVERLAP_EXPOSED_FRAC:
        return [
            Finding(
                category="overlap_budget",
                severity="warning",
                message=(
                    f"{exposed_frac:.0%} of prefetched gather time on the critical "
                    f"rank is exposed (hidden {crit.hidden_comm_s:.6f} s, exposed "
                    f"{gathers:.6f} s); compute slack is too small to hide the "
                    f"gathers it is configured to overlap"
                ),
                ranks=(analysis.overall.critical_rank,),
                value=exposed_frac,
                threshold=OVERLAP_EXPOSED_FRAC,
            )
        ]
    return []


def check_memory_watermark(cluster) -> list[Finding]:
    """Peak device allocations close to capacity (pre-OOM warning)."""
    findings = []
    for device in cluster.touched_devices():
        rank, tracker = device.rank, device.memory
        fraction = tracker.peak_fraction
        if fraction is None:
            continue
        if fraction > MEMORY_WATERMARK_FRAC:
            findings.append(
                Finding(
                    category="memory_watermark",
                    severity="critical" if fraction > 0.95 else "warning",
                    message=(
                        f"rank {rank} peaked at {fraction:.0%} of device memory "
                        f"({tracker.peak_bytes / 2**30:.2f} GiB of "
                        f"{tracker.capacity_bytes / 2**30:.2f} GiB)"
                    ),
                    ranks=(rank,),
                    value=fraction,
                    threshold=MEMORY_WATERMARK_FRAC,
                )
            )
    return findings


def check_run(
    trace,
    cluster=None,
    plan=None,
    metrics=None,
    analysis: TraceAnalysis | None = None,
) -> list[Finding]:
    """Run every applicable health check over a trace.

    Parameters
    ----------
    trace:
        A :class:`~repro.obs.tracer.Tracer` or an iterable of spans.
    cluster / plan:
        Optional; memory checks need the cluster, group-imbalance
        checks need the plan.
    metrics:
        Registry receiving ``health.findings.*`` counters.  Defaults to
        the tracer's registry when ``trace`` is a tracer.
    analysis:
        Reuse an existing :func:`analyze_trace` result instead of
        recomputing it.
    """
    if analysis is None:
        analysis = analyze_trace(trace)
    if metrics is None:
        metrics = getattr(trace, "metrics", OFF)

    findings = check_stragglers(analysis)
    if plan is not None:
        findings += check_group_imbalance(analysis, plan)
    findings += check_overlap_budget(analysis)
    if cluster is not None:
        findings += check_memory_watermark(cluster)

    severity_rank = {s: i for i, s in enumerate(SEVERITIES)}
    findings.sort(key=lambda f: (-severity_rank[f.severity], f.category, f.ranks))

    metrics.gauge("health.findings").set(len(findings))
    for finding in findings:
        metrics.counter(f"health.findings.{finding.category}").inc()
    for finding in findings:
        with trace_log_context(rank=finding.ranks[0] if finding.ranks else None):
            _LOG.log(
                {"info": 20, "warning": 30, "critical": 40}[finding.severity],
                "%s: %s", finding.category, finding.message,
            )
    return findings


def health_report(findings: Iterable[Finding]) -> str:
    """Plain-text findings list (``OK`` line when clean)."""
    findings = list(findings)
    if not findings:
        return "health: OK (no findings)"
    lines = [f"health: {len(findings)} finding(s)"]
    for finding in findings:
        lines.append(f"  [{finding.severity:8s}] {finding.category}: {finding.message}")
    return "\n".join(lines)
