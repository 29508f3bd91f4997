"""Run one fully-traced Hybrid-STOP training step.

The driver behind the ``repro trace`` CLI subcommand and the invariant
test suite: given a numeric ``RunSpec`` (usually of the tiny
``TRACE_CONFIG_KWARGS`` model), it runs the spec's optimizer steps
under the full hierarchical engine with a tracer attached, folds the
cluster state into the metrics registry, and optionally writes the
Chrome trace and the plain-text step report.

Everything is seeded, so two captures of the same spec produce
identical span lists — the traces are test fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.export import write_chrome_trace, write_step_report, write_trace_events
from repro.obs.tracer import Tracer
from repro.obs import analysis

#: Tiny model used for traced demo steps (runs real numerics in ~seconds).
TRACE_CONFIG_KWARGS = dict(
    embed_dim=16,
    depth=2,
    num_heads=4,
    in_vars=3,
    out_vars=2,
    img_height=8,
    img_width=8,
    patch_size=4,
)


@dataclass
class TraceRun:
    """Everything a caller needs to inspect a traced step."""

    cluster: object
    plan: object
    tracer: Tracer
    loss: float
    walltime_s: float
    files: dict[str, Path] = field(default_factory=dict)
    #: The session's monitor handle (OFF when telemetry is off).
    monitor: object = None


def run_traced_spec(spec, out_dir=None) -> TraceRun:
    """The ``spec.num_steps`` traced steps of a numeric ``spec``
    (``repro trace`` builds it from flags).

    When ``out_dir`` is given, writes ``trace.json`` (Chrome trace),
    ``trace_events.json`` (raw spans, loadable by
    :func:`~repro.obs.export.load_trace_events`) and ``report.txt``
    (per-step report) into it.  Traced steps run real numerics, so a
    ``fold`` policy silently stays in exact mode.
    """
    # Deferred: repro.obs's package __init__ imports this module.
    from repro.runtime import Session, StepLoop

    session = Session(spec)
    result = StepLoop(
        session.numeric_step, hooks=session.loop_hooks()
    ).run(spec.num_steps)
    loss = result.final_loss

    # The trainer already recorded step.walltime_s / train.loss /
    # optimizer.steps; fold in the cluster-level state it cannot see.
    cluster, tracer = session.cluster, session.tracer
    walltime = cluster.timeline.walltime_s()
    metrics = tracer.metrics
    metrics.gauge("step.exposed_comm_ratio").set(
        analysis.exposed_comm_ratio(tracer)
    )
    metrics.gauge("step.loss").set(loss)
    for rank in range(cluster.world_size):
        metrics.gauge(f"memory.peak_bytes.rank{rank}").max(
            cluster.device(rank).memory.peak_bytes
        )

    run = TraceRun(
        cluster=cluster, plan=session.plan, tracer=tracer, loss=loss,
        walltime_s=walltime, monitor=session.monitor,
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        run.files["trace"] = write_chrome_trace(tracer, out_dir / "trace.json")
        run.files["events"] = write_trace_events(tracer, out_dir / "trace_events.json")
        run.files["report"] = write_step_report(
            tracer, out_dir / "report.txt", cluster=cluster
        )
    return run
