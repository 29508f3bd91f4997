"""Observability for the simulated Hybrid-STOP stack.

Three layers, designed so traces are *exact* and *cheap*:

* :mod:`~repro.obs.tracer` — span events (compute / collective /
  gather / optimizer / checkpoint / io) keyed to the simulated clock,
  with overlap disposition.  :data:`~repro.obs.off.OFF` is the one
  disabled handle, used when tracing (or any other channel) is off.
* :mod:`~repro.obs.metrics` — counters, gauges, histograms.
* :mod:`~repro.obs.export` / :mod:`~repro.obs.analysis` — Chrome
  ``chrome://tracing`` JSON, a plain-text step report, machine-readable
  dicts, and the column reductions every span aggregation is built from.

On top of those sit the analysis layers: :mod:`~repro.obs.critical_path`
(the one per-rank table, :func:`~repro.obs.critical_path.rank_attribution`,
whose buckets equal the :class:`~repro.cluster.timeline.Timeline` ledgers,
and the cross-rank critical-path decomposition — ``repro analyze``) and
:mod:`~repro.obs.health` (straggler / imbalance / overlap / memory
findings).

:func:`~repro.obs.capture.run_traced_spec` (the ``repro trace``
subcommand) runs the traced steps of a numeric ``RunSpec`` end to end
and exports both artifacts.
"""

from repro.obs.off import NULL_TRACER, OFF, Off
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import (
    SPAN_KINDS,
    Span,
    SpanColumns,
    SpanView,
    Tracer,
)
from repro.obs.export import (
    load_trace_events,
    step_report,
    to_chrome_trace,
    to_dict,
    write_chrome_trace,
    write_step_report,
    write_trace_events,
)
from repro.obs.critical_path import (
    StepAnalysis,
    TraceAnalysis,
    analyze_trace,
    critical_path_report,
    rank_attribution,
)
from repro.obs.health import (
    Finding,
    check_run,
    health_report,
)
from repro.obs.timeseries import (
    P2Quantile,
    Series,
    StreamingStats,
    TimeseriesStore,
    load_timeseries,
)
from repro.obs.detect import AlertRule, DetectorBank, default_rules
from repro.obs.journal import (
    EventJournal,
    JournalEvent,
    journal_summary,
    load_journal,
)
from repro.obs.monitor import RunMonitor
from repro.obs.capture import TraceRun, run_traced_spec

__all__ = [
    "AlertRule",
    "DetectorBank",
    "EventJournal",
    "JournalEvent",
    "OFF",
    "Off",
    "P2Quantile",
    "RunMonitor",
    "Series",
    "StreamingStats",
    "TimeseriesStore",
    "default_rules",
    "journal_summary",
    "load_journal",
    "load_timeseries",
    "Counter",
    "Finding",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "SPAN_KINDS",
    "Span",
    "SpanColumns",
    "SpanView",
    "StepAnalysis",
    "TraceAnalysis",
    "TraceRun",
    "Tracer",
    "analyze_trace",
    "check_run",
    "critical_path_report",
    "health_report",
    "load_trace_events",
    "rank_attribution",
    "run_traced_spec",
    "step_report",
    "to_chrome_trace",
    "to_dict",
    "write_chrome_trace",
    "write_step_report",
    "write_trace_events",
]
