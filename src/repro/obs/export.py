"""Trace exporters: Chrome tracing JSON, plain-text report and raw dict.

The Chrome format (``chrome://tracing`` / Perfetto "JSON Array
Format") lays the trace out as one *process* per rank with three
*thread* lanes — compute, comm, and markers — so overlap-hidden
communication is visible under the compute it hid beneath.  Timestamps
are the simulated busy clock in microseconds.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.obs import analysis
from repro.obs.critical_path import rank_attribution
from repro.obs.tracer import Span, SpanColumns, SpanView, Tracer, span_row
from repro.utils.artifacts import (
    ArtifactFormatError,
    read_json,
    write_artifact,
    write_json,
)

_LANES = {"compute": "compute", "collective": "comm", "gather": "comm"}


def _event(span: Span) -> dict:
    tid = _LANES.get(span.kind, "markers")
    args = {
        "scope": span.scope,
        "nbytes": span.nbytes,
        "flops": span.flops,
        "hidden_s": span.hidden_s,
        "exposed_s": span.busy_s,
        "disposition": span.disposition,
    }
    if span.group is not None:
        args["group"] = list(span.group)
    args.update(span.attrs)
    event = {
        "name": span.name,
        "cat": span.kind,
        "pid": span.rank,
        "tid": tid,
        "ts": span.t0 * 1e6,
        "args": args,
    }
    if span.dur > 0.0:
        event["ph"] = "X"
        event["dur"] = span.dur * 1e6
    else:
        event["ph"] = "i"
        event["s"] = "t"
    return event


def to_chrome_trace(tracer: Tracer) -> dict:
    """The trace as a ``chrome://tracing``-loadable dict."""
    spans = [_event(span) for span in tracer.spans]
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": rank,
            "args": {"name": f"rank {rank}"},
        }
        for rank in sorted({event["pid"] for event in spans})
    ]
    return {"traceEvents": events + spans, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path) -> Path:
    """Serialize :func:`to_chrome_trace` to ``path``; returns the path."""
    return write_json(path, to_chrome_trace(tracer))


def to_dict(tracer: Tracer) -> dict:
    """Machine-readable trace: span dicts plus the metrics snapshot."""
    return {
        "spans": [span.to_dict() for span in tracer.spans],
        "metrics": tracer.metrics.as_dict(),
    }


def write_trace_events(tracer: Tracer, path) -> Path:
    """Serialize :func:`to_dict` to ``path`` for later re-analysis.

    Unlike the Chrome trace (microsecond-scaled for the viewer), this
    file keeps raw seconds, so :func:`load_trace_events` round-trips
    every float exactly — analyses of a loaded trace match analyses of
    the live tracer bitwise.
    """
    return write_json(path, to_dict(tracer))


_NUMBER = (int, float)
#: The fields a span entry may carry (other keys are derived and
#: ignored) with the type each must have; the first five are required.
_FIELD_TYPES = {"kind": str, "name": str, "rank": int, "t0": _NUMBER,
                "dur": _NUMBER, "hidden_s": _NUMBER, "nbytes": _NUMBER,
                "flops": _NUMBER, "group": list, "scope": str, "attrs": dict}
_REQUIRED = tuple(_FIELD_TYPES)[:5]


def _entry_row(entry, where: str) -> tuple:
    """The table row of one ``spans`` entry, or :class:`ArtifactFormatError`."""
    if not isinstance(entry, dict):
        raise ArtifactFormatError(f"{where} is not an object")
    for name in _REQUIRED:
        if name not in entry:
            raise ArtifactFormatError(f"{where} has no {name!r}")
    fields = {name: entry[name] for name in _FIELD_TYPES if name in entry}
    for name, value in fields.items():
        if not isinstance(value, _FIELD_TYPES[name]) or isinstance(value, bool):
            raise ArtifactFormatError(f"{where}: {name!r} cannot be {value!r}")
    if not fields["dur"] >= 0:
        raise ArtifactFormatError(
            f"{where}: 'dur' must be >= 0, got {fields['dur']!r}")
    for name in ("cid", "members"):  # the two attrs the analyses read
        value = fields.get("attrs", {}).get(name)
        if value is not None and type(value) is not int:
            raise ArtifactFormatError(
                f"{where}: attrs[{name!r}] cannot be {value!r}")
    if "group" in fields:
        fields["group"] = tuple(fields["group"])
    try:
        return span_row(**fields)
    except ValueError as exc:  # an unknown kind
        raise ArtifactFormatError(f"{where}: {exc}") from exc


def load_trace_events(path) -> SpanView:
    """The spans written by :func:`write_trace_events`, as a table view.

    Raises :class:`ArtifactFormatError` naming ``path`` — and the entry
    and field at fault — for anything that is not such a file: missing,
    torn JSON, no ``spans`` list, a missing or mistyped field, an unknown
    ``kind`` or a negative ``dur``.
    """
    entries = read_json(path, "trace").get("spans")
    if not isinstance(entries, list):
        raise ArtifactFormatError(f"trace {path}: no 'spans' list")
    return SpanView([_entry_row(entry, f"trace {path}: spans[{index}]")
                     for index, entry in enumerate(entries)])


def step_report(tracer: Tracer, cluster=None, top: int = 10) -> str:
    """Human-readable per-step breakdown.

    Per-rank busy decomposition, walltime, exposed-comm ratio, the
    top operations by exposed time, and (when a cluster is given)
    per-device memory high-water marks.
    """
    from repro.experiments.common import format_table

    spans = SpanColumns.of(tracer)  # one column build for every sum below
    # the ranks with timed spans; no io rows, so busy_s is compute + exposed
    table = rank_attribution(spans.take(np.flatnonzero(analysis.is_timed(spans))))

    rows = []
    for rank in sorted(table):
        attr = table[rank]
        row = [
            rank,
            f"{attr.compute_s:.6f}",
            f"{attr.comm_s:.6f}",
            f"{attr.exposed_comm_s:.6f}",
            f"{attr.hidden_comm_s:.6f}",
            f"{attr.busy_s:.6f}",
        ]
        if cluster is not None:
            row.append(f"{cluster.device(rank).memory.peak_bytes / 2**20:.2f} MiB")
        rows.append(row)
    headers = ["rank", "compute_s", "comm_s", "exposed_s", "hidden_s", "busy_s"]
    if cluster is not None:
        headers.append("peak_mem")
    lines = [format_table(headers, rows, title="Per-rank time breakdown")]

    walltime = max((attr.busy_s for attr in table.values()), default=0.0)
    lines.append("")
    lines.append(f"walltime (max busy rank): {walltime:.6f} s")
    lines.append(f"exposed-comm ratio:       {analysis.exposed_comm_ratio(spans):.4f}")
    lines.append(f"spans recorded:           {len(spans)}")

    gauges = tracer.metrics.as_dict()["gauges"]
    if gauges:
        gauge_rows = [
            [name, f"{value:.6g}"] for name, value in sorted(gauges.items())
        ]
        lines.append("")
        lines.append(
            format_table(["gauge", "value"], gauge_rows, title="Gauges")
        )

    ops = analysis.top_operations(spans, limit=top)
    if ops:
        op_rows = [
            [
                entry["name"],
                entry["kind"],
                entry["count"],
                f"{entry['exposed_s']:.6f}",
                f"{entry['hidden_s']:.6f}",
                f"{entry['nbytes'] / 2**20:.2f} MiB",
            ]
            for entry in ops
        ]
        lines.append("")
        lines.append(
            format_table(
                ["op", "kind", "count", "exposed_s", "hidden_s", "bytes"],
                op_rows,
                title=f"Top {len(op_rows)} operations by exposed time",
            )
        )
    return "\n".join(lines)


def write_step_report(tracer: Tracer, path, cluster=None) -> Path:
    return write_artifact(path, step_report(tracer, cluster=cluster) + "\n")
