"""Performance-regression harness over the trace layer.

Runs a fixed matrix of simulated Hybrid-STOP configurations — the
paper's ORBIT-115M and ORBIT-1B models at 2 and 4 Frontier nodes, plus
the 113B model at up to the full 49,152-GCD machine (symmetry-folded;
see :mod:`repro.cluster.symmetry`) — in meta mode (shape-only arrays,
full engine code path, exact cost-model accounting), and derives every
headline number *from the trace*:

* **step time** — the critical path of the traced step
  (bitwise-equal to ``Timeline.walltime_s`` by the analyzer invariant);
* **scaling efficiency** — time-per-observation speedup from 2 to 4
  nodes against the ideal 2x (the Fig 7 metric, on the bench matrix);
* **exposed-comm fraction** — the share of busy time spent in
  non-overlapped communication (the ATP-style attribution);
* **peak memory** — the per-device high-watermark from the trackers.

Everything downstream of the seed is deterministic pure-float
arithmetic, so the committed ``BENCH_obs.json`` baseline only moves
when a code change moves the modeled system — which is exactly what
the CI tolerance gate (``repro bench --check``) is for.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.utils.artifacts import ArtifactFormatError, read_json, write_json
from repro.utils.logging import get_logger

_LOG = get_logger("bench")

#: Format version of ``BENCH_obs.json``.
SCHEMA_VERSION = 1

#: Default drift tolerance for the regression gate (fractional).
DEFAULT_TOLERANCE = 0.05


@dataclass(frozen=True)
class BenchCase:
    """One point of the bench matrix."""

    name: str
    model: str
    num_gpus: int
    gpus_per_node: int
    tp_size: int
    fsdp_size: int
    ddp_size: int
    micro_batch: int
    #: Pipeline depth of the 4D factorization (1 = pure 3D layout).
    #: Identity, not policy: a pipelined case is a different
    #: configuration, so it stays in the committed document.
    pp_size: int = 1
    #: Included in the ``--quick`` subset (CI time limits).
    quick: bool = False
    #: Engine policies (Table I / Sec III-B).  The defaults match the
    #: committed matrix; the tuner's validation stage sweeps them.
    prefetch: bool = True
    recompute: bool = False
    tp_innermost: bool = True
    #: Rank-symmetry folding policy (see :mod:`repro.cluster.symmetry`).
    #: Folded runs are bitwise-equal to exact ones, so this never moves
    #: a committed measurement; the frontier-scale cases need it to be
    #: affordable at all.
    fold: str = "off"

    @property
    def nodes(self) -> int:
        return self.num_gpus // self.gpus_per_node

    @property
    def observations(self) -> int:
        """Observations processed per step (global batch)."""
        return self.micro_batch * self.fsdp_size * self.ddp_size


#: The committed matrix: 115M and 1B at 2 and 4 nodes.  TP stays
#: in-node; scale-out grows the FSDP axis, mirroring the paper's Fig 4
#: placement.  The 115M cases form the ``--quick`` subset.
DEFAULT_MATRIX: tuple[BenchCase, ...] = (
    BenchCase("orbit-115m-2n", "orbit-115m", 16, 8, tp_size=4, fsdp_size=2,
              ddp_size=2, micro_batch=2, quick=True),
    BenchCase("orbit-115m-4n", "orbit-115m", 32, 8, tp_size=4, fsdp_size=4,
              ddp_size=2, micro_batch=2, quick=True),
    BenchCase("orbit-1b-2n", "orbit-1b", 16, 8, tp_size=8, fsdp_size=2,
              ddp_size=1, micro_batch=2),
    BenchCase("orbit-1b-4n", "orbit-1b", 32, 8, tp_size=8, fsdp_size=4,
              ddp_size=1, micro_batch=2),
)

#: Frontier-scale points: the paper's 113B model at 128, 1,024, and
#: 6,144 nodes (49,152 GCDs — the full Fig 7 machine).  Affordable only
#: because symmetry folding simulates one representative rank per
#: equivalence class; folded accounting is bitwise-equal to exact, so
#: these entries are measurements, not estimates.  Not part of the
#: ``--quick`` subset (the wall-clock gate lives in
#: ``benchmarks/test_bench_frontier.py``).
FRONTIER_MATRIX: tuple[BenchCase, ...] = (
    BenchCase("orbit-113b-128n", "orbit-113b", 1024, 8, tp_size=8,
              fsdp_size=32, ddp_size=4, micro_batch=3, fold="on"),
    BenchCase("orbit-113b-128n-pp4", "orbit-113b", 1024, 8, tp_size=8,
              fsdp_size=16, ddp_size=2, micro_batch=3, pp_size=4, fold="on"),
    BenchCase("orbit-113b-1024n", "orbit-113b", 8192, 8, tp_size=8,
              fsdp_size=64, ddp_size=16, micro_batch=3, fold="on"),
    BenchCase("orbit-113b-6144n", "orbit-113b", 49152, 8, tp_size=8,
              fsdp_size=64, ddp_size=96, micro_batch=3, fold="on"),
)

#: Everything in ``BENCH_obs.json``: the paper-model matrix plus the
#: frontier-scale points.  This is the ``run_matrix`` default so a
#: ``require_all`` comparison against the committed baseline always
#: has every case to compare.
FULL_MATRIX: tuple[BenchCase, ...] = DEFAULT_MATRIX + FRONTIER_MATRIX


@dataclass
class BenchRecord:
    """Trace-derived measurements for one case."""

    case: BenchCase
    step_time_s: float
    time_per_obs_s: float
    exposed_comm_fraction: float
    peak_memory_bytes: int
    bound_resource: str
    spans: int
    #: The :func:`~repro.obs.critical_path.analyze_trace` result the
    #: numbers above were read from, kept for callers that explain the
    #: step (the tuner's report); not part of :meth:`as_dict`.
    decomposition: object = field(default=None, repr=False, compare=False)

    def as_dict(self) -> dict:
        out = asdict(self.case)
        # Selection / policy fields that would churn the committed
        # baseline document; the matrix pins them to the defaults.
        for transient in ("quick", "prefetch", "recompute", "tp_innermost", "fold"):
            out.pop(transient)
        out.update(
            step_time_s=self.step_time_s,
            time_per_obs_s=self.time_per_obs_s,
            exposed_comm_fraction=self.exposed_comm_fraction,
            peak_memory_bytes=self.peak_memory_bytes,
            bound_resource=self.bound_resource,
            spans=self.spans,
        )
        return out


def run_case(case: BenchCase, config=None, tracer=None,
             monitor=None) -> BenchRecord:
    """One traced meta-mode step of ``case``; measurements from the trace.

    ``config`` overrides the ``PAPER_MODELS[case.model]`` lookup — the
    tuner's validation stage passes its own :class:`OrbitConfig` here.
    Passing a ``tracer`` lets the caller keep the span stream (the
    tuner's winner explanation re-analyzes it).  Passing a ``monitor``
    (a :class:`~repro.obs.monitor.RunMonitor`) additionally captures
    the per-step timeseries — telemetry reads the ledgers without
    writing them, so the measurements are bitwise unaffected.
    """
    from repro.obs import SpanColumns, analysis
    from repro.obs.critical_path import analyze_trace
    from repro.runtime import RunSpec, Session, StepLoop

    spec = RunSpec.from_case(case, config=config)
    session = Session(spec, tracer=tracer, monitor=monitor)
    StepLoop(session.meta_step, hooks=session.loop_hooks()).run(1)

    columns = SpanColumns.of(session.tracer)  # built once, reduced twice
    decomposition = analyze_trace(columns)
    step_time = decomposition.critical_path_s
    record = BenchRecord(
        case=case,
        step_time_s=step_time,
        time_per_obs_s=step_time / case.observations,
        exposed_comm_fraction=analysis.exposed_comm_ratio(columns),
        peak_memory_bytes=session.peak_memory_bytes(),
        bound_resource=decomposition.bound_resource,
        spans=len(columns),
        decomposition=decomposition,
    )
    _LOG.info(
        "bench %s: step %.6f s, %s-bound, exposed-comm %.3f, peak %.2f GiB",
        case.name, record.step_time_s, record.bound_resource,
        record.exposed_comm_fraction, record.peak_memory_bytes / 2**30,
    )
    return record


def run_matrix(
    cases: Sequence[BenchCase] = FULL_MATRIX,
    quick: bool = False,
    timeseries_dir=None,
) -> list[BenchRecord]:
    """Run the matrix (or its ``quick`` subset).

    ``timeseries_dir`` persists one monitored timeseries artifact per
    case (``<dir>/<case>_timeseries.jsonl``) alongside whatever bench
    document the caller writes — the raw per-step telemetry behind the
    headline numbers.  Monitoring reads the ledgers without writing
    them, so the records are bitwise identical either way.
    """
    selected = [c for c in cases if c.quick] if quick else list(cases)
    if not selected:
        raise ValueError("bench matrix selection is empty")
    if timeseries_dir is None:
        return [run_case(case) for case in selected]
    from repro.obs.monitor import RunMonitor

    timeseries_dir = Path(timeseries_dir)
    records = []
    for case in selected:
        monitor = RunMonitor()
        records.append(run_case(case, monitor=monitor))
        monitor.store.write_jsonl(
            timeseries_dir / f"{case.name}_timeseries.jsonl"
        )
    return records


def scaling_efficiencies(records: Iterable[BenchRecord]) -> dict[str, dict]:
    """Per-model strong-scaling efficiency vs the smallest-GPU point.

    The series tracks the Fig 4-style 3D placement as the GPU count
    grows; a pipelined (``pp_size > 1``) case is a different
    configuration at the same scale — it would collide with the 3D
    case's GPU-count key — so it stays a standalone regression anchor
    and is excluded here.
    """
    from repro.perf.metrics import scaling_efficiency

    by_model: dict[str, list[BenchRecord]] = {}
    for record in records:
        if record.case.pp_size > 1:
            continue
        by_model.setdefault(record.case.model, []).append(record)
    out: dict[str, dict] = {}
    for model, model_records in sorted(by_model.items()):
        model_records.sort(key=lambda r: r.case.num_gpus)
        base = model_records[0]
        points = {
            str(record.case.num_gpus): scaling_efficiency(
                base.case.num_gpus, base.time_per_obs_s,
                record.case.num_gpus, record.time_per_obs_s,
            )
            for record in model_records
        }
        out[model] = {"baseline_gpus": base.case.num_gpus, "points": points}
    return out


# -- baseline files ----------------------------------------------------------
def to_document(records: Sequence[BenchRecord]) -> dict:
    """The ``BENCH_obs.json`` document for a set of records."""
    return {
        "schema": SCHEMA_VERSION,
        "tolerance": DEFAULT_TOLERANCE,
        "cases": {record.case.name: record.as_dict() for record in records},
        "efficiency": scaling_efficiencies(records),
    }


def write_document(doc: dict, path) -> Path:
    """Write a bench document (this module's or ``repro.serve.bench``'s)
    the way :func:`load_baseline` reads it back."""
    return write_json(path, doc, sort_keys=True)


def write_baseline(records: Sequence[BenchRecord], path) -> Path:
    return write_document(to_document(records), path)


def load_baseline(path, gate=None) -> dict:
    """Read a committed bench document that ``gate`` (default: this
    module's :func:`compare`) can compare against;
    :class:`ArtifactFormatError` otherwise.  Gating the document against
    itself reads every case and metric a real comparison will, so a
    malformed body fails here, before any matrix runs."""
    doc = read_json(path, "baseline", SCHEMA_VERSION)
    try:
        (gate or compare)(doc, doc)
    except (AttributeError, KeyError, TypeError) as error:
        raise ArtifactFormatError(
            f"baseline {path}: cases cannot be compared "
            f"({type(error).__name__}: {error})"
        ) from error
    return doc


def compare_cases(
    current: dict,
    baseline: dict,
    tolerance: float,
    require_all: bool,
    *,
    relative: Sequence[str] = (),
    absolute: Sequence[str] = (),
    exact: Sequence[str] = (),
) -> list[str]:
    """Per-case drift messages, driven by three metric lists.

    ``relative`` metrics (scale-dependent quantities) gate on relative
    drift beyond ``tolerance``, ``absolute`` ones (ratios in [0, 1]) on
    absolute drift, and ``exact`` ones (seeded counts) on any change at
    all.  A baseline case the current run lacks is a problem only under
    ``require_all``.
    """
    problems: list[str] = []

    def rel(cur: float, base: float) -> float:
        if base == 0.0:
            return math.inf if cur else 0.0
        return abs(cur - base) / abs(base)

    for name, base_case in sorted(baseline.get("cases", {}).items()):
        cur_case = current.get("cases", {}).get(name)
        if cur_case is None:
            if require_all:
                problems.append(f"{name}: missing from current run")
            continue
        for metric in relative:
            drift = rel(cur_case[metric], base_case[metric])
            if drift > tolerance:
                problems.append(
                    f"{name}: {metric} drifted {drift:.1%} "
                    f"({base_case[metric]:.6g} -> {cur_case[metric]:.6g})"
                )
        for metric in absolute:
            drift = abs(cur_case[metric] - base_case[metric])
            if drift > tolerance:
                problems.append(
                    f"{name}: {metric} drifted {drift:.3f} "
                    f"({base_case[metric]:.4f} -> {cur_case[metric]:.4f})"
                )
        for metric in exact:
            if cur_case[metric] != base_case[metric]:
                problems.append(
                    f"{name}: {metric} changed "
                    f"({base_case[metric]} -> {cur_case[metric]}) — seeded "
                    "replay is no longer identical"
                )
    return problems


def compare(
    current: dict,
    baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    require_all: bool = True,
) -> list[str]:
    """Drift messages between two bench documents (empty = gate passes).

    Relative drift beyond ``tolerance`` on step time or peak memory,
    and absolute drift beyond ``tolerance`` on the ratio metrics
    (efficiency, exposed-comm fraction), is a regression *or* an
    unacknowledged improvement — either way the committed baseline no
    longer describes the system, so the gate fails until it is
    regenerated (``repro bench --out BENCH_obs.json``).
    """
    problems = compare_cases(
        current, baseline, tolerance, require_all,
        relative=("step_time_s", "peak_memory_bytes"),
        absolute=("exposed_comm_fraction",),
    )
    for model, base_eff in sorted(baseline.get("efficiency", {}).items()):
        cur_eff = current.get("efficiency", {}).get(model)
        if cur_eff is None:
            if require_all:
                problems.append(f"efficiency[{model}]: missing from current run")
            continue
        for gpus, base_value in sorted(base_eff["points"].items()):
            cur_value = cur_eff["points"].get(gpus)
            if cur_value is None:
                if require_all:
                    problems.append(f"efficiency[{model}][{gpus}]: missing point")
                continue
            drift = abs(cur_value - base_value)
            if drift > tolerance:
                problems.append(
                    f"efficiency[{model}][{gpus} GPUs] drifted {drift:.3f} "
                    f"({base_value:.4f} -> {cur_value:.4f})"
                )
    return problems


def summary_table(doc: dict) -> str:
    """Paper-style text table of a bench document."""
    from repro.experiments.common import format_table

    rows = []
    for name, case in sorted(doc["cases"].items()):
        model = case["model"]
        eff = None
        if case.get("pp_size", 1) == 1:  # pipelined cases sit outside the series
            eff = doc["efficiency"].get(model, {}).get("points", {}).get(
                str(case["num_gpus"])
            )
        rows.append(
            [
                name,
                case["num_gpus"],
                f"{case['step_time_s']:.6f}",
                f"{case['time_per_obs_s']:.6f}",
                f"{eff:.0%}" if eff is not None else "-",
                f"{case['exposed_comm_fraction']:.3f}",
                f"{case['peak_memory_bytes'] / 2**30:.2f} GiB",
                case["bound_resource"],
            ]
        )
    return format_table(
        ["case", "GPUs", "step_s", "s/obs", "E", "exp-comm", "peak mem", "bound"],
        rows,
        title="repro bench: trace-derived performance matrix",
    )
