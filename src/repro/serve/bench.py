"""Latency/throughput bench for the serving front-end (``BENCH_serve.json``).

Runs a fixed matrix of seeded workloads — three offered-load levels
over the same small forecast world — and records the serving headline
numbers: p50/p99 latency, throughput, cache-hit ratio, rejection
count, replica peak, utilization.  Everything downstream of the seeds
is pure-float simulated arithmetic (open-loop arrivals, cost-model
service times, deterministic event ordering), so the committed
baseline only moves when a code change moves the modeled system — the
same contract as ``BENCH_obs.json``, gated by the same CI tolerance
check (``repro serve --check``).

The world is deliberately tiny (8x16 grid, four variables, an
untrained seeded model): the bench measures the *serving* system —
queueing, batching, caching, scaling — not forecast skill, and an
untrained model runs the identical code path at a fraction of the
cost.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

# BENCH_serve.json shares BENCH_obs.json's file format (and schema
# number), so the reader, the writer and the case comparison are the
# harness's.
from repro.bench import harness
from repro.bench.harness import compare_cases, write_document
from repro.serve.loadgen import LoadSpec, generate_requests
from repro.serve.policy import ServePolicy
from repro.serve.server import ForecastServer
from repro.utils.logging import get_logger

_LOG = get_logger("serve.bench")

#: Format version of ``BENCH_serve.json``.
SCHEMA_VERSION = 1

#: Default drift tolerance for the regression gate (fractional).
DEFAULT_TOLERANCE = 0.05

#: The served variable sets (two micro-batch compatibility classes).
_VAR_CHOICES = (
    ("2m_temperature",),
    ("2m_temperature", "geopotential_500"),
)

#: Geometry of the serving model: all four world channels in and out
#: (a rollout model), on the bench world's 8x16 grid.  ``repro serve``
#: builds its Session's :class:`~repro.models.configs.OrbitConfig`
#: from these so the gathered weights drop straight into the world.
SERVE_CONFIG_KWARGS = dict(
    embed_dim=16, depth=1, num_heads=2, in_vars=4, out_vars=4,
    img_height=8, img_width=16, patch_size=4,
)

_BASE_LOAD = LoadSpec(
    rate_rps=25.0,
    duration_s=4.0,
    seed=0,
    num_windows=48,
    num_hot=4,
    hot_fraction=0.85,
    lead_choices=(2, 4, 8),
    var_choices=_VAR_CHOICES,
)


@dataclass(frozen=True)
class ServeBenchCase:
    """One point of the serving bench matrix."""

    name: str
    load: LoadSpec
    policy: ServePolicy = ServePolicy()
    #: Included in the ``--quick`` subset (CI time limits).
    quick: bool = False


#: The committed matrix: four offered-load levels over the same world.
#: The two hot-window workloads are where the prefix cache earns its
#: >0.5 hit ratio on one replica; the cold (uniform) workload
#: overflows the 32-entry cache and drives the autoscaler up; the
#: surge saturates the 4-replica ceiling and exercises admission
#: control (rejections).
DEFAULT_MATRIX: tuple[ServeBenchCase, ...] = (
    ServeBenchCase("hot-25rps", _BASE_LOAD, quick=True),
    ServeBenchCase(
        "hot-150rps", replace(_BASE_LOAD, rate_rps=150.0, duration_s=2.5),
    ),
    ServeBenchCase(
        "cold-300rps",
        replace(_BASE_LOAD, rate_rps=300.0, duration_s=1.5, hot_fraction=0.0),
    ),
    ServeBenchCase(
        "surge-800rps",
        replace(_BASE_LOAD, rate_rps=800.0, duration_s=1.0, hot_fraction=0.0),
    ),
)


def build_serve_world(seed: int = 0, model=None):
    """The shared bench world: ``(dataset, forecaster)``.

    An 8x16 grid with one static and three dynamic variables, the
    synthetic-ERA5 2020 evaluation year as the synoptic windows, and a
    tiny seeded (untrained) model wrapped in a
    :class:`~repro.eval.rollout.RolloutForecaster`.  ``out_names``
    covers every channel because the rollout feeds its output back as
    the next input; requests select their variables at finalize time.

    ``model`` overrides the built-in seeded model — the ``repro
    serve --smoke`` path passes a
    :meth:`~repro.runtime.session.Session.serving_model` here, so the
    Session→serve hand-off runs through the same world.  It must match
    :data:`SERVE_CONFIG_KWARGS` geometry.
    """
    from repro.data import LatLonGrid, Normalizer, SyntheticERA5, default_registry
    from repro.data.dataset import ClimateDataset
    from repro.eval.rollout import RolloutForecaster
    from repro.models import OrbitConfig, build_model

    names = ["land_sea_mask", "2m_temperature", "temperature_850",
             "geopotential_500"]
    registry = default_registry(91).subset(names)
    era5 = SyntheticERA5(LatLonGrid(8, 16), registry, seed=1979,
                         steps_per_year=64)
    test = era5.test()
    dataset = ClimateDataset(
        era5.system,
        start_step=test.start_step,
        num_steps=test.num_steps,
        out_names=list(registry.names),
        name="serve-bench",
    )
    normalizer = Normalizer.fit(dataset, num_samples=16)
    if model is None:
        model = build_model(
            OrbitConfig("serve-bench", **SERVE_CONFIG_KWARGS), rng=seed
        )
    return dataset, RolloutForecaster(model, normalizer)


def run_serve_case(case: ServeBenchCase, world=None) -> dict:
    """Run one workload; returns the case's bench record (a dict)."""
    if world is None:
        world = build_serve_world()
    dataset, forecaster = world
    server = ForecastServer(forecaster, dataset, case.policy)
    report = server.serve(generate_requests(case.load))
    stats = report.stats()
    _LOG.info(
        "serve bench %s: %d/%d ok, p99 %.4fs, %.1f rps, hit %.2f",
        case.name, stats["completed"], stats["offered"],
        stats["latency_p99_s"], stats["throughput_rps"],
        stats["cache_hit_ratio"],
    )
    record = {"load": case.load.as_dict()}
    record.update(stats)
    return record


def run_serve_matrix(
    cases=DEFAULT_MATRIX, quick: bool = False, world=None
) -> dict[str, dict]:
    """Run the matrix (or its ``quick`` subset); ``{name: record}``."""
    selected = [c for c in cases if c.quick] if quick else list(cases)
    if not selected:
        raise ValueError("serve bench matrix selection is empty")
    if world is None:
        world = build_serve_world()
    return {case.name: run_serve_case(case, world) for case in selected}


# -- baseline files ----------------------------------------------------------
def to_document(records: dict[str, dict]) -> dict:
    """The ``BENCH_serve.json`` document for a set of case records."""
    return {
        "schema": SCHEMA_VERSION,
        "tolerance": DEFAULT_TOLERANCE,
        "cases": dict(sorted(records.items())),
    }


def write_baseline(records: dict[str, dict], path) -> Path:
    return write_document(to_document(records), path)


def compare(
    current: dict,
    baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    require_all: bool = True,
) -> list[str]:
    """Drift messages between two serve bench documents (empty = pass).

    Latencies and throughput gate on relative drift, ratio metrics on
    absolute drift, and the seeded counts (offered / completed /
    rejected / model steps) must match exactly — a changed count means
    the deterministic replay itself changed, which is never a rounding
    story.
    """
    return compare_cases(
        current, baseline, tolerance, require_all,
        relative=("latency_p50_s", "latency_p99_s", "throughput_rps",
                  "makespan_s"),
        absolute=("cache_hit_ratio", "utilization"),
        exact=("offered", "completed", "rejected", "model_steps"),
    )


def load_baseline(path) -> dict:
    """Read a ``BENCH_serve.json`` this module's :func:`compare` can gate
    against (:func:`repro.bench.harness.load_baseline`)."""
    return harness.load_baseline(path, compare)


def summary_table(doc: dict) -> str:
    """Paper-style text table of a serve bench document."""
    from repro.experiments.common import format_table

    rows = []
    for name, case in sorted(doc["cases"].items()):
        rows.append(
            [
                name,
                case["offered"],
                case["rejected"],
                f"{case['throughput_rps']:.1f}",
                f"{case['latency_p50_s'] * 1e3:.2f}",
                f"{case['latency_p99_s'] * 1e3:.2f}",
                f"{case['cache_hit_ratio']:.2f}",
                case["replicas_peak"],
                f"{case['utilization']:.2f}",
            ]
        )
    return format_table(
        ["case", "offered", "rej", "rps", "p50 ms", "p99 ms", "hit", "peak R",
         "util"],
        rows,
        title="repro serve: latency/throughput under seeded load",
    )
