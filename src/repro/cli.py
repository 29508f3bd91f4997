"""Command-line interface: regenerate any paper table/figure.

Usage::

    python -m repro fig5                 # max model size per parallelism
    python -m repro table1               # optimization ablation
    python -m repro fig6                 # (FSDP, TP) configuration sweep
    python -m repro fig7 --channels 91   # strong scaling
    python -m repro fig8 --steps 80      # pre-training loss (real training)
    python -m repro fig9                 # wACC comparison (real training)
    python -m repro fig10                # fine-tuning data efficiency
    python -m repro trace                # traced step: Chrome trace + report
    python -m repro analyze              # critical-path + health analysis
    python -m repro bench --check        # performance-regression gate
    python -m repro tune                 # automatic parallelism planner
    python -m repro faults --plan p.json # replay a fault plan, print recovery
    python -m repro monitor              # live telemetry: alerts + event journal
    python -m repro replan               # adaptive re-planning demo scenario
"""

from __future__ import annotations

import argparse
import math
import sys


def _add_topology_args(sub_parser: argparse.ArgumentParser) -> None:
    """Shared simulated-cluster topology flags (``trace`` / ``analyze``)."""
    sub_parser.add_argument(
        "--gpus", type=int, default=16, help="world size (default: 2 nodes)"
    )
    sub_parser.add_argument("--gpus-per-node", type=int, default=8)
    sub_parser.add_argument("--tp", type=int, default=4, help="tensor-parallel group size")
    sub_parser.add_argument("--fsdp", type=int, default=2, help="FSDP group size")
    sub_parser.add_argument("--ddp", type=int, default=2, help="DDP replica count")
    sub_parser.add_argument("--micro-batch", type=int, default=2)
    sub_parser.add_argument("--seed", type=int, default=0)
    sub_parser.add_argument(
        "--no-prefetch", action="store_true", help="disable gather prefetch"
    )
    sub_parser.add_argument(
        "--steps", type=int, default=1, help="number of optimizer steps to trace"
    )
    sub_parser.add_argument(
        "--skew",
        action="append",
        default=[],
        metavar="RANK=FACTOR",
        help="slow down RANK's compute by FACTOR (straggler injection; repeatable)",
    )


class _UsageError(Exception):
    """A bad invocation; :func:`main` prints the message to stderr and
    exits 2 (the one place that does)."""


def _add_plan_args(
    sub_parser: argparse.ArgumentParser, plan_help: str, checkpoint_help: str
) -> None:
    """Shared fault-plan flags (``faults`` / ``monitor``)."""
    sub_parser.add_argument("--plan", default=None, metavar="JSON", help=plan_help)
    sub_parser.add_argument(
        "--random", type=int, default=None, metavar="SEED",
        help="generate a seeded random fault plan instead of reading one",
    )
    sub_parser.add_argument(
        "--count", type=int, default=3,
        help="number of injections for --random (default: 3)",
    )
    sub_parser.add_argument(
        "--numeric", action="store_true",
        help="run real numeric training instead of meta (shape-only) mode",
    )
    sub_parser.add_argument(
        "--checkpoint-every", type=int, default=2, metavar="STEPS",
        help=checkpoint_help,
    )
    sub_parser.add_argument(
        "--checkpoint-dir", default=None,
        help="where periodic checkpoints land (default: a temp directory)",
    )


def _add_gate_args(
    sub_parser: argparse.ArgumentParser, document: str, baseline: str,
    quick_help: str,
) -> None:
    """Shared BENCH-gate flags (``bench`` / ``serve``)."""
    sub_parser.add_argument(
        "--out", default=None, help=f"write the {document} ({baseline}) here"
    )
    sub_parser.add_argument(
        "--check",
        action="store_true",
        help="compare against --baseline and exit 1 on drift beyond --tolerance",
    )
    sub_parser.add_argument("--baseline", default=baseline)
    sub_parser.add_argument("--tolerance", type=float, default=0.05)
    sub_parser.add_argument("--quick", action="store_true", help=quick_help)


def _trace_config():
    """The tiny traced-step model ``trace``/``analyze``/``faults``/``monitor`` run."""
    from repro.models import OrbitConfig
    from repro.obs.capture import TRACE_CONFIG_KWARGS

    return OrbitConfig("trace-tiny", **TRACE_CONFIG_KWARGS)


def _topology_spec(args: argparse.Namespace, config=None, **overrides):
    """The :class:`~repro.runtime.spec.RunSpec` the ``_add_topology_args``
    flags describe, plus ``overrides``: an invalid topology exits 2 with
    the explanation.

    Validation lives in :class:`~repro.runtime.spec.RunSpec`; this just
    rewrites field names into the CLI's flag spellings.
    """
    from repro.runtime import RunSpec, RunSpecError

    fields = dict(
        config=config or _trace_config(),
        num_gpus=args.gpus,
        gpus_per_node=args.gpus_per_node,
        tp_size=args.tp,
        fsdp_size=args.fsdp,
        ddp_size=args.ddp,
        micro_batch=args.micro_batch,
        num_steps=args.steps,
    )
    fields.update(overrides)
    try:
        return RunSpec(**fields)
    except RunSpecError as error:
        raise _UsageError(_flag_names(error))


def _flag_names(error: Exception) -> str:
    """A :class:`~repro.runtime.spec.RunSpecError` message with its
    field names spelled as the CLI flags that set them."""
    return (
        str(error)
        .replace("num_gpus", "--gpus")
        .replace("gpus_per_node", "--gpus-per-node")
        .replace("num_steps", "--steps")
        .replace("micro_batch", "--micro-batch")
        .replace("pp_sizes", "--pp")
        .replace("compute_skew", "--skew")
        .replace("seed", "--seed")
    )


def _parse_skew(pairs: list[str]) -> dict[int, float]:
    """``--skew RANK=FACTOR`` pairs; the ranks and factors themselves
    are validated by the spec they go into."""
    skew: dict[int, float] = {}
    for pair in pairs:
        try:
            rank_text, factor_text = pair.split("=", 1)
            skew[int(rank_text)] = float(factor_text)
        except ValueError:
            raise _UsageError(f"invalid --skew {pair!r}: expected RANK=FACTOR")
    return skew


def _check_positive(args: argparse.Namespace, *flags: str) -> None:
    """Each integer ``flag`` is at least 1, or exit 2 naming it."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value < 1:
            raise _UsageError(f"repro {args.command}: {flag} {value} must be at least 1")


def _check_recovery_flags(args: argparse.Namespace) -> None:
    """``bench``/``tune``'s goodput-model flags, checked before anything
    runs: ``--mtbf`` finite and > 0, the costs finite and >= 0, or exit
    2 naming the flag."""
    if args.mtbf is not None and not (math.isfinite(args.mtbf) and args.mtbf > 0):
        raise _UsageError(
            f"repro {args.command}: --mtbf {args.mtbf} must be finite and > 0"
        )
    for flag in ("--checkpoint-cost", "--restart-latency"):
        value = getattr(args, flag[2:].replace("-", "_"), 0.0)
        if not (math.isfinite(value) and value >= 0):
            raise _UsageError(
                f"repro {args.command}: {flag} {value} must be finite and >= 0"
            )


def _int_list(flag: str, text: str) -> tuple[int, ...]:
    """The comma-separated positive integers of ``tune``'s and
    ``crossover``'s list flags; raises ``ValueError`` naming ``flag``."""
    try:
        values = tuple(int(token) for token in text.split(",") if token)
    except ValueError:
        values = ()
    if not values or min(values) < 1:
        raise ValueError(f"{flag} {text!r} must be comma-separated positive integers")
    return values


def _traced_step(args: argparse.Namespace, out_dir=None):
    """Run the traced step the topology flags describe, validated first."""
    from repro.obs.capture import run_traced_spec

    spec = _topology_spec(
        args,
        meta=False,
        prefetch=not args.no_prefetch,
        seed=args.seed,
        compute_skew=_parse_skew(args.skew),
    )
    return run_traced_spec(spec, out_dir=out_dir)


def _plan_from_args(args: argparse.Namespace, required: bool = False):
    """The fault plan ``--plan`` / ``--random`` name (``None`` without
    either, unless ``required``); an unusable one exits 2."""
    from repro.faults import FaultPlan

    seed = getattr(args, "random", None)
    try:
        if args.plan is not None and seed is not None:
            raise ValueError("--plan and --random are mutually exclusive")
        if args.plan is not None:
            return FaultPlan.from_json(args.plan)
        if seed is not None:
            if args.count < 0:
                raise ValueError(f"--count {args.count} must be non-negative")
            return FaultPlan.random(seed, args.steps, args.gpus, count=args.count)
        if required:
            raise ValueError("one of --plan or --random is required")
    except (OSError, ValueError) as error:
        raise _UsageError(f"repro {args.command}: invalid plan: {error}")
    return None


def _supervisor_from_args(args: argparse.Namespace, spec, plan, **kwargs):
    """The ``faults`` / ``monitor`` Supervisor: periodic checkpoints in
    ``--checkpoint-dir`` (default: a temp directory)."""
    import tempfile

    from repro.faults import Supervisor

    checkpoint_dir = args.checkpoint_dir or tempfile.mkdtemp(
        prefix=f"repro-{args.command}-"
    )
    try:
        return Supervisor(
            spec,
            plan,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=checkpoint_dir if args.checkpoint_every else None,
            **kwargs,
        )
    except ValueError as error:
        raise _UsageError(f"repro {args.command}: {error}")


def _run_gate(args: argparse.Namespace, bench, run, notes=()):
    """The BENCH gate of ``bench`` and ``serve``: load ``--baseline``
    (before the matrix runs, so a bad file costs nothing), run the
    matrix, print the table, write ``--out``, ``--check`` for drift.

    ``bench`` is the module holding the document functions
    (:mod:`repro.bench` or :mod:`repro.serve.bench`), ``run`` produces
    its records.  Returns ``(exit status, document)``.
    """
    from repro.utils.artifacts import ArtifactFormatError

    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise _UsageError(
            f"repro {args.command}: --tolerance {args.tolerance} must be finite and >= 0"
        )
    baseline = None
    if args.check:
        try:
            baseline = bench.load_baseline(args.baseline)
        except ArtifactFormatError as error:
            raise _UsageError(f"repro {args.command}: {error}")
    records = run()
    doc = bench.to_document(records)
    print(bench.summary_table(doc))
    for note in notes:
        print(note)
    if args.out:
        print(f"wrote {bench.write_baseline(records, args.out)}")
    if baseline is not None:
        problems = bench.compare(
            doc, baseline, tolerance=args.tolerance, require_all=not args.quick
        )
        if problems:
            for problem in problems:
                print(f"DRIFT: {problem}", file=sys.stderr)
            print(
                f"{args.command} regression gate FAILED: {len(problems)} "
                f"metric(s) beyond the {args.tolerance:.0%} tolerance vs "
                f"{args.baseline}",
                file=sys.stderr,
            )
            return 1, doc
        print(
            f"{args.command} regression gate OK (tolerance {args.tolerance:.0%})"
        )
    return 0, doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the ORBIT paper's tables and figures.",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON-lines logs (rank/step/phase fields)",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        help="enable library logging at this level (e.g. INFO, DEBUG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig5 = sub.add_parser("fig5", help="maximal model size per parallelism (Fig 5)")
    fig5.add_argument("--max-gpus", type=int, default=512)

    sub.add_parser("table1", help="optimization ablation (Table I)")

    fig6 = sub.add_parser("fig6", help="(FSDP, TP) group-size sweep (Fig 6)")
    fig6.add_argument("--gpus", type=int, default=512)

    fig7 = sub.add_parser("fig7", help="strong scaling (Fig 7)")
    fig7.add_argument("--channels", type=int, default=48, choices=(48, 91))

    fig8 = sub.add_parser("fig8", help="pre-training loss by size (Fig 8; trains)")
    fig8.add_argument("--steps", type=int, default=80)
    fig8.add_argument("--seed", type=int, default=0)

    fig9 = sub.add_parser("fig9", help="wACC lead-time comparison (Fig 9; trains)")
    fig9.add_argument("--pretrain-steps", type=int, default=400)
    fig9.add_argument("--finetune-steps", type=int, default=250)
    fig9.add_argument("--seed", type=int, default=0)

    fig10 = sub.add_parser("fig10", help="fine-tuning data efficiency (Fig 10; trains)")
    fig10.add_argument("--seed", type=int, default=0)

    crossover = sub.add_parser(
        "crossover",
        help="pipeline-vs-FSDP crossover at a fixed GCD count (4D tuner study)",
    )
    crossover.add_argument("--gpus", type=int, default=16)
    crossover.add_argument("--gpus-per-node", type=int, default=8)
    crossover.add_argument(
        "--micro-batch", type=int, default=32,
        help="pinned micro-batch (the crossover is a batch-regime statement)",
    )
    crossover.add_argument(
        "--pp", default="1,2", metavar="S[,S...]",
        help="comma-separated pipeline depths to rank (default: 1,2)",
    )
    crossover.add_argument(
        "--no-validate", action="store_true",
        help="skip the simulated engine step for the two front-runners",
    )

    everything = sub.add_parser(
        "all", help="run every analytic table/figure and write them to a directory"
    )
    everything.add_argument("--out", default="results")

    trace = sub.add_parser(
        "trace",
        help="run traced Hybrid-STOP steps; write a Chrome trace and step report",
    )
    _add_topology_args(trace)
    trace.add_argument("--out", default="results/trace", help="output directory")

    analyze = sub.add_parser(
        "analyze",
        help="critical-path attribution and run-health findings for a traced run",
    )
    _add_topology_args(analyze)
    analyze.add_argument(
        "--trace",
        default=None,
        metavar="TRACE_EVENTS_JSON",
        help="re-analyze a trace_events.json written by `repro trace` "
        "instead of running a fresh simulated step",
    )

    bench = sub.add_parser(
        "bench",
        help="run the performance-regression matrix (trace-derived metrics)",
    )
    _add_gate_args(
        bench, "bench document", "BENCH_obs.json", "run only the quick (115M) subset"
    )
    bench.add_argument(
        "--mtbf", type=float, default=None, metavar="SECONDS",
        help="also report expected goodput under this mean time between failures",
    )
    bench.add_argument(
        "--checkpoint-cost", type=float, default=30.0, metavar="SECONDS",
        help="checkpoint write cost for the goodput model (default: 30)",
    )
    bench.add_argument(
        "--restart-latency", type=float, default=120.0, metavar="SECONDS",
        help="restart latency for the goodput model (default: 120)",
    )
    bench.add_argument(
        "--timeseries", default=None, metavar="DIR",
        help="also monitor each case and write per-case timeseries JSONL here",
    )

    tune = sub.add_parser(
        "tune",
        help="search PPxTPxFSDPxDDP configurations; validate winners in simulation",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  repro tune                                # ORBIT-115M on 2 nodes\n"
            "  repro tune --model orbit-1b --gpus 32     # ORBIT-1B on 4 nodes\n"
            "  repro tune --micro-batches 2 --top-k 5    # pin mb, validate 5\n"
            "  repro tune --pp 1,2,4                     # widen to the 4D space\n"
            "  repro tune --cache tune_cache.json --out tune_report.json\n"
            "\n"
            "exits 2 when no configuration is both legal and memory-feasible."
        ),
    )
    tune.add_argument(
        "--model",
        default="orbit-115m",
        choices=("orbit-115m", "orbit-1b", "orbit-10b", "orbit-113b"),
        help="paper model to plan for",
    )
    tune.add_argument("--gpus", type=int, default=16, help="world size (default: 2 nodes)")
    tune.add_argument("--gpus-per-node", type=int, default=8)
    tune.add_argument(
        "--micro-batches",
        default="1,2,4",
        metavar="N[,N...]",
        help="comma-separated micro-batch sizes to sweep (default: 1,2,4)",
    )
    tune.add_argument(
        "--pp",
        default="1",
        metavar="S[,S...]",
        help=(
            "comma-separated pipeline depths to sweep (default: 1, the 3D "
            "space); depths beyond the model's layer count are rejected"
        ),
    )
    tune.add_argument(
        "--top-k", type=int, default=3,
        help="how many leaders to validate with real simulated steps",
    )
    tune.add_argument(
        "--cache", default=None, metavar="JSON",
        help="JSON file caching simulated validations across runs",
    )
    tune.add_argument(
        "--out", default=None, metavar="JSON", help="write the full report here"
    )
    tune.add_argument(
        "--mtbf", type=float, default=None, metavar="SECONDS",
        help="also print a recovery-aware checkpoint-interval recommendation",
    )
    tune.add_argument(
        "--checkpoint-cost", type=float, default=30.0, metavar="SECONDS",
        help="checkpoint write cost for the --mtbf recommendation (default: 30)",
    )

    faults = sub.add_parser(
        "faults",
        help="replay a fault plan under the self-healing supervisor",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  repro faults --plan examples/fault_plan.json\n"
            "  repro faults --random 7 --count 4 --steps 12\n"
            "  repro faults --plan p.json --numeric --checkpoint-every 2\n"
            "\n"
            "exits 1 when any injected fault goes unrecovered, 2 on an\n"
            "invalid topology or plan."
        ),
    )
    _add_topology_args(faults)
    _add_plan_args(
        faults,
        "fault-plan document to replay (see repro.faults.plan)",
        "periodic checkpoint cadence for rollback recovery (default: 2)",
    )
    faults.add_argument(
        "--out", default=None, metavar="JSON",
        help="write the recovery report document here",
    )
    faults.set_defaults(steps=8)

    serve = sub.add_parser(
        "serve",
        help="serve forecasts: micro-batching, prefix caching, autoscaling",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  repro serve --smoke                       # full-stack smoke + invariant checks\n"
            "  repro serve --smoke --artifacts results/serve\n"
            "  repro serve --out BENCH_serve.json        # regenerate the bench baseline\n"
            "  repro serve --check                       # serving regression gate\n"
            "\n"
            "exits 1 when --check finds drift or a smoke invariant fails,\n"
            "2 on an invalid topology or serving policy."
        ),
    )
    _add_topology_args(serve)
    # The served model is tiny (4 channels, 8x16); default to one node
    # with a legal (tp=2, fsdp=2, ddp=2) factorization for it.
    serve.set_defaults(gpus=8, tp=2, fsdp=2, ddp=2, micro_batch=1, steps=1)
    serve.add_argument(
        "--smoke", action="store_true",
        help="run a small seeded workload through the Session hand-off and "
        "verify the serving invariants (bitwise parity, replay determinism)",
    )
    serve.add_argument(
        "--rate", type=float, default=50.0,
        help="--smoke offered load in requests/s (default: 50)",
    )
    serve.add_argument(
        "--duration", type=float, default=1.0,
        help="--smoke workload duration in simulated seconds (default: 1)",
    )
    serve.add_argument(
        "--load-seed", type=int, default=0,
        help="--smoke workload seed (default: 0)",
    )
    serve.add_argument(
        "--hot-fraction", type=float, default=0.8,
        help="--smoke fraction of requests hitting the hot windows",
    )
    serve.add_argument("--max-batch", type=int, default=8)
    serve.add_argument(
        "--window-ms", type=float, default=5.0,
        help="micro-batch coalescing window in milliseconds (default: 5)",
    )
    serve.add_argument("--queue-limit", type=int, default=256)
    serve.add_argument("--cache-entries", type=int, default=32)
    serve.add_argument("--min-replicas", type=int, default=1)
    serve.add_argument("--max-replicas", type=int, default=4)
    _add_gate_args(
        serve, "serving bench document", "BENCH_serve.json",
        "run only the quick bench subset",
    )
    serve.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="write journal.jsonl and latency_histogram.json artifacts here",
    )

    monitor = sub.add_parser(
        "monitor",
        help="run with streaming telemetry: live alerts, timeseries, event journal",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  repro monitor --steps 12\n"
            "  repro monitor --plan examples/fault_plan.json\n"
            "  repro monitor --random 7 --count 4 --json\n"
            "  repro monitor --steps 8 --out results/monitor\n"
            "\n"
            "tails the event journal live, then prints an end-of-run summary\n"
            "table.  exits 1 when any critical alert fired (or an injected\n"
            "fault went unrecovered), 2 on an invalid topology or plan."
        ),
    )
    _add_topology_args(monitor)
    _add_plan_args(
        monitor,
        "replay this fault plan under the supervisor while monitoring",
        "supervisor checkpoint cadence when a plan is given (default: 2)",
    )
    monitor.add_argument(
        "--quiet", action="store_true",
        help="suppress the live journal tail (summary still prints)",
    )
    monitor.add_argument(
        "--json", action="store_true",
        help="print the machine-readable monitor document instead of tables",
    )
    monitor.add_argument(
        "--out", default=None, metavar="DIR",
        help="write journal.jsonl and timeseries.jsonl artifacts here",
    )
    monitor.set_defaults(steps=8)

    replan = sub.add_parser(
        "replan",
        help="replay a degradation scenario under the adaptive re-planner",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  repro replan                                 # built-in straggler demo\n"
            "  repro replan --plan examples/replan_straggler.json\n"
            "  repro replan --compare                       # replan on-vs-off walltime\n"
            "  repro replan --out results/replan            # journal + report artifacts\n"
            "\n"
            "runs the seeded demo model (compute ~ comm, so degraded plan\n"
            "rankings actually differ) under the self-healing supervisor with\n"
            "spec.replan='on'.  exits 1 when no replan decision was journaled,\n"
            "a fault went unrecovered, or --compare finds replan=on no faster\n"
            "over the same steps than replan=off;\n"
            "2 on an invalid topology or plan."
        ),
    )
    replan.add_argument(
        "--plan", default=None, metavar="JSON",
        help="fault plan to replay (default: the built-in x8 lead-rank "
        "straggler, examples/replan_straggler.json)",
    )
    # Unset flags (None) keep the demo scenario's values
    # (repro.replan.scenario), which _cmd_replan fills in.
    replan.add_argument("--steps", type=int)
    replan.add_argument("--gpus", type=int, help="world size")
    replan.add_argument("--gpus-per-node", type=int)
    replan.add_argument("--tp", type=int, help="tensor-parallel group size")
    replan.add_argument("--fsdp", type=int, help="FSDP group size")
    replan.add_argument("--ddp", type=int, help="DDP replica count")
    replan.add_argument("--micro-batch", type=int)
    replan.add_argument(
        "--no-recompute", action="store_true",
        help="start without activation checkpointing (the demo starts with it)",
    )
    replan.add_argument(
        "--hysteresis", type=float, metavar="FRACTION",
        help="break-even margin the projected gain must clear (default: 0.25)",
    )
    replan.add_argument(
        "--checkpoint-cost", type=float, metavar="SECONDS",
        help="checkpoint write charge (default scaled to the demo model)",
    )
    replan.add_argument(
        "--restart-latency", type=float, metavar="SECONDS",
        help="session rebuild charge (default scaled to the demo model)",
    )
    replan.add_argument(
        "--warmup", type=float, metavar="SECONDS",
        help="new-plan warm-up surcharge of the migration cost model",
    )
    replan.add_argument(
        "--checkpoint-every", type=int, metavar="STEPS",
        help="periodic durable checkpoint cadence (default: 4)",
    )
    replan.add_argument(
        "--compare", action="store_true",
        help="also run the identical scenario with replan='off'; the win is "
        "the walltime saved over the same committed steps (goodput fractions "
        "are printed, not compared: each run's useful seconds are its own "
        "plan's step time)",
    )
    replan.add_argument(
        "--quiet", action="store_true",
        help="suppress the live replan-event tail",
    )
    replan.add_argument(
        "--out", default=None, metavar="DIR",
        help="write journal.jsonl and replan_report.json artifacts here",
    )

    return parser


# -- subcommands: one ``_cmd_<name>(args) -> int`` each ----------------------------
# Imports deferred so `--help` stays instant.
def _print_table(args: argparse.Namespace, driver: str, **kwargs) -> int:
    """Run ``repro.experiments.<driver>`` and print its paper-style
    table; a seed the driver rejects up front exits 2."""
    import repro.experiments as experiments
    from repro.utils.seeding import SeedError

    try:
        table = getattr(experiments, driver).run(**kwargs).format()
    except SeedError as error:
        raise _UsageError(f"repro {args.command}: --{error}")
    print(table)
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    _check_positive(args, "--max-gpus")
    counts = tuple(n for n in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512) if n <= args.max_gpus)
    return _print_table(args, "fig5_max_model_size", gpu_counts=counts)


def _cmd_table1(args: argparse.Namespace) -> int:
    return _print_table(args, "table1_optimizations")


def _cmd_fig6(args: argparse.Namespace) -> int:
    if args.gpus < 1 or args.gpus % 8:
        raise _UsageError(
            f"repro fig6: --gpus {args.gpus} must be a positive multiple of 8 "
            "(whole 8-GCD nodes)"
        )
    return _print_table(args, "fig6_parallelism_config", num_gpus=args.gpus)


def _cmd_fig7(args: argparse.Namespace) -> int:
    return _print_table(args, "fig7_strong_scaling", channels=args.channels)


def _cmd_fig8(args: argparse.Namespace) -> int:
    _check_positive(args, "--steps")
    return _print_table(args, "fig8_pretraining_loss", num_steps=args.steps, seed=args.seed)


def _cmd_fig9(args: argparse.Namespace) -> int:
    _check_positive(args, "--pretrain-steps", "--finetune-steps")
    return _print_table(
        args,
        "fig9_wacc",
        pretrain_steps=args.pretrain_steps,
        finetune_steps=args.finetune_steps,
        seed=args.seed,
    )


def _cmd_fig10(args: argparse.Namespace) -> int:
    return _print_table(args, "fig10_data_efficiency", seed=args.seed)


def _cmd_crossover(args: argparse.Namespace) -> int:
    from repro.runtime import RunSpecError
    from repro.tune import InfeasibleRequest

    _check_positive(args, "--gpus", "--gpus-per-node", "--micro-batch")
    try:
        pp_sizes = _int_list("--pp", args.pp)
    except ValueError as error:
        raise _UsageError(f"repro crossover: {error}")
    try:
        return _print_table(
            args,
            "pipeline_crossover",
            num_gpus=args.gpus,
            gpus_per_node=args.gpus_per_node,
            micro_batch=args.micro_batch,
            pp_sizes=pp_sizes,
            validate=not args.no_validate,
        )
    except RunSpecError as error:  # the search request's whole-node rule
        raise _UsageError(f"repro crossover: {_flag_names(error)}")
    except InfeasibleRequest as error:
        raise _UsageError(
            f"repro crossover: {error} (--gpus {args.gpus}, --micro-batch "
            f"{args.micro_batch}, --pp {args.pp})"
        )


def _cmd_all(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments import (
        fig5_max_model_size,
        fig6_parallelism_config,
        fig7_strong_scaling,
        table1_optimizations,
    )
    from repro.utils.artifacts import write_artifact

    out = Path(args.out)
    tables = {
        "fig5.txt": fig5_max_model_size.run().format(),
        "table1.txt": table1_optimizations.run().format(),
        "fig6.txt": fig6_parallelism_config.run().format(),
        "fig7_48ch.txt": fig7_strong_scaling.run(channels=48).format(),
        "fig7_91ch.txt": fig7_strong_scaling.run(channels=91).format(),
    }
    for filename, text in tables.items():
        written = write_artifact(out / filename, text + "\n")
        print(f"wrote {written}")
    print("(training figures: run fig8/fig9/fig10 subcommands separately)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import step_report

    run = _traced_step(args, out_dir=args.out)
    print(step_report(run.tracer, cluster=run.cluster))
    for label, written in sorted(run.files.items()):
        print(f"wrote {written} ({label})")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.obs import (
        analyze_trace,
        check_run,
        critical_path_report,
        health_report,
        load_trace_events,
    )
    from repro.utils.artifacts import ArtifactFormatError

    if args.trace is not None:
        # Offline mode: span-level checks only (no cluster/plan).
        try:
            spans = load_trace_events(args.trace)
        except ArtifactFormatError as exc:
            raise _UsageError(f"repro analyze: {exc}")
        analysis = analyze_trace(spans)
        findings = check_run(spans, analysis=analysis)
    else:
        run = _traced_step(args)
        analysis = analyze_trace(run.tracer)
        findings = check_run(
            run.tracer, cluster=run.cluster, plan=run.plan, analysis=analysis
        )
    print(critical_path_report(analysis))
    print()
    print(health_report(findings))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import repro.bench as bench

    _check_recovery_flags(args)
    notes = []
    if args.timeseries:
        notes.append(f"wrote per-case timeseries under {args.timeseries}/")
    status, doc = _run_gate(
        args,
        bench,
        lambda: bench.run_matrix(quick=args.quick, timeseries_dir=args.timeseries),
        notes,
    )
    if status == 0 and args.mtbf is not None:
        from repro.faults.goodput import bench_goodput, goodput_table

        goodput = bench_goodput(
            doc,
            args.mtbf,
            checkpoint_cost_s=args.checkpoint_cost,
            restart_latency_s=args.restart_latency,
        )
        print()
        print(goodput_table(goodput))
    return status


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.models import PAPER_MODELS
    from repro.runtime import RunSpecError
    from repro.tune import (
        InfeasibleRequest,
        TuneCache,
        TuneRequest,
        render_report,
        run_search,
        write_report,
    )
    from repro.utils.artifacts import ArtifactFormatError

    _check_recovery_flags(args)
    try:
        request = TuneRequest(
            PAPER_MODELS[args.model],
            num_gpus=args.gpus,
            gpus_per_node=args.gpus_per_node,
            micro_batches=_int_list("--micro-batches", args.micro_batches),
            pp_sizes=_int_list("--pp", args.pp),
        )
        if args.top_k < 1:
            raise ValueError(f"--top-k {args.top_k} must be at least 1")
    except RunSpecError as error:
        raise _UsageError(f"repro tune: invalid request: {_flag_names(error)}")
    except ValueError as error:
        raise _UsageError(f"repro tune: invalid request: {error}")
    try:
        cache = TuneCache(args.cache) if args.cache else None
    except ArtifactFormatError as error:
        raise _UsageError(f"repro tune: {error}")
    try:
        result = run_search(request, top_k=args.top_k, cache=cache)
    except InfeasibleRequest as error:
        reasons = sorted(error.space.rejection_reasons().items())
        raise _UsageError("\n".join(
            [f"repro tune: {error}"]
            + [f"  - {reason} (x{count})" for reason, count in reasons]
        ))
    print(render_report(result))
    if args.mtbf is not None:
        from repro.tune.report import recovery_recommendation, render_recovery

        print()
        print(render_recovery(recovery_recommendation(
            result, args.mtbf, checkpoint_cost_s=args.checkpoint_cost
        )))
    if args.out:
        print(f"wrote {write_report(result, args.out)}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.utils.artifacts import write_json

    spec = _topology_spec(
        args,
        prefetch=not args.no_prefetch,
        meta=not args.numeric,
        seed=args.seed,
        compute_skew=_parse_skew(args.skew),
        track_device_memory=False,
    )
    plan = _plan_from_args(args, required=True)
    report = _supervisor_from_args(args, spec, plan).run(args.steps)
    print(report.render())
    if args.out:
        print(f"wrote {write_json(args.out, report.as_dict())}")
    return 0 if report.recovered else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.models import OrbitConfig
    from repro.serve import ServePolicy, bench

    spec = _topology_spec(
        args,
        OrbitConfig("serve-tiny", **bench.SERVE_CONFIG_KWARGS),
        meta=False,
        seed=args.seed,
    )
    # A bad topology is spelled in flags, a bad policy under the
    # command name.
    try:
        policy = ServePolicy(
            max_batch=args.max_batch,
            batch_window_s=args.window_ms / 1e3,
            queue_limit=args.queue_limit,
            cache_entries=args.cache_entries,
            min_replicas=args.min_replicas,
            max_replicas=args.max_replicas,
        )
    except ValueError as policy_error:
        raise _UsageError(f"repro serve: {policy_error}")
    legality = spec.legality_reason()
    if legality is not None:
        raise _UsageError(
            f"repro serve: illegal topology for the serving model: {legality}"
        )
    if args.smoke:
        return _serve_smoke(args, spec, policy)
    return _run_gate(
        args, bench, lambda: bench.run_serve_matrix(quick=args.quick)
    )[0]


def _serve_smoke(args: argparse.Namespace, spec, policy) -> int:
    """``repro serve --smoke``: a seeded load through the Session
    hand-off, served under ``policy`` and held to the serving
    invariants."""
    from pathlib import Path

    from repro.runtime import Session
    from repro.serve import ForecastServer, LoadSpec, generate_requests
    from repro.serve.bench import build_serve_world
    from repro.utils.artifacts import write_artifact

    try:
        load = LoadSpec(
            rate_rps=args.rate,
            duration_s=args.duration,
            seed=args.load_seed,
            num_windows=48,
            num_hot=4,
            hot_fraction=args.hot_fraction,
        )
    except ValueError as load_error:
        message = str(load_error).replace("seed", "--load-seed")
        raise _UsageError(f"repro serve: invalid load: {message}")
    # The full hand-off: sharded Session weights gathered into
    # one serial model, served through the async front-end.
    session = Session(spec)
    dataset, forecaster = build_serve_world(model=session.serving_model())
    requests = generate_requests(load)
    server = ForecastServer(forecaster, dataset, policy)
    report = server.serve(requests)
    stats = report.stats()
    print(
        f"serve smoke: {stats['completed']}/{stats['offered']} ok, "
        f"{stats['rejected']} rejected, p50 "
        f"{stats['latency_p50_s'] * 1e3:.2f} ms, p99 "
        f"{stats['latency_p99_s'] * 1e3:.2f} ms, cache hit "
        f"{stats['cache_hit_ratio']:.2f}, replicas peak "
        f"{stats['replicas_peak']}"
    )
    failures = []
    names = list(dataset.out_names)
    for response in report.completed:
        request = response.request
        direct = forecaster.forecast(
            dataset, request.init_index, request.lead_steps
        )[[names.index(v) for v in request.out_vars]]
        if not (response.result == direct).all():
            failures.append(
                f"request {request.request_id}: served forecast is "
                "not bitwise-equal to the direct rollout"
            )
            break
    replay = ForecastServer(forecaster, dataset, policy)
    replay.serve(requests)
    if server.journal.to_jsonl() != replay.journal.to_jsonl():
        failures.append("seeded replay journal is not byte-identical")
    if args.artifacts:
        out = Path(args.artifacts)
        print(f"wrote {server.journal.write_jsonl(out / 'journal.jsonl')}")
        hist = write_artifact(out / "latency_histogram.json",
                              report.histogram_json())
        print(f"wrote {hist}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "serve invariants OK: bitwise parity with direct rollout, "
        "byte-identical seeded replay"
    )
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import RunMonitor
    from repro.runtime import Session, StepLoop

    spec = _topology_spec(
        args,
        prefetch=not args.no_prefetch,
        meta=not args.numeric,
        seed=args.seed,
        compute_skew=_parse_skew(args.skew),
        monitor="on",
    )
    plan = _plan_from_args(args)
    tail = None if (args.quiet or args.json) else (
        lambda event: print(event.render())
    )
    run_monitor = RunMonitor(on_event=tail)
    recovered = True
    if plan is not None:
        supervisor = _supervisor_from_args(
            args, spec, plan, session_kwargs={"monitor": run_monitor}
        )
        recovered = supervisor.run(args.steps).recovered
    else:
        session = Session(spec, monitor=run_monitor)
        run_monitor.journal.append(
            0, "run", category="start",
            message=f"monitored run: {args.steps} step(s), no faults",
        )
        StepLoop(session.step_fn(), hooks=session.loop_hooks()).run(args.steps)
        run_monitor.journal.append(
            args.steps, "run", category="end",
            message=f"run complete: {args.steps} step(s)",
        )
    if args.json:
        print(run_monitor.to_json())
    else:
        if tail is not None:
            print()
        print(run_monitor.summary_table())
    if args.out:
        out = Path(args.out)
        print(f"wrote {run_monitor.journal.write_jsonl(out / 'journal.jsonl')}")
        print(f"wrote {run_monitor.store.write_jsonl(out / 'timeseries.jsonl')}")
    return 1 if run_monitor.critical_alerts or not recovered else 0


def _cmd_replan(args: argparse.Namespace) -> int:
    import tempfile
    from pathlib import Path

    from repro.faults import Supervisor
    from repro.obs import RunMonitor
    from repro.replan.scenario import (
        DEMO_STEPS,
        DEMO_SUPERVISOR_KWARGS,
        demo_plan,
        demo_spec,
    )
    from repro.runtime import RunSpecError
    from repro.utils.artifacts import write_json

    plan = _plan_from_args(args)
    if plan is None:
        plan = demo_plan()
    steps = DEMO_STEPS if args.steps is None else args.steps

    def given(**flags) -> dict:
        return {name: value for name, value in flags.items() if value is not None}

    spec_flags = given(
        num_steps=args.steps, num_gpus=args.gpus,
        gpus_per_node=args.gpus_per_node, tp_size=args.tp,
        fsdp_size=args.fsdp, ddp_size=args.ddp, micro_batch=args.micro_batch,
        recompute=False if args.no_recompute else None,
    )
    supervisor_kwargs = {**DEMO_SUPERVISOR_KWARGS, **given(
        checkpoint_every=args.checkpoint_every,
        checkpoint_cost_s=args.checkpoint_cost,
        restart_latency_s=args.restart_latency,
        replan_warmup_s=args.warmup,
        replan_hysteresis=args.hysteresis,
    )}

    def supervise(mode: str, run_monitor: "RunMonitor"):
        supervisor = Supervisor(
            demo_spec(replan=mode).replace(**spec_flags),
            plan,
            checkpoint_dir=tempfile.mkdtemp(prefix="repro-replan-"),
            session_kwargs={"monitor": run_monitor},
            **supervisor_kwargs,
        )
        return supervisor, supervisor.run(steps)

    tail = None if args.quiet else (
        lambda event: print(event.render()) if event.kind == "replan" else None
    )
    run_monitor = RunMonitor(on_event=tail)
    try:
        supervisor, report = supervise("on", run_monitor)
    except RunSpecError as error:
        raise _UsageError(f"repro replan: {_flag_names(error)}")
    except ValueError as error:
        raise _UsageError(f"repro replan: {error}")
    decisions = [
        event for event in run_monitor.journal.events
        if event.kind == "replan"
    ]
    switches = [e for e in decisions if e.category == "switch"]
    fraction = supervisor.ledger.goodput_fraction
    print(
        f"replan=on : {report.steps_completed} step(s), "
        f"{len(decisions)} replan event(s), {len(switches)} switch(es), "
        f"goodput {fraction:.4f}, final plan "
        f"{'x'.join(str(n) for n in report.final_spec['grid'])}"
        f".mb{report.final_spec['micro_batch']}"
    )
    status = 0
    if args.compare:
        off_monitor = RunMonitor()
        off_supervisor, off_report = supervise("off", off_monitor)
        off_fraction = off_supervisor.ledger.goodput_fraction
        print(
            f"replan=off: {off_report.steps_completed} step(s), "
            f"goodput {off_fraction:.4f}, walltime "
            f"{off_supervisor.ledger.total_s:.4f} s "
            f"(vs {supervisor.ledger.total_s:.4f} s with replan=on)"
        )
        # Same committed steps, so the win is the walltime saved.
        if (report.steps_completed != off_report.steps_completed
                or supervisor.ledger.total_s >= off_supervisor.ledger.total_s):
            print("repro replan: replan=on is no faster than replan=off "
                  "over the same steps", file=sys.stderr)
            status = 1
    if args.out:
        out = Path(args.out)
        print(f"wrote {run_monitor.journal.write_jsonl(out / 'journal.jsonl')}")
        doc = {
            "goodput_fraction": fraction,
            "goodput": supervisor.ledger.as_dict(),
            "decisions": [event.as_dict() for event in decisions],
        }
        print(f"wrote {write_json(out / 'replan_report.json', doc)}")
    if not decisions:
        print("repro replan: no replan decision was journaled "
              "(scenario never degraded?)", file=sys.stderr)
        return 1
    if not report.recovered:
        return 1
    return status


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_json or args.log_level is not None:
        from repro.utils.logging import configure_logging

        configure_logging(
            json_lines=args.log_json, level=args.log_level or "INFO", stream=sys.stderr
        )
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except _UsageError as error:
        print(error, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
