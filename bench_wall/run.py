"""bench_wall: host wall-clock and peak-RSS benchmark of the simulator.

    python bench_wall/run.py [--workload NAME]... [--seed N]
                             [--seconds S | --passes K] [--trace [0|1]]
                             [--json PATH]

Every number here is *host* time or memory — what the Python costs to
run — never the modeled seconds the simulator computes; those are held
identical by ``reference.json`` as the correctness check.

Rules of measurement (closed loop, one client):

* each workload runs in its own fresh child process, one at a time,
  with BLAS/OpenMP pinned to one thread and ``PYTHONHASHSEED=0``;
* a child sets up (imports, specs, one small warm-up), then runs timed
  passes — ``gc.collect()`` before each — until ``--seconds`` have
  elapsed and at least three are done (or exactly ``--passes``);
* ``setup_s`` is child start to first timed pass, the median over
  ``SETUP_REPEATS`` children (the extra ones stop after set-up);
* end-to-end numbers come from untraced passes.  ``--trace 1`` splits
  the time between untraced and traced passes (spans from ``spans.py``
  around every layer call), runs the workload's isolated layer probes,
  and writes every span to ``bench_wall/out/trace.json``.

Output is one line per metric, ``workload metric value unit n=K``; when
exactly one workload is selected the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of ``BENCHMARK.json``, or with ``--trace 1`` its per-layer
metrics).  The exit status is non-zero when any oracle check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracle
import probes
import workloads
from spans import NULL_RECORDER, Recorder
from workloads import HERE, REPO

OUT = HERE / "out"

#: Children per untraced run whose set-up time is measured.
SETUP_REPEATS = 3
MIN_PASSES = 3
DRIFT_TOLERANCE = 1e-9
#: ``host_calib_s()`` on the quiet 2-core sandbox this was sized on.  It
#: only fixes the scale: timings read as seconds on that host.
CALIB_REF_S = 0.106
#: A child that has not finished by then is killed (the contract's cap
#: on one run is 180 s, and a run is up to SETUP_REPEATS children).
CHILD_TIMEOUT_S = 150


def load_contract() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


# -- child: one workload in a fresh process ----------------------------------
def host_calib_s() -> float:
    """Seconds of a fixed loop: integer bytecode, object churn, matmul.

    The sandbox host slows by 30-60 % for minutes at a time (README,
    "host noise"); this loop slows by the same factor as the workloads
    do, so dividing by it takes the host out of a timing.
    """
    import numpy as np

    matrix = np.full((160, 160), 0.5, np.float32)
    start = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i * i % 7
    table = {}
    for i in range(60_000):
        row = (i, float(i), str(i & 255))
        table[i & 4095] = row
        [row] * 8
    for _ in range(700):
        matrix @ matrix
    return time.perf_counter() - start


def host_factor(*calib_s: float) -> float:
    """How much slower than the reference host the samples ran."""
    return statistics.fmean(calib_s) / CALIB_REF_S


def timed_passes(workload, state, rec, calib: list[float], budget_s: float,
                 min_passes: int, fixed: int | None):
    """Run passes; returns ``(walls, raw_walls, results, raised)``.

    ``calib`` holds the calibration samples so far (at least one); one
    more is appended after every pass, so each pass sits between two
    and ``walls`` is ``raw_walls`` over the host factor of that pair.
    """
    walls, raw_walls, results, raised = [], [], [], 0
    deadline = time.perf_counter() + budget_s

    def more() -> bool:
        done = len(walls) + raised
        if fixed is not None:
            return done < fixed
        return done < min_passes or time.perf_counter() < deadline

    while more():
        gc.collect()
        start = time.perf_counter()
        try:
            with rec.span("bench.pass"):
                result = workload.run_pass(state, rec)
        except Exception:
            # A pass is the benchmark's unit of failure: report it,
            # count it, keep measuring.
            traceback.print_exc()
            raised += 1
            calib.append(host_calib_s())
            continue
        raw = time.perf_counter() - start
        calib.append(host_calib_s())
        raw_walls.append(raw)
        walls.append(raw / host_factor(*calib[-2:]))
        results.append(result)
    return walls, raw_walls, results, raised


def child_main(args) -> int:
    sys.path.insert(0, str(REPO / "src"))
    workload = workloads.WORKLOADS[args.child]
    tmp = OUT / "tmp" / f"{workload.name}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        state = workload.setup(args.seed, tmp)
        setup_raw_s = time.monotonic() - args.spawned_at
        calib = [host_calib_s()]
        message = {"setup_s": setup_raw_s / host_factor(*calib),
                   "setup_raw_s": setup_raw_s}
        if not args.setup_only:
            message.update(measure(args, workload, state, calib, tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(message))
    return 0


def measure(args, workload, state, calib: list[float], tmp: Path) -> dict:
    """Timed passes (and, traced, the layer metrics) of a set-up child."""
    trace = bool(args.trace)
    budget = args.seconds / 2 if trace else args.seconds
    min_passes = 1 if trace else MIN_PASSES

    walls, raw_walls, results, raised = timed_passes(
        workload, state, NULL_RECORDER, calib, budget, min_passes,
        args.passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers, spans = {}, []
    if trace:
        rec = Recorder(workload.name)
        traced_walls, traced_raw, traced_results, traced_raised = \
            timed_passes(workload, state, rec, calib, budget, min_passes,
                         args.passes)
        raised += traced_raised
        if walls and traced_walls:
            # Layer metrics are raw host seconds, like the spans they
            # sit beside; host.calib_s is there to rescale them.
            layers = probes.LAYERS[workload.name](
                state, rec, traced_results[-1],
                statistics.median(traced_raw), tmp)
            layers["bench.trace_overhead_share"] = (
                statistics.median(traced_walls) / statistics.median(walls)
                - 1.0)
        results += traced_results
        calib.append(host_calib_s())
        layers["host.calib_s"] = statistics.fmean(calib)
        spans = rec.as_rows()

    expected = oracle.expected_results(oracle.load_reference(), workload.name,
                                       args.seed)
    drifts = [
        oracle.drift(result, expected if expected is not None else results[0])
        for result in results
    ]
    deviated = sum(d > DRIFT_TOLERANCE for d in drifts)
    return {
        "pass_walls_s": walls,
        "pass_walls_raw_s": raw_walls,
        "host_factor": host_factor(*calib),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(results) + raised,
        "failed": raised + deviated,
        "result_drift": max(drifts, default=1.0),
        "results": results[-1] if results else {},
        "layers": layers,
        "spans": spans,
    }


# -- parent: orchestration and reporting -------------------------------------
def spawn(name: str, args, setup_only: bool = False) -> dict:
    """Run one child to completion and return its message."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               TMPDIR=str(OUT / "tmp"))
    command = [sys.executable, str(HERE / "run.py"), "--child", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--spawned-at", repr(time.monotonic())]
    if args.passes is not None:
        command += ["--passes", str(args.passes)]
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{name}: child exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(name: str, args, contract: dict) -> dict:
    """Measure one workload; returns its report (see ``report_lines``)."""
    main = spawn(name, args)
    setups = [main["setup_s"]]
    if not args.trace:
        setups += [spawn(name, args, setup_only=True)["setup_s"]
                   for _ in range(SETUP_REPEATS - 1)]
    walls = main["pass_walls_s"]
    report = {
        **main,
        "setups_s": setups,
        "correct": (main["failed"] == 0 and bool(walls)
                    and main["result_drift"] <= DRIFT_TOLERANCE),
        "end_to_end": {},
        "per_layer": {},
    }
    if walls:
        report["end_to_end"] = {
            "pass_wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main["peak_rss_mb"],
        }
    if args.trace:
        # Layer metrics another workload owns read 0 here (probes.py).
        report["per_layer"] = {
            metric["name"]: main["layers"].get(metric["name"], 0.0)
            for metric in contract["per_layer"]
        }
        unknown = main["layers"].keys() - report["per_layer"].keys()
        if unknown:
            raise RuntimeError(f"{name}: layer metrics missing from "
                               f"BENCHMARK.json: {sorted(unknown)}")
    return report


def report_lines(name: str, report: dict, contract: dict) -> list[str]:
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    walls = report["pass_walls_s"]
    counts = {"setup_s": len(report["setups_s"])}
    lines = []
    for metric, value in report["end_to_end"].items():
        lines.append(f"{name} {metric} {value:.6g} {units[metric]} "
                     f"n={counts.get(metric, len(walls))}")
    if len(walls) >= 2:
        q1, _, q3 = statistics.quantiles(walls, n=4)
        lines[0] += f" min={min(walls):.6g} q1={q1:.6g} q3={q3:.6g}"
    attempted = report["attempted"]
    lines.append(f"{name} failed_share "
                 f"{report['failed'] / max(attempted, 1):.6g} ratio "
                 f"n={attempted}")
    lines.append(f"{name} result_drift {report['result_drift']:.6g} ratio "
                 f"n={attempted}")
    lines.append(f"{name} host_factor {report['host_factor']:.6g} ratio "
                 f"n={len(walls) + 1}")
    for metric, value in sorted(report["layers"].items()):
        lines.append(f"{name} {metric} {value:.6g} {units[metric]} n=1")
    return lines


def contract_line(report: dict, contract: dict, trace: int) -> str:
    """The single-workload result object the driver reads."""
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[section]}
    return json.dumps({
        "correct": report["correct"],
        "attempted": max(report["attempted"], 1),
        "failed": report["failed"],
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in report[section].items()
        },
    })


def parent_main(args) -> int:
    if not (REPO / "src" / "repro").is_dir():
        print(f"bench_wall: {REPO / 'src' / 'repro'} not found: run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    contract = load_contract()
    known = [w["name"] for w in contract["workloads"]]
    selected = args.workload or known
    for name in selected:
        if name not in known:
            print(f"bench_wall: unknown workload {name!r}; choose from "
                  f"{', '.join(known)}", file=sys.stderr)
            return 2
    problems = oracle.committed_disagreements()
    if problems:
        print("bench_wall: reference.json disagrees with the committed "
              "baselines:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = contract["run_seconds"]

    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    reports = {}
    try:
        for name in selected:
            reports[name] = run_workload(name, args, contract)
            print("\n".join(report_lines(name, reports[name], contract)),
                  flush=True)
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"bench_wall: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT / "tmp", ignore_errors=True)

    spans = [row for report in reports.values() for row in report.pop("spans")]
    if args.trace:
        (OUT / "trace.json").write_text(json.dumps({
            "clock": "time.perf_counter seconds; one origin per workload "
                     "(each is its own process)",
            "spans": spans,
        }, indent=1) + "\n")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seed": args.seed, "trace": args.trace, "workloads": reports},
            indent=1) + "\n")
    if len(selected) == 1:
        print(contract_line(reports[selected[0]], contract, args.trace))
    return 0 if all(r["correct"] for r in reports.values()) else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Host wall-clock + peak-RSS benchmark of the simulator.")
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure each workload for this long (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--passes", type=int, default=None, metavar="K",
                        help="run exactly K timed passes instead")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="traced run: per-layer metrics + out/trace.json")
    parser.add_argument("--json", metavar="PATH",
                        help="also write every workload's full report here")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.passes is not None and args.passes < 1:
        parser.error("--passes must be at least 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return child_main(args) if args.child else parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
