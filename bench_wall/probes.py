"""Per-layer metrics: isolated probes plus spans of the traced passes.

A traced run of workload W measures the layer metrics W owns — the
layers whose cost should move W's ``pass_wall_s`` — by timing direct
calls into those layers' public functions.  Metrics owned by another
workload are reported as 0 in W's run (``run.py`` fills them in): every
traced run prints every name, each name is measured in exactly one.

Timings are host seconds unless the unit says otherwise.  Counts marked
*exact* in the README repeat bit-for-bit and come from the program's
own return values.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import workloads as wl

MIB = float(1 << 20)
#: Record calls in the Timeline event-stream probes.
STREAM_EVENTS = 40_000


def timed(rec, name: str, fn, *args, **kwargs):
    """``(seconds, result)`` of one call, recorded as span ``name``."""
    start = time.perf_counter()
    with rec.span(name):
        out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


def per_call_s(rec, name: str, fn, calls: int) -> float:
    """Mean seconds per call over ``calls`` back-to-back calls."""
    def loop():
        for _ in range(calls):
            fn()

    return timed(rec, name, loop)[0] / calls


def python_s(rec, name: str, tmp: Path, *argv: str) -> float:
    """Wall seconds of ``python <argv>`` run in ``tmp`` (must exit 0)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(wl.REPO / "src")
    command = [sys.executable, *argv]
    seconds, done = timed(
        rec, name, subprocess.run, command, cwd=tmp, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return seconds


def cli_s(rec, name: str, tmp: Path, *argv: str) -> float:
    """Wall seconds of one ``python -m repro <argv>`` workflow."""
    return python_s(rec, name, tmp, "-m", "repro", *argv)


#: CI's trace/analyze smoke topology (.github/workflows/ci.yml).
_SMOKE_TOPOLOGY = ("--gpus", "4", "--gpus-per-node", "4", "--tp", "2",
                   "--fsdp", "2", "--ddp", "1", "--micro-batch", "1")


def span_median(rec, name: str) -> float:
    return statistics.median(rec.durations(name))


def _event_stream(timeline, groups) -> int:
    """A fixed compute/collective stream straight into ``timeline``."""
    for i in range(STREAM_EVENTS // 2):
        group = groups[i % len(groups)]
        timeline.record_compute(group[i % len(group)], 1e-4, flops=1e9,
                                op="probe.compute")
        timeline.record_comm(group, 2e-4, 1 << 20, overlappable=bool(i & 1),
                             op="probe.comm")
    return STREAM_EVENTS


_TP_GROUPS_32 = [tuple(range(base, base + 8)) for base in range(0, 32, 8)]


# -- frontier-fold -----------------------------------------------------------
def frontier_fold(state, rec, results, pass_s, tmp) -> dict:
    from repro.cluster.timeline import FoldedTimeline
    from repro.obs.analysis import exposed_comm_ratio
    from repro.obs.critical_path import analyze_trace
    from repro.parallel import HybridParallelPlan
    from repro.runtime import RunSpec, Session, StepLoop, build_cluster

    case = state["case"]
    spec = RunSpec.from_case(case)
    build_s, session = timed(rec, "runtime.session_build", Session, spec)
    loop = StepLoop(session.meta_step, hooks=session.loop_hooks())
    step_s, _ = timed(rec, "parallel.meta_step_fold", loop.run, 1)
    analyze_s, _ = timed(rec, "obs.analyze_trace", analyze_trace,
                         session.tracer)
    ratio_s, _ = timed(rec, "obs.exposed_comm_ratio", exposed_comm_ratio,
                       session.tracer.spans)
    spans = len(session.tracer.spans)
    partition = session.fold_decision.partition
    del session, loop

    cluster_s, cluster = timed(rec, "cluster.build", build_cluster,
                               case.num_gpus, case.gpus_per_node)
    plan_s, _ = timed(
        rec, "parallel.plan_build", HybridParallelPlan, cluster,
        tp_size=case.tp_size, fsdp_size=case.fsdp_size,
        ddp_size=case.ddp_size,
    )
    del cluster
    stream_s, events = timed(
        rec, "cluster.folded_event_stream", _event_stream,
        FoldedTimeline(case.num_gpus, partition), _TP_GROUPS_32,
    )
    return {
        "runtime.session_build_s": build_s,
        "cluster.build_s": cluster_s,
        "parallel.plan_build_s": plan_s,
        "parallel.meta_step_fold_s": step_s,
        "cluster.folded_events_per_host_s": events / stream_s,
        "cluster.gcd_steps_per_host_s": case.num_gpus / pass_s,
        "obs.analyze_trace_s": analyze_s,
        "obs.exposed_comm_ratio_s": ratio_s,
        "obs.spans_per_step": spans,
    }


# -- exact-step --------------------------------------------------------------
def exact_step(state, rec, results, pass_s, tmp) -> dict:
    import numpy as np

    from repro.cluster import all_gather, all_reduce, reduce_scatter
    from repro.cluster.timeline import Timeline
    from repro.meta import MetaArray
    from repro.nn.context import ExecutionContext, execution_context
    from repro.nn.transformer import TransformerBlock
    from repro.obs import NULL_TRACER, Tracer
    from repro.runtime import RunSpec, Session, StepLoop, build_cluster

    case = next(c for c in state["cases"] if c.name == "orbit-1b-4n")
    spec = RunSpec.from_case(case)

    def one_step(tracer):
        session = Session(spec, tracer=tracer)
        return StepLoop(session.meta_step).run

    traced_s, _ = timed(rec, "parallel.meta_step_exact", one_step(Tracer()), 1)
    untraced_s, _ = timed(rec, "parallel.meta_step_exact.null_tracer",
                          one_step(NULL_TRACER), 1)

    folded = Session(replace(spec, fold="on"))
    StepLoop(folded.meta_step).run(1)
    expand_s, _ = timed(rec, "cluster.expand", folded.cluster.timeline.expand)
    del folded

    stream_s, events = timed(rec, "cluster.event_stream", _event_stream,
                             Timeline(32), _TP_GROUPS_32)

    group = build_cluster(8, 8).new_group(range(8))
    shard = MetaArray((1 << 20,), np.float32)

    def meta_collectives():
        all_gather(group, [shard] * 8)
        reduce_scatter(group, [shard] * 8)
        all_reduce(group, [shard] * 8)

    rounds = 2_000
    meta_call_s = per_call_s(rec, "cluster.collectives_meta",
                             meta_collectives, rounds) / 3

    block = TransformerBlock(64, 4, meta=True)
    x = MetaArray((8, 32, 64), np.float32)

    def meta_block():
        with execution_context(ExecutionContext()):
            block.backward(block.forward(x))

    block_s = per_call_s(rec, "nn.block_meta_fwd_bwd", meta_block, 2_000)

    tracer = Tracer()
    emits = 50_000
    emit_s = per_call_s(
        rec, "obs.span_emit",
        lambda: tracer.span("compute", "probe", 0, 0.0, 1e-6, flops=1.0),
        emits,
    )
    return {
        "parallel.meta_step_exact_s": traced_s,
        "obs.tracer_overhead_share": (traced_s - untraced_s) / untraced_s,
        "cluster.expand_s": expand_s,
        "cluster.timeline_events_per_host_s": events / stream_s,
        "cluster.collective_meta_calls_per_s": 1.0 / meta_call_s,
        "nn.block_meta_fwd_bwd_ms": block_s * 1e3,
        "obs.span_emit_ns": emit_s * 1e9,
        "cli.import_s": python_s(rec, "cli.import", tmp, "-c",
                                 "import repro, repro.cli"),
        "cli.trace_s": cli_s(rec, "cli.trace", tmp, "trace", *_SMOKE_TOPOLOGY,
                             "--out", "cli-trace"),
        "cli.analyze_s": cli_s(rec, "cli.analyze", tmp, "analyze",
                               *_SMOKE_TOPOLOGY),
    }


# -- tune-4d -----------------------------------------------------------------
def tune_4d(state, rec, results, pass_s, tmp) -> dict:
    from repro.models import PAPER_MODELS
    from repro.tune import (
        AnalyticEstimator,
        TuneCache,
        TuneRequest,
        enumerate_space,
        run_search,
        simulate_candidate,
    )

    request = state["request"]
    enumerate_s, space = timed(rec, "tune.enumerate", enumerate_space, request)

    def estimate_ms(name, req, candidates) -> float:
        estimator = AnalyticEstimator(req.config, req.num_gpus,
                                      req.gpus_per_node)
        seconds, _ = timed(
            rec, name, lambda: [estimator.estimate(c) for c in candidates])
        return seconds / len(candidates) * 1e3

    # A fixed stride sample: the estimator memoizes block probes, so
    # the mean over a spread of candidates is what a sweep pays.
    small_ms = estimate_ms("tune.estimate", request, space.candidates[::5])
    big = TuneRequest(PAPER_MODELS["orbit-113b"], 1024, tp_sizes=(8,),
                      micro_batches=(3,), pp_sizes=(1, 2, 4))
    big_ms = estimate_ms("tune.estimate_1024", big,
                         enumerate_space(big).candidates[::12])

    last = state["last_result"]
    validate_s, _ = timed(rec, "tune.validate", simulate_candidate, request,
                          last.winner.candidate)
    cache = TuneCache()
    for scored in last.validated:
        cache.put(request, scored.candidate, scored.simulated)
    warm_s, warm = timed(rec, "tune.run_search.warm_cache", run_search,
                         request, top_k=3, cache=cache)
    if warm.cache_misses:
        raise AssertionError(f"warm cache missed {warm.cache_misses} time(s)")
    return {
        "tune.enumerate_s": enumerate_s,
        "tune.candidates": len(space.candidates),
        "tune.estimate_ms_per_candidate": small_ms,
        "tune.estimate_ms_per_candidate_1024": big_ms,
        "tune.validate_s_per_candidate": validate_s,
        "tune.warm_cache_pass_s": warm_s,
        "cli.tune_pp_s": cli_s(rec, "cli.tune_pp", tmp, "tune",
                               "--micro-batches", "2", "--top-k", "1",
                               "--pp", "1,2"),
    }


# -- numeric-train -----------------------------------------------------------
def numeric_train(state, rec, results, pass_s, tmp) -> dict:
    import numpy as np

    from repro.cluster import all_gather, all_reduce, reduce_scatter
    from repro.core import HybridSTOPBlock
    from repro.nn.transformer import TransformerBlock
    from repro.parallel import HybridParallelPlan
    from repro.runtime import build_cluster

    rng = np.random.default_rng(0)
    group = build_cluster(8, 8).new_group(range(8))
    per_rank = 1 << 20  # float32 elements: 4 MiB per rank
    buffers = [rng.normal(size=per_rank).astype(np.float32) for _ in range(8)]
    shards = [b[: per_rank // 8] for b in buffers]

    def mb_per_s(name, fn, payload, nbytes) -> float:
        calls = 5
        return nbytes / MIB / per_call_s(rec, name, lambda: fn(group, payload),
                                         calls)

    full_bytes = 8 * per_rank * 4
    collectives = {
        "cluster.all_gather_mb_per_s": mb_per_s(
            "cluster.all_gather", all_gather, shards, full_bytes // 8),
        "cluster.reduce_scatter_mb_per_s": mb_per_s(
            "cluster.reduce_scatter", reduce_scatter, buffers, full_bytes),
        "cluster.all_reduce_mb_per_s": mb_per_s(
            "cluster.all_reduce", all_reduce, buffers, full_bytes),
    }

    block = TransformerBlock(64, 4, rng=0)
    x = rng.normal(size=(8, 32, 64)).astype(np.float32)
    calls = 50
    fwd_s = per_call_s(rec, "nn.block_fwd", lambda: block.forward(x), calls)
    grad = np.ones_like(x)

    def fwd_bwd():
        block.forward(x)
        block.backward(grad)

    fwd_bwd_s = per_call_s(rec, "nn.block_fwd_bwd", fwd_bwd, calls)

    plan = HybridParallelPlan(build_cluster(4, 8), tp_size=2, fsdp_size=2)
    hybrid = HybridSTOPBlock(TransformerBlock(64, 4, rng=0), plan)
    xs = [x[:4], x[4:]]
    grads = [grad[:4], grad[4:]]

    def hybrid_fwd_bwd():
        hybrid.forward(xs)
        hybrid.backward(grads)

    hybrid_s = per_call_s(rec, "core.hybrid_block_fwd_bwd", hybrid_fwd_bwd, 20)

    ckpt_mb = results["ckpt_bytes"] / MIB
    return {
        **collectives,
        "nn.block_fwd_ms": fwd_s * 1e3,
        "nn.block_bwd_ms": (fwd_bwd_s - fwd_s) * 1e3,
        "core.hybrid_block_fwd_bwd_ms": hybrid_s * 1e3,
        "parallel.numeric_step_s": span_median(rec, "parallel.numeric_step"),
        "runtime.ckpt_save_mb_per_s":
            ckpt_mb / span_median(rec, "runtime.ckpt_save"),
        "runtime.ckpt_resume_mb_per_s":
            ckpt_mb / span_median(rec, "runtime.ckpt_resume"),
        "runtime.ckpt_bytes": results["ckpt_bytes"],
    }


# -- supervised-replan -------------------------------------------------------
def supervised_replan(state, rec, results, pass_s, tmp) -> dict:
    from repro.faults import Supervisor
    from repro.obs.journal import EventJournal
    from repro.replan import (
        DegradationProfile,
        MigrationCostModel,
        ReplanController,
    )
    from repro.replan.scenario import (
        DEMO_STEPS,
        DEMO_SUPERVISOR_KWARGS,
        demo_plan,
        demo_spec,
    )
    from repro.runtime import Session, StepLoop

    # Six steps reach into the straggler window, where the monitor has
    # alerts to raise; the full sixteen would cost a whole pass each.
    def demo_s(monitor: str) -> float:
        spec = demo_spec(replan="off", monitor=monitor)
        supervisor = Supervisor(spec, demo_plan(),
                                checkpoint_dir=wl.fresh_dir(state),
                                **DEMO_SUPERVISOR_KWARGS)
        return timed(rec, f"faults.demo.monitor_{monitor}", supervisor.run,
                     6)[0]

    monitored_s = demo_s("on")
    unmonitored_s = demo_s("off")

    clean = state["numeric_spec"]
    supervised_s, _ = timed(rec, "faults.clean_supervised",
                            Supervisor(clean).run, wl.FAULT_PLAN_STEPS)
    session = Session(clean)
    bare_s, _ = timed(rec, "runtime.clean_steploop",
                      StepLoop(session.numeric_step).run, wl.FAULT_PLAN_STEPS)

    steps = 20_000
    loop_s, _ = timed(rec, "runtime.steploop_noop",
                      StepLoop(lambda step: (0.0, 1)).run, steps)

    journal = EventJournal()
    events = 20_000

    def journal_stream():
        for i in range(events):
            journal.append(i, "run", category="probe", message="tick",
                           data={"i": i})
        journal.write_jsonl(tmp / "journal.jsonl")

    journal_s, _ = timed(rec, "obs.journal_stream", journal_stream)

    # The decision the demo's straggler window triggers: rank 0 at x8
    # for twelve more steps, priced with the demo's migration charges.
    demo = state["demo_spec"]
    controller = ReplanController(demo)
    evaluate_s, decision = timed(
        rec, "replan.evaluate", controller.evaluate, demo, 2, DEMO_STEPS,
        DegradationProfile(compute=((0, 8.0),), remaining_steps=12),
        MigrationCostModel(checkpoint_s=0.005, rebuild_s=0.01, warmup_s=0.005),
    )
    if not decision.switch:
        raise AssertionError(f"demo straggler no longer switches: "
                             f"{decision.reason}")
    return {
        "faults.replan_demo_s": span_median(rec, "faults.replan_demo"),
        "faults.fault_plan_numeric_s":
            span_median(rec, "faults.fault_plan_numeric"),
        "faults.supervisor_overhead_share": (supervised_s - bare_s) / bare_s,
        "faults.retries": results["fault_plan.retries"],
        "faults.rollbacks": results["fault_plan.rollbacks"],
        "faults.switches": results["demo.switches"],
        "obs.monitor_overhead_share":
            (monitored_s - unmonitored_s) / unmonitored_s,
        "obs.journal_events_per_host_s": events / journal_s,
        "runtime.steploop_overhead_us": loop_s / steps * 1e6,
        "replan.evaluate_ms": evaluate_s * 1e3,
        "cli.faults_s": cli_s(rec, "cli.faults", tmp, "faults", "--plan",
                              str(wl.FAULT_PLAN), "--checkpoint-dir",
                              "cli-faults"),
        "cli.monitor_s": cli_s(rec, "cli.monitor", tmp, "monitor", "--steps",
                               "6", "--out", "cli-monitor"),
    }


# -- serve-mix ---------------------------------------------------------------
def serve_mix(state, rec, results, pass_s, tmp) -> dict:
    from repro.serve.bench import build_serve_world
    from repro.serve.clock import EventLoop
    from repro.serve.loadgen import generate_requests

    cases = {case.name: case for case in state["cases"]}

    def case_s(name: str) -> float:
        return span_median(rec, f"serve.case.{name}")

    def total(key: str) -> float:
        return sum(results[f"{name}.{key}"] for name in cases)

    def mean_hit(*names: str) -> float:
        return statistics.fmean(results[f"{n}.cache_hit_ratio"] for n in names)

    world_s, (dataset, forecaster) = timed(rec, "data.serve_world_build",
                                           build_serve_world)
    loadgen_s, _ = timed(
        rec, "serve.loadgen",
        lambda: [generate_requests(case.load) for case in cases.values()])

    loop = EventLoop()
    events = 100_000
    for i in range(events):
        loop.schedule(i * 1e-3, int)
    loop_s, fired = timed(rec, "serve.event_loop_noop", loop.run_until_idle)

    static = dataset.registry.static_indices
    rollout_state = forecaster.initial_state(dataset, 0)
    advance_s = per_call_s(rec, "eval.rollout_step",
                           lambda: forecaster.advance(rollout_state, static),
                           100)
    forecast_s = per_call_s(rec, "eval.forecast_lead8",
                            lambda: forecaster.forecast(dataset, 0, 8), 20)
    return {
        "serve.hot_wall_s": case_s("hot-25rps") + case_s("hot-150rps"),
        "serve.cold_wall_s": case_s("cold-300rps"),
        "serve.surge_wall_s": case_s("surge-800rps"),
        "serve.requests_per_host_s": total("offered") / pass_s,
        "serve.rejected_share": total("rejected") / total("offered"),
        "serve.cache_hit_ratio_hot": mean_hit("hot-25rps", "hot-150rps"),
        "serve.cache_hit_ratio_cold": mean_hit("cold-300rps", "surge-800rps"),
        "serve.model_steps": total("model_steps"),
        "serve.loop_events_per_host_s": fired / loop_s,
        "serve.loadgen_s": loadgen_s,
        "data.serve_world_build_s": world_s,
        "eval.rollout_step_ms": advance_s * 1e3,
        "eval.forecast_lead8_ms": forecast_s * 1e3,
        "cli.serve_smoke_s": cli_s(rec, "cli.serve_smoke", tmp, "serve",
                                   "--smoke", "--artifacts", "cli-serve"),
    }


LAYERS = {
    "frontier-fold": frontier_fold,
    "exact-step": exact_step,
    "tune-4d": tune_4d,
    "numeric-train": numeric_train,
    "supervised-replan": supervised_replan,
    "serve-mix": serve_mix,
}
