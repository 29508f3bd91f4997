"""The six workloads: set-up, one timed pass, and the simulated results.

Every workload drives ``repro`` through its public functions only and
returns the *simulated* statistics of the pass (step times, losses,
request counts, ...) as a flat ``{key: number-or-string}`` dict.  Those
are what ``reference.json`` pins: host time may move, they may not.

``repro`` is imported inside the functions so that importing this
module (the parent process does, for the names) costs nothing and the
child's ``setup_s`` includes the imports.

``rec`` is a :class:`spans.Recorder` in a traced pass and
:data:`spans.NULL_RECORDER` otherwise; a pass runs the same code either
way.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
FAULT_PLAN = REPO / "examples" / "fault_plan.json"

FRONTIER_CASE = "orbit-113b-6144n"
NUMERIC_STEPS = 8
FAULT_PLAN_STEPS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``setup(seed, tmp) -> state``: imports, specs, one small warm-up.
    setup: Callable
    #: ``run_pass(state, rec) -> results``.
    run_pass: Callable


def _case_results(record) -> dict:
    name = record.case.name
    return {
        f"{name}.step_time_s": record.step_time_s,
        f"{name}.exposed_comm_fraction": record.exposed_comm_fraction,
        f"{name}.peak_memory_bytes": record.peak_memory_bytes,
        f"{name}.spans": record.spans,
    }


# -- frontier-fold -----------------------------------------------------------
def frontier_case():
    from repro.bench import FRONTIER_MATRIX

    return next(c for c in FRONTIER_MATRIX if c.name == FRONTIER_CASE)


def _fold_setup(seed: int, tmp: Path) -> dict:
    from repro.bench import DEFAULT_MATRIX, run_case

    # Warm-up: the same folded code path on 16 GCDs.
    run_case(replace(DEFAULT_MATRIX[0], fold="on"))
    return {"case": frontier_case()}


def _fold_pass(state: dict, rec) -> dict:
    from repro.bench import run_case

    with rec.span("bench.run_case"):
        return _case_results(run_case(state["case"]))


# -- exact-step --------------------------------------------------------------
def _exact_setup(seed: int, tmp: Path) -> dict:
    from repro.bench import DEFAULT_MATRIX, run_case

    run_case(DEFAULT_MATRIX[0])
    return {"cases": DEFAULT_MATRIX}


def _exact_pass(state: dict, rec) -> dict:
    from repro.bench import run_case

    results = {}
    for case in state["cases"]:
        with rec.span("bench.run_case"):
            results.update(_case_results(run_case(case)))
    return results


# -- tune-4d -----------------------------------------------------------------
def tune_request():
    from repro.models import PAPER_MODELS
    from repro.tune import TuneRequest

    return TuneRequest(PAPER_MODELS["orbit-1b"], 32, micro_batches=(2, 4),
                       pp_sizes=(1, 2))


def _tune_setup(seed: int, tmp: Path) -> dict:
    from repro.models import PAPER_MODELS
    from repro.tune import TuneRequest, run_search

    run_search(
        TuneRequest(PAPER_MODELS["orbit-115m"], 8, micro_batches=(2,),
                    pp_sizes=(1, 2)),
        top_k=1,
    )
    return {"request": tune_request()}


def _tune_pass(state: dict, rec) -> dict:
    from repro.tune import run_search

    with rec.span("tune.run_search"):
        result = run_search(state["request"], top_k=3)
    state["last_result"] = result
    return {
        "winner": result.winner.candidate.label(),
        "winner_time_per_obs_s": result.winner.simulated["time_per_obs_s"],
        "candidates": len(result.space.candidates),
        "validated": len(result.validated),
    }


# -- numeric-train -----------------------------------------------------------
def tiny_numeric_spec(seed: int):
    """The CLI's trace-tiny model, numeric, tp2 x fsdp2 x ddp2 on 8 GCDs."""
    from repro.models import OrbitConfig
    from repro.obs.capture import TRACE_CONFIG_KWARGS
    from repro.runtime import RunSpec

    return RunSpec(config=OrbitConfig("trace-tiny", **TRACE_CONFIG_KWARGS),
                   num_gpus=8, gpus_per_node=8, tp_size=2, fsdp_size=2,
                   ddp_size=2, meta=False, seed=seed,
                   track_device_memory=False)


def numeric_spec(seed: int):
    from repro.models import OrbitConfig
    from repro.runtime import RunSpec

    config = OrbitConfig("bench-wall-numeric", embed_dim=64, depth=4,
                         num_heads=4, in_vars=8, out_vars=4, img_height=16,
                         img_width=32, patch_size=4)
    return RunSpec(config=config, num_gpus=8, gpus_per_node=8, tp_size=2,
                   fsdp_size=2, ddp_size=2, micro_batch=2, meta=False,
                   seed=seed)


def _numeric_setup(seed: int, tmp: Path) -> dict:
    from repro.runtime import Session

    tiny = tiny_numeric_spec(seed)
    session = Session(tiny)
    session.numeric_step(0)
    Session(tiny).resume(session.save(tmp / "warmup.npz"))
    return {"spec": numeric_spec(seed), "archive": tmp / "ck.npz"}


def _numeric_pass(state: dict, rec) -> dict:
    from repro.runtime import Session, StepLoop

    spec = state["spec"]
    with rec.span("runtime.session_build_numeric"):
        session = Session(spec)
    loop = StepLoop(session.numeric_step)
    for _ in range(NUMERIC_STEPS):
        with rec.span("parallel.numeric_step"):
            loop.run_step()
    # save() is always handed the ``.npz`` suffix (see README, "found
    # while measuring").
    with rec.span("runtime.ckpt_save"):
        archive = session.save(state["archive"], loop=loop)
    with rec.span("runtime.session_build_numeric"):
        resumed = Session(spec)
    with rec.span("runtime.ckpt_resume"):
        resumed.resume(archive)
    with rec.span("parallel.numeric_step"):
        resumed_loss, _ = resumed.numeric_step(NUMERIC_STEPS)
    # The uninterrupted session's next step is the resume oracle; it is
    # part of the pass so the check runs every time.
    with rec.span("parallel.numeric_step"):
        straight_loss, _ = session.numeric_step(NUMERIC_STEPS)
    if resumed_loss != straight_loss:
        raise AssertionError(
            f"resumed step loss {resumed_loss!r} != uninterrupted "
            f"{straight_loss!r}"
        )
    return {
        "loss_after_8": loop.history[-1][1],
        "next_step_loss": resumed_loss,
        "ckpt_bytes": archive.stat().st_size,
    }


# -- supervised-replan -------------------------------------------------------
def _replan_setup(seed: int, tmp: Path) -> dict:
    from repro.faults import FaultPlan, Supervisor
    from repro.replan.scenario import (
        DEMO_SUPERVISOR_KWARGS,
        demo_plan,
        demo_spec,
    )

    state = {
        "demo_spec": demo_spec(replan="on").replace(seed=seed),
        "numeric_spec": tiny_numeric_spec(seed),
        "fault_plan": FaultPlan.from_json(FAULT_PLAN),
        "tmp": tmp,
    }
    # Warm-up: three supervised demo steps, into the straggler window.
    Supervisor(state["demo_spec"], demo_plan(),
               checkpoint_dir=fresh_dir(state),
               **DEMO_SUPERVISOR_KWARGS).run(3)
    return state


def fresh_dir(state: dict) -> Path:
    """A new checkpoint directory under the workload's scratch space."""
    return Path(tempfile.mkdtemp(dir=state["tmp"]))


def _replan_pass(state: dict, rec) -> dict:
    from repro.faults import Supervisor
    from repro.obs import RunMonitor
    from repro.replan.scenario import (
        DEMO_STEPS,
        DEMO_SUPERVISOR_KWARGS,
        demo_plan,
    )

    monitor = RunMonitor()
    with rec.span("faults.replan_demo"):
        demo = Supervisor(state["demo_spec"], demo_plan(),
                          checkpoint_dir=fresh_dir(state),
                          session_kwargs={"monitor": monitor},
                          **DEMO_SUPERVISOR_KWARGS)
        demo_report = demo.run(DEMO_STEPS)
    with rec.span("faults.fault_plan_numeric"):
        numeric = Supervisor(state["numeric_spec"], state["fault_plan"],
                             checkpoint_every=2,
                             checkpoint_dir=fresh_dir(state))
        numeric_report = numeric.run(FAULT_PLAN_STEPS)
    final = demo_report.final_spec
    switches = sum(
        1 for e in monitor.journal.events
        if e.kind == "replan" and e.category == "switch"
    )
    return {
        "demo.goodput_fraction": demo.ledger.goodput_fraction,
        "demo.switches": switches,
        "demo.final_plan": "x".join(str(n) for n in final["grid"])
        + f".mb{final['micro_batch']}",
        "demo.steps_completed": demo_report.steps_completed,
        "demo.recovered": int(demo_report.recovered),
        "fault_plan.recovered": int(numeric_report.recovered),
        "fault_plan.steps_completed": numeric_report.steps_completed,
        "fault_plan.retries": numeric.ledger.retries,
        "fault_plan.rollbacks": numeric.ledger.restarts,
        "fault_plan.skipped_steps": numeric.ledger.skipped_steps,
        "fault_plan.goodput_fraction": numeric.ledger.goodput_fraction,
    }


# -- serve-mix ---------------------------------------------------------------
def _serve_setup(seed: int, tmp: Path) -> dict:
    from repro.serve.bench import (
        DEFAULT_MATRIX,
        build_serve_world,
        run_serve_case,
    )

    # The seed draws the served model's weights.  LoadSpec.seed stays at
    # the committed 0: Poisson arrival counts move the work of a pass by
    # +-6 % between seeds, which is most of the regression bound.
    world = build_serve_world(seed)
    warm = DEFAULT_MATRIX[0]
    run_serve_case(replace(warm, load=replace(warm.load, duration_s=0.5)),
                   world)
    return {"world": world, "cases": DEFAULT_MATRIX}


def _serve_pass(state: dict, rec) -> dict:
    from repro.serve.bench import run_serve_case

    results = {}
    for case in state["cases"]:
        with rec.span(f"serve.case.{case.name}"):
            record = run_serve_case(case, state["world"])
        for key in ("offered", "completed", "rejected", "latency_p50_s",
                    "latency_p99_s", "cache_hit_ratio", "model_steps"):
            results[f"{case.name}.{key}"] = record[key]
    return results


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("frontier-fold", _fold_setup, _fold_pass),
        Workload("exact-step", _exact_setup, _exact_pass),
        Workload("tune-4d", _tune_setup, _tune_pass),
        Workload("numeric-train", _numeric_setup, _numeric_pass),
        Workload("supervised-replan", _replan_setup, _replan_pass),
        Workload("serve-mix", _serve_setup, _serve_pass),
    )
}
