"""Small pp = 1 engine steps, pinned bit for bit.

``BENCH_obs.json`` pins the modeled statistics of production-shaped
cases; the parity suites compare the engine with itself (fold vs
expand, replay vs every block).  This golden is the outside reference
for the edges neither covers — a degenerate axis (D, F or K = 1), the
fsdp-innermost layout, no layer wrapping, recompute, fold on and off
over two steps, a fold that a fault window opens mid-run — and for the
DDP reduction's numerics on one tiny numeric spec.  Everything a step
leaves behind is kept: per-rank ledgers, the span stream, the folded
event log, the next collective id and each device's memory tracker.

Regenerate (only for a deliberate modeled-time change, in the same PR)::

    PYTHONPATH=src:. python tests/parallel/test_step_golden.py --regen
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.timeline import FoldedTimeline
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.runtime import RunSpec, Session
from tests.invariants import config, drive, ledgers

GOLDEN = Path(__file__).parent / "data" / "step_golden.json"


def _spec(tp, fsdp, ddp, depth=2, **kwargs):
    return RunSpec(
        config=config(depth), num_gpus=tp * fsdp * ddp, gpus_per_node=8,
        tp_size=tp, fsdp_size=fsdp, ddp_size=ddp, micro_batch=2, **kwargs,
    )


def _fault(kind, **kwargs):
    return FaultPlan(faults=(FaultSpec(kind=kind, step=1, rank=3, **kwargs),))


#: name -> (spec, fault plan or None); every spec is meta, pp = 1.
META_CASES = {
    "ddp1": (_spec(2, 4, 1), None),
    "fsdp1": (_spec(2, 1, 4), None),
    "tp1": (_spec(1, 4, 2), None),
    "all-ddp": (_spec(1, 1, 8), None),
    "fsdp-innermost": (_spec(2, 2, 2, tp_innermost=False), None),
    "no-layer-wrapping": (_spec(2, 2, 2, depth=3, layer_wrapping=False), None),
    "recompute-no-prefetch": (
        _spec(2, 2, 2, depth=3, recompute=True, prefetch=False), None),
    "two-steps-exact": (_spec(2, 2, 4, num_steps=2), None),
    "two-steps-folded": (_spec(2, 2, 4, num_steps=2, fold="on"), None),
    "folded-ddp1": (_spec(2, 4, 1, fold="on"), None),
    "folded-fsdp1": (_spec(4, 1, 4, fold="on"), None),
    "folded-straggler-stays-exact": (
        _spec(2, 2, 2, num_steps=3, fold="on"),
        _fault(FaultKind.STRAGGLER, factor=2.0, duration_steps=1)),
    "folded-corruption-refolds": (
        _spec(2, 2, 2, num_steps=3, fold="on"),
        _fault(FaultKind.GRAD_CORRUPTION)),
}

NUMERIC_SPEC = _spec(2, 2, 2, meta=False, num_steps=2, seed=7,
                     track_device_memory=False)

#: Three numeric steps with device memory tracked: everything a step
#: leaves behind, as for the meta cases, besides losses and gradients.
NUMERIC_TRACKED_SPEC = _spec(2, 2, 2, meta=False, num_steps=3, seed=7,
                             track_device_memory=True)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_meta_case(spec, fault_plan) -> dict:
    run = drive(spec, fault_plan)
    session = run.session
    timeline = session.cluster.timeline
    spans = [s.to_dict() for s in session.tracer.spans]
    out = {
        "ledgers": ledgers(session),
        "spans": len(spans),
        "span_names": _digest("\n".join(s["name"] for s in spans)),
        "span_stream": _digest(json.dumps(spans, sort_keys=True)),
        "next_collective_id": next(timeline._collective_ids),
        "memory": {
            str(device.rank): [device.memory.peak_bytes,
                               device.memory.live_allocations]
            for device in session.cluster.touched_devices()
        },
        "folded_after_step": run.folded,
        "replicas_built": len(session.engine.trunks),
    }
    if isinstance(timeline, FoldedTimeline):
        out["event_log"] = _digest(repr(timeline._log))
    return out


def _grad_digest(grads: dict) -> str:
    sha = hashlib.sha256()
    for name in sorted(grads):
        sha.update(name.encode())
        sha.update(np.ascontiguousarray(grads[name]).tobytes())
    return sha.hexdigest()


def _numeric_steps(spec) -> tuple:
    """``(session, steps)``: losses, and every replica's reduced
    gradients (gathered trunk shards and dense) after each step."""
    session = Session(spec)
    engine = session.engine
    steps = []
    for step in range(spec.num_steps):
        loss, _ = session.numeric_step(step)
        steps.append({
            "loss": float(loss).hex(),
            "trunk_grads": [
                _grad_digest(engine.trunks[d].gathered_grads())
                for d in range(spec.ddp_size)
            ],
            "dense_grads": [
                _grad_digest({
                    str(i): p.grad
                    for i, p in enumerate(engine.dense_parameters(d))
                })
                for d in range(spec.ddp_size)
            ],
        })
    return session, steps


def run_numeric_case() -> dict:
    """Two optimizer steps: losses and reduced gradients."""
    return {"steps": _numeric_steps(NUMERIC_SPEC)[1]}


def run_numeric_tracked_case() -> dict:
    """Three optimizer steps with memory tracked: losses and gradients,
    plus the ledgers, span stream, next collective id and trackers."""
    session, steps = _numeric_steps(NUMERIC_TRACKED_SPEC)
    timeline = session.cluster.timeline
    spans = [s.to_dict() for s in session.tracer.spans]
    return {
        "steps": steps,
        "ledgers": ledgers(session),
        "span_stream": _digest(json.dumps(spans, sort_keys=True)),
        "next_collective_id": next(timeline._collective_ids),
        "memory": {
            str(device.rank): [device.memory.peak_bytes,
                               device.memory.live_allocations]
            for device in session.cluster.touched_devices()
        },
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", META_CASES)
def test_meta_step_equals_the_golden(golden, name):
    got = run_meta_case(*META_CASES[name])
    want = golden["meta"][name]
    for key in want:
        assert got[key] == want[key], f"{name}: {key}"
    assert got.keys() == want.keys()


def test_numeric_reduction_equals_the_golden(golden):
    got = run_numeric_case()
    assert got == golden["numeric"]
    # The reduction leaves every replica with the same gradients.
    for step in got["steps"]:
        assert len(set(step["trunk_grads"])) == 1
        assert len(set(step["dense_grads"])) == 1


def test_tracked_numeric_steps_equal_the_golden(golden):
    got = run_numeric_tracked_case()
    want = golden["numeric_tracked"]
    for key in want:
        assert got[key] == want[key], key
    assert got.keys() == want.keys()


if __name__ == "__main__":
    if "--regen" not in sys.argv[1:]:
        sys.exit("usage: python tests/parallel/test_step_golden.py --regen")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({
        "meta": {name: run_meta_case(*case)
                 for name, case in META_CASES.items()},
        "numeric": run_numeric_case(),
        "numeric_tracked": run_numeric_tracked_case(),
    }, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
