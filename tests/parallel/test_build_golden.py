"""What an engine build leaves in every tracker, pinned exactly.

Building a :class:`~repro.parallel.engine.HybridSTOPEngine` registers
every persistent shard and dense block with the devices' memory
trackers.  The step goldens see only peaks and live counts; this
golden pins each tracked device's ordered live allocations (handle,
bytes, tag) and per-tag current/peak bytes, for the committed bench
matrix, a folded 4D pipeline and a folded 3D grid.  The small folded
cases are also unfolded and :meth:`materialize_replicas
<repro.parallel.engine.HybridSTOPEngine.materialize_replicas>`'d, as a
fault window does, and the back-filled trackers and the per-replica
front/head counts are pinned too.  The allocation lists are kept as
digests: the 113B cases hold about 700 allocations per device.

The counts below pin how much bookkeeping one warm 49,152-GCD build
does: every registration is still made, once.

Regenerate (only for a deliberate change to what a build allocates)::

    PYTHONPATH=src:. python tests/parallel/test_build_golden.py --regen
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.bench.harness import FULL_MATRIX
from repro.cluster.cluster import GroupAllocation
from repro.cluster.timeline import FoldedTimeline
from repro.memory.tracker import MemoryTracker
from repro.models import PAPER_MODELS
from repro.parallel import engine as engine_module
from repro.runtime import RunSpec, Session
from tests.invariants import count_calls

GOLDEN = Path(__file__).parent / "data" / "build_golden.json"


def _grid_spec(pp, tp, fsdp, ddp):
    return RunSpec(
        config=PAPER_MODELS["orbit-1b"], num_gpus=pp * tp * fsdp * ddp,
        gpus_per_node=8, pp_size=pp, tp_size=tp, fsdp_size=fsdp,
        ddp_size=ddp, micro_batch=2, fold="on",
    )


#: name -> spec; the small folded ones are also materialized.
CASES = {case.name: RunSpec.from_case(case) for case in FULL_MATRIX}
CASES["orbit-1b-pp2-folded"] = _grid_spec(2, 4, 2, 2)
CASES["orbit-1b-3d-folded"] = _grid_spec(1, 4, 4, 2)
MATERIALIZED = ("orbit-1b-pp2-folded", "orbit-1b-3d-folded")


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def trackers(session) -> dict:
    """Each touched device's tracker: live count, bytes, and digests of
    its ordered live allocations and of its per-tag current/peak."""
    out = {}
    for device in session.cluster.touched_devices():
        memory = device.memory
        live = [[a.handle, a.nbytes, a.tag] for a in memory._live.values()]
        tags = {tag: list(cat) for tag, cat in memory._categories.items()}
        out[str(device.rank)] = {
            "live": memory.live_allocations,
            "current": memory.current_bytes,
            "peak": memory.peak_bytes,
            "allocations": _digest(live),
            "tags": _digest(sorted(tags.items())),
        }
    return out


def _modules(engine) -> dict:
    return {
        "replicas": len(engine.trunks),
        "fronts": [len(row) for row in engine.fronts],
        "heads": [len(row) for row in engine.heads],
    }


def run_case(name: str) -> dict:
    session = Session(CASES[name])
    engine = session.engine
    out = {"built": trackers(session)}
    if name in MATERIALIZED:
        session.cluster.timeline.unfold()
        engine.materialize_replicas()
        out["materialized"] = trackers(session)
        out["modules"] = _modules(engine)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", CASES)
def test_build_leaves_the_golden_trackers(golden, name):
    got, want = run_case(name), golden[name]
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], f"{name}: {key}"


def test_a_warm_frontier_build_registers_every_shard_once(monkeypatch):
    """One warm ``orbit-113b-6144n`` build: 10,096 registrations on the
    16 tracked devices, one ``GroupAllocation`` per shard and the dense
    block (5,041), filled in 1,009 passes over a rank group's tracked
    ranks — one per module and FSDP group (56 blocks x 18) and one for
    the dense block, where each allocation once made its own."""
    spec = CASES["orbit-113b-6144n"]
    Session(spec)  # warm: imports and per-process memos
    calls = count_calls(monkeypatch, (MemoryTracker, "allocate"),
                        (GroupAllocation, "__init__"),
                        (FoldedTimeline, "tracked_ranks"))
    session = Session(spec)
    live = sum(d.memory.live_allocations for d in session.cluster.touched_devices())
    assert calls["allocate"] == live == 10_096
    assert calls["__init__"] == 5_041
    assert calls["tracked_ranks"] == 1_009


def test_a_folded_build_clones_no_front_or_head(monkeypatch):
    """While FSDP is folded the step visits ``f = 0`` alone, so a build
    makes no structure clone (``materialize_replicas`` makes them; the
    golden's small folded cases pin that)."""
    calls = count_calls(monkeypatch, (engine_module, "clone_module_shared_params"))
    session = Session(CASES["orbit-113b-6144n"])
    assert calls["clone_module_shared_params"] == 0
    assert _modules(session.engine) == {"replicas": 1, "fronts": [1], "heads": [1]}


if __name__ == "__main__":
    if "--regen" not in sys.argv[1:]:
        sys.exit("usage: python tests/parallel/test_build_golden.py --regen")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({name: run_case(name) for name in CASES},
                                 indent=1) + "\n")
    print(f"wrote {GOLDEN}")
