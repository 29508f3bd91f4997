"""Scaling contract of the folded meta path: counts, not seconds.

A folded run must do work proportional to its symmetry *classes*, not
to group size or world size: every rank group's link spec is priced
once, memory is registered on the class representatives only, and
devices exist only once somebody asks for them.  The same code serves
exact mode (``tracked_ranks == ranks``), so a run that unfolds mid-way
must leave every tracker exactly as a never-folded run does; the
``fold`` pair in ``tests/invariants`` holds each such run to it.
"""

from collections import Counter

import pytest

from repro.cluster.timeline import Timeline
from repro.cluster.topology import FrontierTopology
from repro.faults.plan import FaultKind, FaultSpec
from repro.memory.tracker import MemoryTracker
from repro.models import PAPER_MODELS
from repro.parallel.engine import HybridSTOPEngine
from repro.runtime import RunSpec
from tests.invariants import count_calls, drive
from tests.invariants.registry import meets

#: (pp, tp, fsdp, ddp) on whole 8-GCD nodes; the pipelined grid cuts
#: its stages at node boundaries (fold eligibility).
GRIDS = {"3d": (1, 4, 4, 2), "pp2": (2, 4, 2, 2)}


def orbit_1b_spec(grid, fold="on", num_steps=1):
    pp, tp, fsdp, ddp = grid
    return RunSpec(
        config=PAPER_MODELS["orbit-1b"], num_gpus=pp * tp * fsdp * ddp,
        gpus_per_node=8, pp_size=pp, tp_size=tp, fsdp_size=fsdp,
        ddp_size=ddp, micro_batch=2, fold=fold, num_steps=num_steps,
    )


def _touched(session) -> int:
    return sum(1 for _ in session.cluster.touched_devices())


@pytest.fixture
def allocate_calls(monkeypatch):
    """Counts every ``MemoryTracker.allocate`` call while installed."""
    return count_calls(monkeypatch, (MemoryTracker, "allocate"))


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
def test_link_spec_priced_once_per_distinct_group(monkeypatch, grid):
    priced = Counter()
    original = FrontierTopology.effective_bandwidth

    def counting(self, ranks):
        priced[tuple(ranks)] += 1
        return original(self, ranks)

    monkeypatch.setattr(FrontierTopology, "effective_bandwidth", counting)
    run = drive(orbit_1b_spec(grid, num_steps=2))
    assert all(run.folded)
    session = run.session
    collectives = sum(
        1 for entry in session.cluster.timeline._log if entry[0] == "comm")
    assert priced and max(priced.values()) == 1
    # Thousands of collectives, a handful of distinct groups.
    assert len(priced) * 20 < collectives


@pytest.mark.parametrize("base", [(1, 4, 2, 2), (2, 4, 2, 1)],
                         ids=["3d", "pp2"])
def test_memory_work_is_class_sized(allocate_calls, base):
    """Allocations and devices depend on the class count alone:
    doubling the DDP or the FSDP extent changes neither."""
    pp, tp, fsdp, ddp = base
    counts = {}
    for label, grid in {
        "base": base,
        "ddp x2": (pp, tp, fsdp, 2 * ddp),
        "fsdp x2": (pp, tp, 2 * fsdp, ddp),
    }.items():
        allocate_calls.clear()
        run = drive(orbit_1b_spec(grid))
        assert all(run.folded)
        session = run.session
        classes = len(session.cluster.timeline.partition.keys)
        assert classes == 2 * tp * pp
        assert _touched(session) == classes <= session.cluster.world_size
        counts[label] = (allocate_calls["allocate"], _touched(session))
    assert counts["ddp x2"] == counts["base"]
    assert counts["fsdp x2"] == counts["base"]


@pytest.mark.parametrize("kind", [FaultKind.STRAGGLER, FaultKind.GRAD_CORRUPTION],
                         ids=["stays-exact", "refolds"])
@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
def test_unfold_backfills_trackers_to_the_never_folded_state(grid, kind):
    """A fault at step 1 of 3 unfolds the run; from then on every
    device's tracker must read as if the run had never folded."""
    plan = (FaultSpec(kind, step=1, rank=5, factor=2.0),)
    exact = drive(orbit_1b_spec(grid, fold="off", num_steps=3), plan)
    folded = drive(orbit_1b_spec(grid, fold="on", num_steps=3), plan)
    assert folded.folded[:2] == [True, False]
    assert folded.folded[2] is (kind is FaultKind.GRAD_CORRUPTION)
    meets("fold", folded, exact)
    for rank in range(exact.session.cluster.world_size):
        want = exact.session.cluster.device(rank).memory
        got = folded.session.cluster.device(rank).memory
        assert got.category_current("params") == want.category_current("params"), rank
        assert got.breakdown() == want.breakdown(), rank
        assert got.peak_bytes == want.peak_bytes, rank
        assert got.live_allocations == want.live_allocations, rank
    # The folded build made one front and one head per replica; the
    # unfold back-filled a structure clone per FSDP index, each on the
    # replica's own Parameter objects.
    engine = folded.session.engine
    fsdp = engine.plan.fsdp_size
    for rows in (engine.fronts, engine.heads):
        assert len(rows) == engine.plan.ddp_size
        for row in rows:
            assert len({id(module) for module in row}) == len(row) == fsdp
            for clone in row[1:]:
                assert all(mine is own for mine, own in
                           zip(clone.parameters(), row[0].parameters(), strict=True))


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
def test_folded_results_stay_bitwise_equal_to_exact(grid):
    """Sparse devices/ledgers and narrowed registration move no number:
    ledgers, ``expand()`` spans, walltime and peak memory stay ``==``."""
    exact = drive(orbit_1b_spec(grid, fold="off", num_steps=2))
    folded = drive(orbit_1b_spec(grid, fold="on", num_steps=2))
    assert all(folded.folded)
    meets("fold", folded, exact)
    # Folded, no per-rank ledger was built and most devices never asked for.
    assert not folded.session.cluster.timeline._ledgers
    assert _touched(folded.session) < _touched(exact.session) == \
        exact.session.cluster.world_size


#: (pp, tp, fsdp, ddp), fold -> ``record_comm`` calls per step, counted
#: at the commit before pp = 1 became the one-stage pipeline.
ONE_STAGE_PINS = {
    "folded-1024": ((1, 4, 16, 16), "on", 1508),
    "exact-16": ((1, 4, 2, 2), "off", 3125),
}


@pytest.mark.parametrize("grid, fold, comms_per_step", ONE_STAGE_PINS.values(),
                         ids=ONE_STAGE_PINS.keys())
def test_one_stage_pays_no_pipeline_bookkeeping(monkeypatch, grid, fold,
                                                comms_per_step):
    """pp = 1 runs the pipelined engine with one stage: it must not
    read stage clocks (a walk over every rank of every replica), record
    a stall, or emit one collective more than the 3D engine did (the
    collective ids two steps issue: the first step alone records them,
    the second lands its tape's compiled form)."""
    # FoldedTimeline inherits record_comm (it overrides only the landing).
    calls = count_calls(monkeypatch,
                        (HybridSTOPEngine, "_snapshot_stage_clocks"),
                        (HybridSTOPEngine, "_record_pipeline_stall"),
                        (Timeline, "record_comm"))
    run = drive(orbit_1b_spec(grid, fold=fold, num_steps=2))
    assert all(run.folded) is (fold == "on")
    session = run.session
    assert calls["record_comm"] == comms_per_step
    assert next(session.cluster.timeline._collective_ids) == 2 * comms_per_step
    assert not calls["_snapshot_stage_clocks"]
    assert not calls["_record_pipeline_stall"]
    assert not session.engine._stall_t0
    assert not any(s.name.startswith("pipeline.") for s in session.tracer.spans)
