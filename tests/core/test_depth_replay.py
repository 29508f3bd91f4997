"""Depth replay: where the trunk executes and where it replays.

On shape-only inputs :class:`~repro.core.hybrid_block.HybridSTOPTrunk`
executes one block per direction and replays its captured event stream
for the rest.  The ``depth-replay`` pair in ``tests/invariants`` holds
it to the trunk's own ``forward_every_block`` / ``backward_every_block``
over the cross product; the cases here pin that pair on random 3D and
two-stage specs, an uneven stage split and faults landing in replayed
blocks.  The rest pin the routing (numeric inputs never capture) and
that the work per step does not grow with depth.
"""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.timeline import _ledger_values
from repro.core import fsdp_ops
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.meta import MetaArray
from repro.runtime import RunSpec, Session
from tests.invariants import config, count_calls, drive, every_block, spec
from tests.invariants.registry import Draw, check, run

#: Whole-node 3D grids up to 32 GCDs, then the two-stage grids that cut
#: stages at node boundaries (or share one node): per-stage trunks.
GRIDS = sorted(
    (1, tp, fsdp, ddp)
    for tp in (1, 2, 4, 8) for fsdp in (1, 2, 4, 8) for ddp in (1, 2, 4, 8)
    if tp * fsdp * ddp in (8, 16, 32)
) + sorted(
    (2, tp, fsdp, ddp)
    for tp in (1, 2) for fsdp in (1, 2) for ddp in (1, 2, 4)
    if 2 * tp * fsdp * ddp in (8, 16, 32)
    and (2 * tp * fsdp * ddp == 8 or (tp * fsdp * ddp) % 8 == 0)
)


def _check(draw):
    """The ``depth-replay`` pair on ``draw``; returns the replayed run,
    after checking no block keeps a cache past its step."""
    replayed, _ = check(draw, pairs=("depth-replay",))
    for trunk in replayed.session.engine.trunks:
        for block in trunk.blocks:
            assert block._cache is None
            assert all(m._cache is None for m in block.submodules)
    return replayed


def _memory(session) -> dict:
    return {
        device.rank: (device.memory.peak_bytes,
                      device.memory.live_allocations,
                      device.memory.category_current("params"))
        for device in session.cluster.touched_devices()
    }


class TestReplayEqualsEveryBlock:
    @given(
        grid=st.sampled_from(GRIDS),
        extra_depth=st.integers(min_value=0, max_value=4),
        prefetch=st.booleans(),
        recompute=st.booleans(),
        layer_wrapping=st.booleans(),
        fold=st.sampled_from(["off", "on"]),
        traced=st.booleans(),
        num_steps=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_specs(self, grid, extra_depth, prefetch, recompute,
                          layer_wrapping, fold, traced, num_steps):
        # depth 1-5 at pp=1, 2-6 at pp=2 (odd depths split unevenly).
        _check(Draw(grid, depth=grid[0] + extra_depth, fold=fold,
                    steps=num_steps, prefetch=prefetch, recompute=recompute,
                    layer_wrapping=layer_wrapping, traced=traced,
                    monitored=False))

    @pytest.mark.parametrize("fold", ["off", "on"])
    @pytest.mark.parametrize("recompute", [False, True])
    def test_uneven_stage_split(self, fold, recompute):
        """Depth 3 at pp=2: a two-block trunk replays, a one-block one
        has nothing to replay, and block names stay global."""
        session = _check(Draw((2, 2, 2, 2), depth=3, fold=fold,
                              recompute=recompute, steps=2,
                              monitored=False)).session
        assert session.fold_decision.folded is (fold == "on")
        stages = session.engine.trunks[0].stage_trunks
        assert sorted(len(t.blocks) for t in stages) == [1, 2]
        names = {s.name for s in session.tracer.spans}
        assert {f"trunk0.block{i}.attn" for i in range(3)} <= names

    def test_replay_engages_on_meta_inputs_only(self, monkeypatch):
        """Numeric inputs run every block (nothing is captured)."""
        session = Session(RunSpec(
            config=config(3), num_gpus=8, tp_size=2, fsdp_size=2, ddp_size=2,
            meta=False, track_device_memory=False))
        captures = count_calls(monkeypatch, (session.cluster.timeline, "capture"))
        session.numeric_step(0)
        assert not captures


class TestFaultsInReplayedBlocks:
    """The injector sees every replayed event (captured seconds are
    pre-injector), so a fault landing in a block that was never executed
    stretches — or corrupts — exactly what it would have."""

    # Rank 5 computes in every block; on the faulted steps most of its
    # events come from replayed blocks (depth 4: three of four).
    PLANS = {
        "straggler": FaultSpec(FaultKind.STRAGGLER, step=1, rank=5, factor=2.0),
        "link-degrade": FaultSpec(FaultKind.LINK_DEGRADE, step=1, rank=3,
                                  factor=3.0, duration_steps=2),
        "grad-corruption": FaultSpec(FaultKind.GRAD_CORRUPTION, step=1, rank=2),
    }

    @pytest.mark.parametrize("fold", ["off", "on"])
    @pytest.mark.parametrize("name", PLANS)
    def test_degradations_and_corruption(self, name, fold):
        draw = Draw((1, 2, 2, 4), depth=4, fold=fold, steps=3,
                    monitored=False, faults=(self.PLANS[name],))
        replayed = _check(draw).session
        if name != "grad-corruption":
            rank = self.PLANS[name].rank
            clean = run(Draw(draw.grid, depth=4, fold=fold, steps=3,
                             monitored=False)).session.cluster.timeline
            faulted = replayed.cluster.timeline.ledger(rank)
            assert (faulted.compute_s, faulted.comm_s) > \
                (clean.ledger(rank).compute_s, clean.ledger(rank).comm_s)

    def test_stretched_events_lie_in_replayed_blocks(self):
        """Every block's spans on the straggling rank are stretched by
        the same factor, executed or replayed."""
        run_spec = spec((1, 2, 2, 4), depth=4)
        clean = drive(run_spec).session
        slow = drive(run_spec, (FaultSpec(
            FaultKind.STRAGGLER, step=0, rank=5, factor=2.0),)).session
        for block in range(4):
            name = f"trunk1.block{block}.mlp"  # rank 5 sits in replica 1
            base = [s.dur for s in clean.tracer.spans
                    if s.rank == 5 and s.name == name]
            stretched = [s.dur for s in slow.tracer.spans
                         if s.rank == 5 and s.name == name]
            assert base and stretched == [2.0 * dur for dur in base]

    def test_crash_in_a_replayed_block_raises_at_the_same_event(self):
        """A crash-class fault named after a block that is only ever
        replayed fires from the replayed event, with the timeline where
        the oracle has it.  The one difference: unwinding real code
        releases the gathers open around the crash (free markers);
        a replayed stream has no frames to unwind."""
        from repro.faults.errors import GpuCrashError

        plan = FaultPlan(faults=(FaultSpec(
            FaultKind.GPU_CRASH, step=0, rank=1, op="trunk0.block1.mlp"),))
        sessions = []
        for context in (nullcontext, every_block):
            with context():
                session = Session(spec((1, 2, 2, 2), depth=3))
                injector = FaultInjector(plan, gpus_per_node=8)
                session.cluster.attach_injector(injector)
                injector.begin_step(0)
                with pytest.raises(GpuCrashError):
                    session.meta_step(0)
                sessions.append(session)
        replayed, oracle = sessions
        for rank in range(8):
            assert _ledger_values(replayed.cluster.timeline.ledger(rank)) == \
                _ledger_values(oracle.cluster.timeline.ledger(rank))
        assert next(replayed.cluster.timeline._collective_ids) == \
            next(oracle.cluster.timeline._collective_ids)
        got = [s.to_dict() for s in replayed.tracer.spans]
        want = [s.to_dict() for s in oracle.tracer.spans]
        assert got and got == want[:len(got)]
        assert all(s["name"].startswith("free.") for s in want[len(got):])
        assert _memory(replayed) == _memory(oracle)


class TestWorkIsDepthIndependent:
    def test_meta_arrays_and_gathers_per_step_do_not_grow_with_depth(
            self, monkeypatch):
        """Counts, not seconds: a meta step builds the same number of
        MetaArrays and issues the same number of ``all_gather`` calls at
        depth 2 and depth 8 — one block's worth per direction."""
        calls = count_calls(monkeypatch, (MetaArray, "__init__"),
                            (fsdp_ops, "all_gather"))
        counts = {}
        for depth in (2, 8):
            session = Session(spec((1, 2, 2, 2), depth=depth, fold="on"))
            calls.clear()
            session.meta_step(0)
            counts[depth] = dict(calls)
        assert counts[2]["all_gather"] > 0 and counts[2]["__init__"] > 0
        assert counts[8] == counts[2]
        # ... while the recorded gathers do scale with depth.
        gathers = sum(1 for s in session.tracer.spans
                      if s.kind == "gather" and s.name == "all_gather")
        assert gathers > 3 * counts[8]["all_gather"]
