"""Depth replay == executing every block, bitwise.

On shape-only inputs :class:`~repro.core.hybrid_block.HybridSTOPTrunk`
executes one block per direction and replays its captured event stream
for the rest.  The oracle is the trunk's own
``forward_every_block`` / ``backward_every_block``; ``every_block()``
below routes the engine through them, so each case runs the same spec
twice and demands ``==`` on everything a run leaves behind: ledgers,
spans, the folded event log and its expansion, collective ids, device
memory trackers and the gradient shards the DDP reduction reads.
"""

from collections import Counter
from contextlib import contextmanager, nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.timeline import FoldedTimeline, _ledger_values
from repro.core import fsdp_ops
from repro.core.hybrid_block import HybridSTOPTrunk
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.meta import MetaArray
from repro.obs import NULL_TRACER
from repro.runtime import RunSpec, Session
from tests.cluster.test_fold_parity import (
    LEGAL_GRIDS,
    LEGAL_GRIDS_4D,
    _config,
)

#: 3D grids plus the two-stage 4D ones (per-stage trunks at pp > 1).
GRIDS = [(1, *grid) for grid in LEGAL_GRIDS] + \
    [grid for grid in LEGAL_GRIDS_4D if grid[0] == 2]


@contextmanager
def every_block():
    """Engines built and stepped inside run the execute-every-block oracle."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(HybridSTOPTrunk, "forward",
                      HybridSTOPTrunk.forward_every_block)
        patch.setattr(HybridSTOPTrunk, "backward",
                      HybridSTOPTrunk.backward_every_block)
        yield


def _spec(grid, depth, *, fold="off", num_steps=1, **policy):
    pp, tp, fsdp, ddp = grid
    return RunSpec(
        config=_config(depth), num_gpus=pp * tp * fsdp * ddp, gpus_per_node=8,
        pp_size=pp, tp_size=tp, fsdp_size=fsdp, ddp_size=ddp, micro_batch=2,
        fold=fold, num_steps=num_steps, **policy,
    )


def _run(spec, fault_plan=None, traced=True):
    session = Session(spec, tracer=None if traced else NULL_TRACER)
    injector = None
    if fault_plan is not None:
        injector = FaultInjector(fault_plan, gpus_per_node=spec.gpus_per_node)
        session.cluster.attach_injector(injector)
    for step in range(spec.num_steps):
        if injector is not None:
            injector.begin_step(step)
        session.meta_step(step)
    return session


def _both(spec, fault_plan=None, traced=True):
    """The same run twice: depth replay, then the every-block oracle."""
    replayed = _run(spec, fault_plan, traced)
    with every_block():
        oracle = _run(spec, fault_plan, traced)
    return replayed, oracle


def _memory(session) -> dict:
    return {
        device.rank: (device.memory.peak_bytes,
                      device.memory.live_allocations,
                      device.memory.category_current("params"))
        for device in session.cluster.touched_devices()
    }


def _grad_shapes(session) -> list:
    engine = session.engine
    return [
        [None if p.grad_shards is None else [g.shape for g in p.grad_shards]
         for p in engine.sharded_parameters(d)]
        for d in range(len(engine.trunks))
    ]


def _assert_same_run(replayed, oracle):
    got, want = replayed.cluster.timeline, oracle.cluster.timeline
    for rank in range(oracle.cluster.world_size):
        assert _ledger_values(got.ledger(rank)) == \
            _ledger_values(want.ledger(rank)), f"ledger mismatch at rank {rank}"
    assert got.walltime_s() == want.walltime_s()
    assert got.total_flops() == want.total_flops()
    assert [s.to_dict() for s in replayed.tracer.spans] == \
        [s.to_dict() for s in oracle.tracer.spans]
    # The next collective id is the count issued so far (the spans above
    # carry the ids themselves when traced).
    assert next(got._collective_ids) == next(want._collective_ids)
    if isinstance(want, FoldedTimeline):
        assert got.folded == want.folded
        assert got._log == want._log
        got_ledgers, got_spans = got.expand()
        want_ledgers, want_spans = want.expand()
        assert list(map(_ledger_values, got_ledgers)) == \
            list(map(_ledger_values, want_ledgers))
        assert [s.to_dict() for s in got_spans] == \
            [s.to_dict() for s in want_spans]
    assert _memory(replayed) == _memory(oracle)
    assert replayed.peak_memory_bytes() == oracle.peak_memory_bytes()
    assert _grad_shapes(replayed) == _grad_shapes(oracle)
    for trunk in replayed.engine.trunks:
        for block in trunk.blocks:
            assert block._cache is None
            assert all(m._cache is None for m in block.submodules)


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
        spec = _spec(grid, grid[0] + extra_depth, fold=fold,
                     num_steps=num_steps, prefetch=prefetch,
                     recompute=recompute, layer_wrapping=layer_wrapping)
        _assert_same_run(*_both(spec, traced=traced))

    @pytest.mark.parametrize("fold", ["off", "on"])
    @pytest.mark.parametrize("recompute", [False, True])
    def test_uneven_stage_split(self, fold, recompute):
        """Depth 3 at pp=2: a two-block trunk replays, a one-block one
        has nothing to replay, and block names stay global."""
        spec = _spec((2, 2, 2, 2), 3, fold=fold, recompute=recompute,
                     num_steps=2)
        replayed, oracle = _both(spec)
        _assert_same_run(replayed, oracle)
        assert replayed.fold_decision.folded is (fold == "on")
        stages = replayed.engine.trunks[0].stage_trunks
        assert sorted(len(t.blocks) for t in stages) == [1, 2]
        names = {s.name for s in replayed.tracer.spans}
        assert {f"trunk0.block{i}.attn" for i in range(3)} <= names

    def test_replay_engages_on_meta_inputs_only(self):
        """Numeric inputs run every block (nothing is captured)."""
        spec = RunSpec(config=_config(3), num_gpus=8, tp_size=2, fsdp_size=2,
                       ddp_size=2, meta=False, track_device_memory=False)
        session = Session(spec)
        captures = Counter()
        timeline = session.cluster.timeline
        original = timeline.capture

        def counting(*args, **kwargs):
            captures["capture"] += 1
            return original(*args, **kwargs)

        timeline.capture = counting
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
        plan = FaultPlan(faults=(self.PLANS[name],))
        spec = _spec((1, 2, 2, 4), 4, fold=fold, num_steps=3)
        replayed, oracle = _both(spec, plan)
        _assert_same_run(replayed, oracle)
        if name != "grad-corruption":
            rank = self.PLANS[name].rank
            clean = _run(spec).cluster.timeline.ledger(rank)
            faulted = replayed.cluster.timeline.ledger(rank)
            assert (faulted.compute_s, faulted.comm_s) > \
                (clean.compute_s, clean.comm_s)

    def test_stretched_events_lie_in_replayed_blocks(self):
        """Every block's spans on the straggling rank are stretched by
        the same factor, executed or replayed."""
        spec = _spec((1, 2, 2, 4), 4)
        clean = _run(spec)
        slow = _run(spec, FaultPlan(faults=(FaultSpec(
            FaultKind.STRAGGLER, step=0, rank=5, factor=2.0),)))
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
        spec = _spec((1, 2, 2, 2), 3)
        sessions = []
        for context in (nullcontext, every_block):
            with context():
                session = Session(spec)
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
        calls = Counter()
        meta_init = MetaArray.__init__
        all_gather = fsdp_ops.all_gather

        def counting_init(self, *args, **kwargs):
            calls["MetaArray"] += 1
            meta_init(self, *args, **kwargs)

        def counting_gather(*args, **kwargs):
            calls["all_gather"] += 1
            return all_gather(*args, **kwargs)

        monkeypatch.setattr(MetaArray, "__init__", counting_init)
        monkeypatch.setattr(fsdp_ops, "all_gather", counting_gather)
        counts = {}
        for depth in (2, 8):
            session = Session(_spec((1, 2, 2, 2), depth, fold="on"))
            calls.clear()
            session.meta_step(0)
            counts[depth] = dict(calls)
        assert counts[2]["all_gather"] > 0 and counts[2]["MetaArray"] > 0
        assert counts[8] == counts[2]
        # ... while the recorded gathers do scale with depth.
        gathers = sum(1 for s in session.tracer.spans
                      if s.kind == "gather" and s.name == "all_gather")
        assert gathers > 3 * counts[8]["all_gather"]
