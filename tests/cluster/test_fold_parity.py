"""Rank-symmetry folding: eligibility, fallback and the compact trace.

The folded timeline's contract is *bitwise* equality with the exact
run: ``expand()`` of the folded event log reproduces the exact-mode
per-rank ledgers, the full span list and the step walltime
float-for-float.  The ``fold`` pair in ``tests/invariants`` pins that
over the cross product; the cases here pin it on randomized 3D specs
and 4D grids up to 32 GCDs, and the fault cases pin the exact-fallback
machinery (a fault singles out one rank, so its step must run unfolded,
and a timing fault must keep the run unfolded afterwards), bitwise
against an exact run of the same plan through the same pair.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.timeline import FoldedTimeline, _ledger_values
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.runtime import RunSpec, Session
from tests.invariants import config, drive, spec
from tests.invariants.registry import Draw, check, meets

#: Whole-node (8-GCD) grids up to 32 GCDs; tp=8 exercises the
#: sub-head sharding regime (num_heads=4 < tp).
LEGAL_GRIDS = sorted(
    (tp, fsdp, ddp)
    for tp in (1, 2, 4, 8)
    for fsdp in (1, 2, 4, 8)
    for ddp in (1, 2, 4, 8)
    if tp * fsdp * ddp in (8, 16, 32)
)

#: 4D whole-node grids: a non-trivial stage axis on top of every 3D
#: sub-shape, worlds of 8-32 GCDs.  Folding requires uniform
#: pipeline-boundary links, so a multi-node grid must cut stages at
#: node boundaries (stage size a multiple of 8); single-node worlds
#: are uniform trivially.
LEGAL_GRIDS_4D = sorted(
    (pp, tp, fsdp, ddp)
    for pp in (2, 4, 8)
    for tp in (1, 2)
    for fsdp in (1, 2)
    for ddp in (1, 2, 4)
    if pp * tp * fsdp * ddp in (8, 16, 32)
    and (pp * tp * fsdp * ddp == 8 or (tp * fsdp * ddp) % 8 == 0)
)


def _check_folded(grid, **kwargs):
    """The ``fold`` pair on a folded, fault-free run: ``expand()`` of the
    folded log against the exact run, folded at every step."""
    folded, _ = check(Draw(grid, fold="on", monitored=False, **kwargs),
                      pairs=("fold",))
    assert folded.session.fold_decision.folded, \
        folded.session.fold_decision.reason
    assert all(folded.folded)


def _run(run_spec, fault_plan=()):
    run = drive(run_spec, fault_plan)
    return run.session, run.folded


def _assert_folds_to_exact(grid, plan, **kwargs):
    """The folded run against the exact one, through the ``fold`` pair;
    returns the folded run's mode per step."""
    exact = drive(spec(grid, fold="off", **kwargs), plan)
    folded = drive(spec(grid, fold="on", **kwargs), plan)
    meets("fold", folded, exact)
    return folded.folded


class TestFoldedExactParity:
    @given(
        grid=st.sampled_from(LEGAL_GRIDS),
        micro_batch=st.integers(min_value=1, max_value=3),
        depth=st.integers(min_value=1, max_value=4),
        prefetch=st.booleans(),
        recompute=st.booleans(),
        num_steps=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=12, deadline=None)
    def test_folded_run_is_bitwise_equal_to_exact(
        self, grid, micro_batch, depth, prefetch, recompute, num_steps
    ):
        _check_folded((1, *grid), micro_batch=micro_batch, depth=depth,
                      prefetch=prefetch, recompute=recompute, steps=num_steps)

    def test_auto_mode_folds_when_eligible(self):
        """``fold="on"`` folds an eligible run automatically."""
        session = Session(spec((2, 2, 4), fold="on"))
        assert session.fold_decision.folded
        assert isinstance(session.cluster.timeline, FoldedTimeline)

    def test_compact_trace_is_smaller_but_walltime_identical(self):
        exact, _ = _run(spec((2, 2, 4), fold="off"))
        folded, _ = _run(spec((2, 2, 4), fold="on"))
        assert len(folded.tracer.spans) < len(exact.tracer.spans)
        assert folded.cluster.timeline.walltime_s() == \
            exact.cluster.timeline.walltime_s()

    def test_compact_spans_carry_class_sizes(self):
        folded, _ = _run(spec((2, 2, 4), fold="on"))
        partition = folded.cluster.timeline.partition
        class_sizes = {partition.size(key) for key in partition.keys}
        sized = [s for s in folded.tracer.spans if "members" in s.attrs]
        assert sized
        # Every compact span's weight is a class size, every span lands
        # at a representative rank, and the sizes cover the world.
        reps = {partition.representative(key) for key in partition.keys}
        assert {s.attrs["members"] for s in sized} <= class_sizes
        assert {s.rank for s in sized} <= reps
        assert sum(partition.size(key) for key in partition.keys) == \
            partition.num_gpus


class TestFoldedPipelineParity:
    """The stage coordinate joins the fold ClassKey; folding needs
    uniform pipeline-boundary links, at any stage count."""

    @given(
        grid=st.sampled_from(LEGAL_GRIDS_4D),
        micro_batch=st.integers(min_value=1, max_value=2),
        extra_depth=st.integers(min_value=0, max_value=1),
        prefetch=st.booleans(),
        num_steps=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=8, deadline=None)
    def test_folded_4d_run_is_bitwise_equal_to_exact(
        self, grid, micro_batch, extra_depth, prefetch, num_steps
    ):
        _check_folded(grid, micro_batch=micro_batch,
                      depth=grid[0] + extra_depth, prefetch=prefetch,
                      steps=num_steps)

    @pytest.mark.parametrize("grid", [
        (2, 1, 2, 4),   # 16 GCDs, one node per stage
        (4, 1, 2, 4),   # 32 GCDs, one node per stage
        (8, 1, 1, 1),   # 8 stages inside a single node
    ])
    def test_fold_parity_across_stage_counts(self, grid):
        """Node-aligned cuts at every pipeline depth stay bitwise."""
        _check_folded(grid, depth=8, steps=1)

    def test_non_uniform_boundaries_refuse_to_fold(self):
        """pp=4 over two 8-GCD nodes cuts stages mid-node: boundary
        links alternate intra/inter-node, so folding must refuse —
        and the unfolded fold="on" run still matches fold="off"."""
        grid = (4, 1, 2, 2)
        off, _ = _run(spec(grid, fold="off", depth=4))
        on, _ = _run(spec(grid, fold="on", depth=4))
        assert not on.fold_decision.folded
        assert "non-uniform" in on.fold_decision.reason
        for rank in range(16):
            assert _ledger_values(off.cluster.timeline.ledger(rank)) == \
                _ledger_values(on.cluster.timeline.ledger(rank))


class TestFaultFallback:
    def test_straggler_forces_exact_and_stays_exact(self):
        """A timing fault unfolds its step and divergence blocks refold."""
        plan = FaultPlan(faults=(
            FaultSpec(FaultKind.STRAGGLER, step=1, rank=5, factor=2.0),
        ))
        # Step 1 is the fault window; rank 5's ledger diverges there, so
        # the timeline can never legally refold.
        assert _assert_folds_to_exact((2, 2, 4), plan, num_steps=3) == \
            [True, False, False]

    def test_link_degrade_forces_exact_for_its_window(self):
        plan = FaultPlan(faults=(
            FaultSpec(FaultKind.LINK_DEGRADE, step=1, rank=3, factor=3.0,
                      duration_steps=2),
        ))
        modes = _assert_folds_to_exact((2, 2, 2), plan, num_steps=4)
        assert modes[0] is True and modes[1] is False and modes[2] is False

    def test_timing_neutral_fault_refolds_after_its_step(self):
        """Grad corruption never touches timing, so the class ledgers
        stay converged and the timeline folds again the next step."""
        plan = FaultPlan(faults=(
            FaultSpec(FaultKind.GRAD_CORRUPTION, step=1, rank=2),
        ))
        assert _assert_folds_to_exact((2, 2, 4), plan, num_steps=3) == \
            [True, False, True]


class TestEligibility:
    def test_fold_off_never_folds(self):
        session = Session(spec((2, 2, 4), fold="off"))
        assert not session.fold_decision.folded
        assert session.fold_decision.reason == "fold=off"
        assert not isinstance(session.cluster.timeline, FoldedTimeline)

    def test_compute_skew_is_ineligible(self):
        """SkewedCompute singles out ranks, so folding must refuse."""
        session = Session(
            spec((2, 2, 4), fold="on", compute_skew=((5, 2.0),))
        )
        assert not session.fold_decision.folded
        assert "skew" in session.fold_decision.reason
        assert not isinstance(session.cluster.timeline, FoldedTimeline)

    def test_skewed_run_still_simulates_correctly(self):
        """fold="on" with skew silently runs exact; both specs agree."""
        skew = ((5, 2.0),)
        off, _ = _run(spec((2, 2, 2), fold="off", compute_skew=skew))
        on, _ = _run(spec((2, 2, 2), fold="on", compute_skew=skew))
        for rank in range(8):
            assert _ledger_values(off.cluster.timeline.ledger(rank)) == \
                _ledger_values(on.cluster.timeline.ledger(rank))

    def test_numeric_sessions_never_fold(self):
        session = Session(RunSpec(
            config=config(1), num_gpus=8, tp_size=2, fsdp_size=2, ddp_size=2,
            meta=False, fold="on", track_device_memory=False))
        assert not session.fold_decision.folded
        assert "numeric" in session.fold_decision.reason

    def test_invalid_fold_value_rejected(self):
        for fold in ("sometimes", "auto"):
            with pytest.raises(Exception, match="invalid fold"):
                spec((2, 2, 2), fold=fold)


class TestMetaStepContract:
    def test_meta_step_returns_nan_loss_under_folding(self):
        session = Session(spec((2, 2, 4), fold="on"))
        loss, observations = session.meta_step(0)
        assert math.isnan(loss)
        assert observations == session.spec.observations
