"""Critical-path analyzer invariants on a full 2-node / 16-GCD step.

The acceptance bar from the issue: ``critical_path_s`` must equal the
maximum per-rank ledger walltime *bitwise*, and the attribution buckets
must sum to the critical-path total exactly — both sides accumulate the
same floats in the same order, so ``==`` is the right comparison, not
``pytest.approx``.
"""

from dataclasses import replace

import pytest

from repro.obs import (
    analyze_trace,
    critical_path_report,
    load_trace_events,
    run_traced_spec,
)
from tests.obs.test_invariants import TRACE_4, TRACE_16


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """One traced step on the default 2-node, 16-GCD layout."""
    out = tmp_path_factory.mktemp("trace")
    return run_traced_spec(TRACE_16, out_dir=out)


@pytest.fixture(scope="module")
def analysis(run):
    return analyze_trace(run.tracer)


class TestBitwiseInvariants:
    def test_critical_path_equals_max_ledger_walltime(self, run, analysis):
        walltimes = [
            run.cluster.timeline.ledger(rank).walltime_s
            for rank in range(run.cluster.world_size)
        ]
        assert analysis.critical_path_s == max(walltimes)
        assert analysis.critical_path_s == run.walltime_s

    def test_per_rank_buckets_match_ledgers_exactly(self, run, analysis):
        for rank in range(run.cluster.world_size):
            ledger = run.cluster.timeline.ledger(rank)
            attr = analysis.overall.ranks[rank]
            assert attr.compute_s == ledger.compute_s
            assert attr.comm_s == ledger.comm_s
            assert attr.exposed_comm_s == ledger.exposed_comm_s
            assert attr.busy_s == ledger.walltime_s
            assert attr.flops == ledger.flops
            assert attr.comm_bytes == ledger.comm_bytes

    def test_attribution_buckets_sum_to_critical_path(self, analysis):
        buckets = analysis.overall.attribution
        total = (
            buckets["exposed_compute_s"] + buckets["exposed_comm_s"] + buckets["io_s"]
        )
        assert total == analysis.critical_path_s

    def test_slack_is_zero_on_critical_rank_and_nonnegative(self, analysis):
        overall = analysis.overall
        assert overall.slack_s[overall.critical_rank] == 0.0
        assert all(slack >= 0.0 for slack in overall.slack_s.values())
        for rank, slack in overall.slack_s.items():
            assert slack == overall.critical_path_s - overall.ranks[rank].busy_s


class TestDecomposition:
    def test_phases_cover_engine_stages(self, analysis):
        assert {"engine.forward", "engine.backward", "engine.grad_sync"} <= set(
            analysis.overall.phases
        )

    def test_layers_identified(self, analysis):
        assert {"block0", "block1"} <= set(analysis.overall.layers)

    def test_exposed_comm_by_op_names_collectives(self, analysis):
        assert "all_reduce" in analysis.overall.exposed_comm_by_op

    def test_bound_resource_is_named(self, analysis):
        assert analysis.bound_resource in ("compute", "comm", "io", "idle")
        assert analysis.bound_resource != "idle"

    def test_exposed_comm_fraction_in_unit_interval(self, analysis):
        assert 0.0 <= analysis.overall.exposed_comm_fraction <= 1.0

    def test_single_step_cut_present(self, analysis):
        assert [cut.label for cut in analysis.steps] == ["step.0"]


class TestMultiStep:
    def test_steps_labeled_and_ordered(self):
        run = run_traced_spec(replace(TRACE_4, num_steps=3))
        analysis = analyze_trace(run.tracer)
        assert [cut.label for cut in analysis.steps] == [
            "step.0", "step.1", "step.2"
        ]
        # Every step cut is internally consistent.
        for cut in analysis.steps:
            buckets = cut.attribution
            assert (
                buckets["exposed_compute_s"]
                + buckets["exposed_comm_s"]
                + buckets["io_s"]
                == cut.critical_path_s
            )


class TestCrossRankChain:
    def test_chain_covers_critical_rank(self, analysis):
        chain = analysis.overall.chain
        assert chain
        assert chain[-1].rank == analysis.overall.critical_rank
        assert chain[-1].via is None  # walk started there
        assert all(seg.spans > 0 for seg in chain)

    def test_chain_jumps_to_injected_straggler(self):
        """A massively skewed off-critical rank must appear in the chain.

        Rank 2's compute is inflated until it dominates the step, so the
        dependency walk from the critical rank has to pass through the
        collective gated by rank 2's late arrival.
        """
        run = run_traced_spec(replace(TRACE_4, compute_skew={2: 10_000_000.0}))
        analysis = analyze_trace(run.tracer)
        assert 2 in {seg.rank for seg in analysis.overall.chain}
        entered = [seg for seg in analysis.overall.chain if seg.via is not None]
        assert all(seg.via_cid is not None for seg in entered)


class TestSerializationRoundTrip:
    def test_loaded_trace_analyzes_bitwise_identically(self, run, analysis):
        spans = load_trace_events(run.files["events"])
        reloaded = analyze_trace(spans)
        assert reloaded.critical_path_s == analysis.critical_path_s
        assert reloaded.overall.critical_rank == analysis.overall.critical_rank
        for rank, attr in analysis.overall.ranks.items():
            assert reloaded.overall.ranks[rank].as_dict() == attr.as_dict()


class TestEmptyAndDegenerate:
    def test_empty_trace(self):
        analysis = analyze_trace([])
        assert analysis.critical_path_s == 0.0
        assert analysis.bound_resource == "idle"
        assert analysis.steps == []

    def test_report_renders(self, analysis):
        text = critical_path_report(analysis)
        assert "critical path:" in text
        assert "bound resource:" in text
        assert "Per-rank slack" in text
