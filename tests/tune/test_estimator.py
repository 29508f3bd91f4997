"""Tests for the analytic estimator.

The replay design makes the estimate *exact* — the probe runs the real
block code against the real cost model, and ledger accounting is
per-rank — so these tests can assert agreement with a fully simulated
engine step to float tolerance rather than within loose percentage
bands.  (The acceptance tests sweep whole spaces; here we cover the
structurally distinct paths: DDP reductions, checkpointed replay,
prefetch off, and the flipped rank layout.)
"""

import json
from collections import Counter
from dataclasses import replace

import pytest

from repro.bench.harness import BenchCase, run_case
from repro.cluster.timeline import Timeline
from repro.models import PAPER_MODELS
from repro.models.configs import ORBIT_115M
from repro.tune import AnalyticEstimator, Candidate, TuneRequest, enumerate_space


def _simulated_step(candidate: Candidate) -> float:
    case = BenchCase(
        "estimator-check", "orbit-115m", candidate.world_size, 8,
        tp_size=candidate.tp_size, fsdp_size=candidate.fsdp_size,
        ddp_size=candidate.ddp_size, micro_batch=candidate.micro_batch,
        prefetch=candidate.prefetch, recompute=candidate.recompute,
        tp_innermost=candidate.tp_innermost,
        fold="off",  # the exact per-rank engine step is the oracle
    )
    return run_case(case, config=ORBIT_115M).step_time_s


@pytest.fixture(scope="module")
def estimator():
    return AnalyticEstimator(ORBIT_115M, num_gpus=16, gpus_per_node=8)


class TestAgainstSimulation:
    @pytest.mark.parametrize("candidate", [
        Candidate(4, 2, 2, 2),
        Candidate(2, 4, 2, 1, recompute=True),
        Candidate(8, 2, 1, 2, prefetch=False),
        Candidate(4, 4, 1, 2, tp_innermost=False),
        Candidate(1, 2, 8, 2),
    ], ids=lambda c: c.label())
    def test_matches_engine_step_time(self, estimator, candidate):
        estimate = estimator.estimate(candidate)
        simulated = _simulated_step(candidate)
        assert estimate.step_time_s == pytest.approx(simulated, rel=1e-9)

    def test_ledger_buckets_sum_to_step_time(self, estimator):
        estimate = estimator.estimate(Candidate(4, 2, 2, 2))
        assert estimate.step_time_s == pytest.approx(
            estimate.compute_s + estimate.exposed_comm_s
        )
        assert estimate.exposed_comm_s <= estimate.comm_s
        assert 0.0 < estimate.exposed_comm_fraction < 1.0


class TestMemorySide:
    def test_peak_and_fits_populated(self, estimator):
        estimate = estimator.estimate(Candidate(4, 2, 2, 2))
        assert estimate.fits
        assert estimate.peak_memory_bytes > 0

    def test_checkpointing_reduces_predicted_memory(self, estimator):
        plain = estimator.estimate(Candidate(4, 2, 2, 2))
        ckpt = estimator.estimate(Candidate(4, 2, 2, 2, recompute=True))
        assert ckpt.peak_memory_bytes < plain.peak_memory_bytes
        assert ckpt.step_time_s > plain.step_time_s

    def test_time_per_obs_divides_by_global_batch(self, estimator):
        estimate = estimator.estimate(Candidate(4, 2, 2, 2))
        assert estimate.time_per_obs_s == pytest.approx(
            estimate.step_time_s / 8
        )


class TestValidation:
    def test_wrong_world_size_rejected(self, estimator):
        with pytest.raises(ValueError, match="world"):
            estimator.estimate(Candidate(4, 2, 1, 2))

    def test_probe_cache_reused_across_policy_axes(self, estimator):
        # recompute is replay-only: the same probe serves both variants.
        estimator.estimate(Candidate(4, 2, 2, 2))
        before = len(estimator._block_probes)
        estimator.estimate(Candidate(4, 2, 2, 2, recompute=True))
        assert len(estimator._block_probes) == before
        # ... and so is prefetch: one executed block serves both twins.
        estimator.estimate(Candidate(4, 2, 2, 2, prefetch=False))
        assert len(estimator._block_probes) == before
        # So is the DDP x PP split of what (TP, FSDP) leave over: the
        # stage-0 stream over rank(0, f, k) is the same under each.
        estimator.estimate(Candidate(4, 2, 1, 2, pp_size=2))
        assert len(estimator._block_probes) == before
        estimator.estimate(Candidate(4, 1, 4, 2))
        assert len(estimator._block_probes) == before + 1
        estimator.estimate(Candidate(4, 1, 2, 2, pp_size=2))
        estimator.estimate(Candidate(4, 1, 1, 2, pp_size=4))
        assert len(estimator._block_probes) == before + 1


# -- counts, not seconds ------------------------------------------------------
_ORBIT_1B = PAPER_MODELS["orbit-1b"]


@pytest.fixture
def calls(monkeypatch):
    """Counts exact-``Timeline`` ``record_*`` calls and executed probes."""
    counter = Counter()

    def counted(owner, name, label):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counter[label] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(Timeline, "record_compute", "record")
    counted(Timeline, "record_comm", "record")
    counted(AnalyticEstimator, "_probe_block", "_probe_block")
    return counter


def _warm_estimate_records(calls, config, candidate) -> int:
    estimator = AnalyticEstimator(config, candidate.world_size)
    estimate = estimator.estimate(candidate)      # warms both probes
    calls.clear()
    assert estimator.estimate(candidate) == estimate
    assert not calls["_probe_block"]
    return calls["record"]


@pytest.mark.parametrize("candidate", [
    Candidate(4, 2, 4, 2, recompute=True),
    Candidate(4, 2, 2, 2, pp_size=2),
], ids=lambda c: c.label())
def test_a_warm_estimate_records_closed_form_events_only(calls, candidate):
    """The block streams land as column sums, so what still goes through
    ``record_*`` is the dense/boundary/stall/epilogue events — a number
    that does not grow with the trunk's depth."""
    assert _ORBIT_1B.depth == 8
    shallow = _warm_estimate_records(calls, _ORBIT_1B, candidate)
    deep = _warm_estimate_records(
        calls, replace(_ORBIT_1B, depth=16), candidate)
    assert 0 < shallow == deep


def test_the_tune_4d_sweep_executes_one_block_per_layout(calls):
    """One block is executed per (tp, micro_batch), at fsdp = 1: every
    FSDP extent, rank layout and prefetch flag of it is derived."""
    request = TuneRequest(_ORBIT_1B, 32, micro_batches=(2, 4),
                          pp_sizes=(1, 2))
    candidates = enumerate_space(request).candidates
    estimator = AnalyticEstimator(request.config, request.num_gpus)
    for candidate in candidates:
        estimator.estimate(candidate)
    twins = {(c.tp_size, c.fsdp_size, c.tp_innermost, c.micro_batch,
              c.prefetch) for c in candidates}
    assert len(twins) == 84
    assert len(estimator._block_probes) == len({t[:4] for t in twins}) == 42
    assert calls["_probe_block"] == len(
        {(c.tp_size, c.micro_batch) for c in candidates}) == 8


def test_a_repeated_degraded_estimate_records_its_closed_form_only(calls):
    """Re-pricing runs through the profile injector, whose ``pricing``
    is settled: the block streams land from forms stretched at compile
    time, so a repeated degraded estimate records no more than a clean
    one's closed-form events — and stays on its golden."""
    from tests.tune.test_estimates_golden import GOLDEN, PROFILE, hexes

    candidate = enumerate_space(TuneRequest(
        _ORBIT_1B, 32, micro_batches=(2, 4), pp_sizes=(1, 2))).candidates[7]
    estimator = AnalyticEstimator(_ORBIT_1B, 32)
    estimator.estimate(candidate)
    calls.clear()
    clean = estimator.estimate(candidate)
    closed_form = calls["record"]
    estimator.estimate(candidate, PROFILE)
    calls.clear()
    degraded = estimator.estimate(candidate, PROFILE)
    assert calls["record"] == closed_form
    assert degraded != clean
    golden = json.loads(GOLDEN.read_text())["degraded"]
    assert hexes(degraded) == golden[candidate.label()]
