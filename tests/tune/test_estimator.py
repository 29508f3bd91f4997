"""Tests for the analytic estimator.

The replay design makes the estimate *exact* — the probe runs the real
block code against the real cost model, and ledger accounting is
per-rank — so these tests can assert agreement with a fully simulated
engine step to float tolerance rather than within loose percentage
bands.  (The acceptance tests sweep whole spaces; here we cover the
structurally distinct paths: DDP reductions, checkpointed replay,
prefetch off, and the flipped rank layout.)
"""

import pytest

from repro.bench.harness import BenchCase, run_case
from repro.models.configs import ORBIT_115M
from repro.tune import AnalyticEstimator, Candidate


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
        # So is the DDP x PP split of what (TP, FSDP) leave over: the
        # stage-0 stream over rank(0, f, k) is the same under each.
        estimator.estimate(Candidate(4, 2, 1, 2, pp_size=2))
        assert len(estimator._block_probes) == before
        estimator.estimate(Candidate(4, 1, 4, 2))
        assert len(estimator._block_probes) == before + 1
        estimator.estimate(Candidate(4, 1, 2, 2, pp_size=2))
        estimator.estimate(Candidate(4, 1, 1, 2, pp_size=4))
        assert len(estimator._block_probes) == before + 1
