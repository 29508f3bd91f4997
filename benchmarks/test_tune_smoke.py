"""Benchmark: the parallelism planner end to end (quick subset).

Times one full ``repro tune`` search — enumeration, analytic scoring of
every legal candidate, and one simulated validation step — on the
ORBIT-115M 2-node space, and asserts the headline claims the planner
makes: the analytic leader survives simulated validation with a tight
analytic-vs-simulated error, and the winner beats the committed bench
matrix's hand-picked configuration on time per observation.  A second
search holds the 4D sweep of ORBIT-1B to a real-seconds ceiling.
"""

import time

import pytest

from repro.models.configs import ORBIT_1B, ORBIT_115M
from repro.tune import TuneRequest, run_search

#: Real-seconds budget for the 304-candidate 4D sweep of ORBIT-1B on 32
#: GCDs with three validated steps — the ``bench_wall`` ``tune-4d``
#: request — about 2x its measured pass (0.48 s on a 2-core host, from
#: 1.05 s: block streams replay as compiled columns and one block is
#: probed per layout, not per prefetch flag).  Probes and validation
#: run on the fold (class-sized work); per-rank probes alone took 3 s.
TUNE_4D_WALL_CEILING_S = 1.0


@pytest.mark.quick
@pytest.mark.benchmark(group="tune")
def test_tune_115m_2n_search(once):
    request = TuneRequest(
        ORBIT_115M, num_gpus=16, gpus_per_node=8,
        micro_batches=(2,), recompute_options=(False,),
        prefetch_options=(True,),
    )
    result = once(run_search, request, top_k=1)

    winner = result.winner
    print(
        f"\ntune winner: {winner.candidate.label()} "
        f"sim {winner.simulated_step_time_s:.6f} s "
        f"(analytic error {winner.analytic_error:.2%}, "
        f"{len(result.ranked)} candidates scored)"
    )
    # The analytic estimate validates within the 10% acceptance bound.
    assert winner.analytic_error < 0.10
    # The planner's pick is at least as fast per observation as the
    # bench matrix's hand-picked tp4/f2/d2/mb2 point for this topology.
    hand_picked = next(
        s for s in result.ranked
        if (s.candidate.tp_size, s.candidate.fsdp_size,
            s.candidate.ddp_size) == (4, 2, 2)
    )
    assert (
        winner.estimate.time_per_obs_s <= hand_picked.estimate.time_per_obs_s
    )


@pytest.mark.quick
@pytest.mark.benchmark(group="tune")
def test_tune_1b_4d_sweep_under_wall_clock_ceiling(once):
    request = TuneRequest(
        ORBIT_1B, num_gpus=32, micro_batches=(2, 4), pp_sizes=(1, 2),
    )
    start = time.perf_counter()
    result = once(run_search, request, top_k=3)
    elapsed = time.perf_counter() - start
    assert elapsed < TUNE_4D_WALL_CEILING_S, (
        f"4D sweep took {elapsed:.2f}s real time "
        f"(ceiling {TUNE_4D_WALL_CEILING_S:.1f}s)"
    )
    assert len(result.space.candidates) == 304
    assert len(result.validated) == 3
    assert all(s.analytic_error < 1e-9 for s in result.validated)
