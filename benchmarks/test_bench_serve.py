"""Benchmark: the serving latency/throughput matrix (``BENCH_serve.json``).

Times the ``repro serve`` bench harness and asserts the headline shape
claims the committed baseline encodes: the hot-window workloads earn
the rollout prefix cache (>0.5 hit ratio), the cold workload drives
the autoscaler above one replica, and the surge saturates the pool and
trips admission control.
"""

import time
from pathlib import Path

import pytest

from repro.serve.bench import (
    DEFAULT_MATRIX,
    DEFAULT_TOLERANCE,
    build_serve_world,
    compare,
    load_baseline,
    run_serve_matrix,
    to_document,
)

BASELINE = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

#: Real-seconds ceilings, about four times the measured run: the warm
#: quick case takes 0.04-0.10 s and the warm four-case matrix 0.8-0.9 s
#: on a 2-core host, nearly all of it ``repro.nn`` forwards
#: replayed from the forward tape.  A breach means serving went back to
#: paying per-op dispatch (the parent's matrix took 1.2-1.3 s), or the
#: event loop went quadratic — not that the runner was slow.
QUICK_WALL_CLOCK_CEILING_S = 0.4
FULL_MATRIX_WALL_CLOCK_CEILING_S = 3.5


@pytest.fixture(scope="module")
def world():
    return build_serve_world()


@pytest.mark.quick
def test_quick_matrix_against_baseline(once, world):
    """The CI gate in benchmark form: quick subset vs the committed file."""
    records = once(run_serve_matrix, quick=True, world=world)
    baseline = load_baseline(BASELINE)
    problems = compare(to_document(records), baseline,
                       tolerance=DEFAULT_TOLERANCE, require_all=False)
    assert problems == []


@pytest.mark.quick
def test_quick_matrix_wall_clock_ceiling(world):
    """The quick subset, warm (the gate above ran it), under its ceiling."""
    started = time.perf_counter()
    run_serve_matrix(quick=True, world=world)
    elapsed = time.perf_counter() - started
    assert elapsed < QUICK_WALL_CLOCK_CEILING_S, f"quick case took {elapsed:.3f}s"


def test_full_matrix_shape_claims(once, world):
    records = once(run_serve_matrix, world=world)
    hot_low, hot_high = records["hot-25rps"], records["hot-150rps"]
    cold, surge = records["cold-300rps"], records["surge-800rps"]

    # Hot synoptic windows are where the prefix cache earns its keep.
    assert hot_low["cache_hit_ratio"] > 0.5
    assert hot_high["cache_hit_ratio"] > 0.5
    # The cold uniform workload can't ride the cache as hard and pushes
    # the autoscaler above the single-replica floor.
    assert cold["cache_hit_ratio"] < hot_high["cache_hit_ratio"]
    assert cold["replicas_peak"] > 1
    # The surge saturates the pool ceiling and trips admission control.
    assert surge["replicas_peak"] == 4
    assert surge["rejected"] > 0
    # Queueing is visible: offered load up, p99 up.
    assert surge["latency_p99_s"] > hot_low["latency_p99_s"]


def test_full_matrix_wall_clock_ceiling(world):
    """All four cases, warm (the shape test above ran them), under theirs."""
    started = time.perf_counter()
    run_serve_matrix(world=world)
    elapsed = time.perf_counter() - started
    assert elapsed < FULL_MATRIX_WALL_CLOCK_CEILING_S, f"matrix took {elapsed:.3f}s"
