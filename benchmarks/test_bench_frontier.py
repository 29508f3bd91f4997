"""Benchmark: frontier-scale simulation stays affordable and exact.

The symmetry-folded timeline is what makes the 113B model simulatable
at the full 49,152-GCD Frontier machine; these cases gate both sides
of that bargain.  The ``quick``-marked wall-clock ceiling fails CI if
the folded full-machine meta step regresses past 1.2 seconds of real
time (the whole point of folding), a host-independent count holds a
repeated case to its compiled step replay (no ``record_comm`` call at
all), and the baseline comparison holds the frontier entries of
``BENCH_obs.json`` to the same 5% drift gate as the small cases.
"""

import time
from collections import Counter
from pathlib import Path

import pytest

from repro.bench import (
    DEFAULT_MATRIX,
    DEFAULT_TOLERANCE,
    FRONTIER_MATRIX,
    compare,
    load_baseline,
    run_case,
    to_document,
)
from repro.cluster.timeline import Timeline

BASELINE = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

#: Real-seconds budget for the folded 49,152-GCD meta step — about
#: twice the measured step (about 0.6 s on a 2-core host), headroom for
#: a noisy host.  The exact (unfolded) simulation is thousands of times
#: this; a folded run breaching the ceiling means symmetry folding
#: stopped pulling its weight.
FULL_MACHINE_WALL_CEILING_S = 1.2

_BY_NAME = {case.name: case for case in FRONTIER_MATRIX}
_FULL_MACHINE = _BY_NAME["orbit-113b-6144n"]


@pytest.mark.quick
def test_full_machine_meta_step_under_wall_clock_ceiling(once):
    """One folded 113B step on all 49,152 GCDs in < 1.2 s of real time."""
    start = time.perf_counter()
    record = once(run_case, _FULL_MACHINE)
    elapsed = time.perf_counter() - start
    assert elapsed < FULL_MACHINE_WALL_CEILING_S, (
        f"folded full-machine step took {elapsed:.2f}s real time "
        f"(ceiling {FULL_MACHINE_WALL_CEILING_S:.1f}s)"
    )
    # The simulated step itself must stay sane: minutes-long,
    # compute-bound, with communication mostly overlapped.
    assert record.bound_resource == "compute"
    assert 60.0 < record.step_time_s < 600.0
    assert 0.0 <= record.exposed_comm_fraction < 0.5


@pytest.mark.quick
@pytest.mark.parametrize("case", [_FULL_MACHINE, DEFAULT_MATRIX[0]],
                         ids=lambda c: c.name)
def test_a_repeated_case_lands_its_step_without_the_walk(monkeypatch, case):
    """A repeated ``run_case`` in one process replays the step tape the
    first stored; from the first replay on, it lands its compiled form:
    not one ``record_comm`` call."""
    run_case(case)
    calls = Counter()
    record_comm = Timeline.record_comm

    def counted(self, *args, **kwargs):
        calls["record_comm"] += 1
        return record_comm(self, *args, **kwargs)

    monkeypatch.setattr(Timeline, "record_comm", counted)
    run_case(case)
    assert calls["record_comm"] == 0


@pytest.mark.quick
def test_full_machine_step_matches_baseline(once):
    """The 49,152-GCD entry of BENCH_obs.json, held to the 5% gate."""
    record = once(run_case, _FULL_MACHINE)
    baseline = load_baseline(BASELINE)
    problems = compare(to_document([record]), baseline,
                       tolerance=DEFAULT_TOLERANCE, require_all=False)
    assert problems == []


@pytest.mark.parametrize("case", FRONTIER_MATRIX, ids=lambda c: c.name)
def test_frontier_case_against_baseline(once, case):
    """Every frontier entry reproduces within tolerance."""
    record = once(run_case, case)
    baseline = load_baseline(BASELINE)
    problems = compare(to_document([record]), baseline,
                       tolerance=DEFAULT_TOLERANCE, require_all=False)
    assert problems == []


def test_frontier_weak_scaling_efficiency(once):
    """113B time-per-observation keeps >95% efficiency to 49,152 GCDs."""
    from repro.bench import scaling_efficiencies

    # pedantic timers are once-per-test; time the scan as a whole.
    records = once(lambda: [run_case(case) for case in FRONTIER_MATRIX])
    points = scaling_efficiencies(records)["orbit-113b"]["points"]
    assert points["1024"] == pytest.approx(1.0)
    assert points["8192"] > 0.95
    assert points["49152"] > 0.95
