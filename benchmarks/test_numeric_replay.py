"""Benchmark: a warm replayed numeric step under a real-seconds ceiling.

``Session.numeric_step`` runs a signature's first step per-op, records
its second and replays the rest: the kernels for the values, the
captured timeline stream for the time, then the per-op optimizer tail.
On the ``bench_wall`` ``numeric-train`` spec (tp 2 x fsdp 2 x ddp 2 on 8
GCDs) a replayed step takes about 0.07 s and an executed one 0.12 s; a
breach here, or a step the registry does not count as replayed, means
step replay stopped serving numeric training.
"""

import time

import pytest

from repro.models import OrbitConfig
from repro.runtime import RunSpec, Session

#: Real-seconds budget for one warm replayed step — about twice the
#: measured 0.07 s.  The fastest of three replayed steps is timed, so a
#: host slowdown during one of them does not trip it.
NUMERIC_REPLAY_WALL_CEILING_S = 0.15

_SPEC = RunSpec(
    config=OrbitConfig("bench-numeric", embed_dim=64, depth=4, num_heads=4,
                       in_vars=8, out_vars=4, img_height=16, img_width=32,
                       patch_size=4),
    num_gpus=8, gpus_per_node=8, tp_size=2, fsdp_size=2, ddp_size=2,
    micro_batch=2, meta=False, seed=0,
)


@pytest.mark.quick
def test_replayed_numeric_step_under_wall_clock_ceiling():
    session = Session(_SPEC)
    for step in range(3):  # per-op, recorded, first replay (warm)
        session.numeric_step(step)
    elapsed = []
    for step in range(3, 6):
        start = time.perf_counter()
        session.numeric_step(step)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < NUMERIC_REPLAY_WALL_CEILING_S, (
        f"a warm replayed numeric step took {min(elapsed):.3f}s real time "
        f"(ceiling {NUMERIC_REPLAY_WALL_CEILING_S:.2f}s)"
    )
    counters = session.tracer.metrics.snapshot()
    assert counters["runtime.numeric_steps_executed"] == 2
    assert counters["runtime.numeric_steps_replayed"] == 4
