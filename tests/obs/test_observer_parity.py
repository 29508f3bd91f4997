"""Observers never write: every tracer × monitor × injector setting leaves
the same simulation behind.

A 16-GCD meta step runs at pp 1 and pp 2, folded and exact, under each
of the eight combinations of tracer {``Tracer()``, ``OFF``}, monitor
{``RunMonitor()``, ``OFF``} and injector {``OFF``, an empty
``FaultInjector``}.  Per (pp, fold), every combination must leave ``==``
ledgers, the same next collective id, the same per-device peak bytes
and (folded) the same event log as the all-off run.  A log entry's
scope and collective kind are the tracer's labels (``OFF`` reads ``""``
and ``"collective"``), so they are compared among the runs that share a
tracer setting, and the rest of the log across all eight.  The
single-channel parity tests (traced vs untraced, monitored vs
unmonitored) are the diagonals of this product.
"""

import itertools

import pytest

from repro.cluster.timeline import FoldedTimeline, _ledger_values
from repro.faults import FaultInjector, FaultPlan
from repro.obs import OFF, RunMonitor, Tracer
from repro.runtime import RunSpec, Session, StepLoop
from tests.cluster.test_fold_parity import _config

STEPS = 2

#: Index at which each kind of log entry starts the tracer's labels
#: (scope, and for a collective its kind); segment markers carry none.
LABELS_AT = {"compute": 5, "comm": 6, "free": 4}

#: (tp, fsdp, ddp, pp) on 16 GCDs.
GRIDS = {1: (2, 4, 2, 1), 2: (2, 2, 2, 2)}

CHANNELS = list(itertools.product(
    (lambda: OFF, Tracer),
    (lambda: OFF, RunMonitor),
    (lambda: OFF, lambda: FaultInjector(FaultPlan([]))),
))


def _left_behind(pp, fold, make_tracer, make_monitor, make_injector) -> dict:
    tp, fsdp, ddp, pp = GRIDS[pp]
    spec = RunSpec(
        config=_config(depth=2), num_gpus=16, gpus_per_node=8, tp_size=tp,
        fsdp_size=fsdp, ddp_size=ddp, pp_size=pp, micro_batch=2, fold=fold)
    session = Session(spec, tracer=make_tracer(), monitor=make_monitor())
    session.cluster.attach_injector(make_injector())
    StepLoop(session.meta_step, hooks=session.loop_hooks()).run(STEPS)
    timeline = session.cluster.timeline
    left = {
        "ledgers": [_ledger_values(timeline.ledger(rank))
                    for rank in range(session.cluster.world_size)],
        "next_cid": next(timeline._collective_ids),
        "peak_bytes": {device.rank: device.memory.peak_bytes
                       for device in session.cluster.touched_devices()},
    }
    if isinstance(timeline, FoldedTimeline):
        at = [LABELS_AT.get(entry[0], len(entry)) for entry in timeline._log]
        left["log"] = [e[:i] for e, i in zip(timeline._log, at)]
        left["labels"] = [e[i:] for e, i in zip(timeline._log, at)]
    return left


@pytest.mark.parametrize("fold", ["off", "on"])
@pytest.mark.parametrize("pp", [1, 2])
def test_every_observer_setting_leaves_the_same_run(pp, fold):
    runs = [_left_behind(pp, fold, *channels) for channels in CHANNELS]
    assert ("log" in runs[0]) == (fold == "on")
    first_with_tracer = {}
    for channels, run in zip(CHANNELS, runs):
        same_tracer = first_with_tracer.setdefault(channels[0], run)
        assert run.keys() == runs[0].keys()
        for key in run:  # one field at a time, for a readable failure
            reference = same_tracer if key == "labels" else runs[0]
            assert run[key] == reference[key], (key, channels)
