"""Observers never write: every tracer × monitor × injector setting leaves
the same simulation behind.

A 16-GCD meta step runs at pp 1 and pp 2, folded and exact, under each
of the eight combinations of tracer {``Tracer()``, ``OFF``}, monitor
{``RunMonitor()``, ``OFF``} and injector {``OFF``, an empty
``FaultInjector``}.  Per (pp, fold), every combination meets the
all-off run through the ``observers`` pair of ``tests/invariants``:
``==`` ledgers, next collective id, device trackers and (folded) event
log.  A log entry's scope and collective kind are the tracer's labels
(``OFF`` reads ``""`` and ``"collective"``), so the pair compares them
only between untraced runs; the traced runs' labels are compared among
themselves here.
"""

import itertools

import pytest

from repro.obs import OFF, RunMonitor, Tracer
from tests.invariants import drive, left_behind, spec
from tests.invariants.registry import empty_stores, meets

STEPS = 2

#: pp -> (pp, tp, fsdp, ddp) on 16 GCDs.
GRIDS = {1: (1, 2, 4, 2), 2: (2, 2, 2, 2)}

#: (tracer, monitor, plan): a class is built fresh per run; a plan of
#: ``None`` leaves the injector OFF, ``()`` attaches an empty one.
CHANNELS = list(itertools.product((OFF, Tracer), (OFF, RunMonitor), (None, ())))


def _drive(run_spec, tracer, monitor, plan):
    empty_stores()  # each setting captures its own step, as all-off does
    return drive(run_spec, plan, tracer=tracer if tracer is OFF else tracer(),
                 monitor=monitor if monitor is OFF else monitor())


@pytest.mark.parametrize("fold", ["off", "on"])
@pytest.mark.parametrize("pp", [1, 2])
def test_every_observer_setting_leaves_the_same_run(pp, fold):
    run_spec = spec(GRIDS[pp], fold=fold, num_steps=STEPS)
    runs = [_drive(run_spec, *channels) for channels in CHANNELS]
    all_off = runs[0]
    assert all_off.session.fold_decision.folded is (fold == "on")
    traced_logs = []
    for channels, run in zip(CHANNELS[1:], runs[1:]):
        try:
            meets("observers", run, all_off)
        except AssertionError as error:
            raise AssertionError(f"{channels}: {error}") from error
        if run.session.tracer.enabled and fold == "on":
            traced_logs.append(left_behind(run)["log"])
    assert all(log == traced_logs[0] for log in traced_logs)
