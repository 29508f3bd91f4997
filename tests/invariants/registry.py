"""The invariant registry: every ``RunSpec`` fast path meets its named oracle.

``PAIRS`` is the one table of ``(name, applies(draw), oracle, compare,
fast)`` rows (DESIGN.md §5, "Invariant registry").  ``check`` drives a
draw's all-fast run once; each pair that applies reruns the draw with
exactly its fast path switched off (pairs that share an oracle share
its run), and ``compare`` projects both runs' ``left_behind`` onto what
that path promises, to be ``==`` field by field.  A pair with its own
``fast`` drives its fast side after the shared run.  Every one of those
runs starts from an empty step tape store; the ``history`` pair's fast
side then runs the draw's history before it, and its oracle is the
shared run itself.  ``EXCEPTIONS`` names
the paths that are not exact: the pairs a row covers, a predicate on
the draw, and ``allow``, which asserts the bound on what differs before
removing it.  The feature suites pin their hand-picked cases through
the same rows: ``check(draw, pairs=...)`` on one draw, or ``meets(name,
fast, oracle)`` on two runs driven by hand.
"""

import json
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import partial

from repro.cluster.symmetry import decide_fold
from repro.cluster.topology import FrontierTopology
from repro.faults import FaultSpec
from repro.nn import DynamicGradScaler
from repro.nn.precision import BF16_MIXED
from repro.obs import OFF, RunMonitor, Tracer
from repro.runtime import STEP_TAPES, Session
from tests.invariants import (
    Run,
    assert_same,
    drive,
    every_block,
    expansion,
    keep_rows,
    left_behind,
    spec,
    walked_streams,
    wrapper_funnels,
)

CRASH_KINDS = ("collective_timeout", "gpu_crash", "node_loss")


@dataclass(frozen=True)
class Draw:
    """One run of the cross product; ``grid`` is ``(pp, tp, fsdp, ddp)``."""

    grid: tuple
    depth: int = 2
    micro_batch: int = 2
    fold: str = "off"
    recompute: bool = False
    prefetch: bool = True
    layer_wrapping: bool = True
    track_device_memory: bool = True
    traced: bool = True
    monitored: bool = True
    faults: tuple = ()
    steps: int = 3
    meta: bool = True
    bf16: bool = False
    scaler: float | None = None  # a dynamic grad scaler's initial scale
    #: Draws of the same ``run_spec()`` run before this one, in one
    #: process (the ``history`` pair).
    history: tuple = ()

    def run_spec(self):
        return spec(
            self.grid, depth=self.depth, micro_batch=self.micro_batch,
            meta=self.meta, fold=self.fold, recompute=self.recompute,
            prefetch=self.prefetch, layer_wrapping=self.layer_wrapping,
            track_device_memory=self.track_device_memory,
            num_steps=self.steps, seed=0 if self.meta else 3)


def run(draw: Draw, step_fn=None, *, observed=True) -> Run:
    """Drive ``draw``; ``observed=False`` turns every observer it can
    ``OFF`` (the injector too, when the plan is empty)."""
    return drive(
        draw.run_spec(), draw.faults if observed or draw.faults else None,
        step_fn,
        tracer=Tracer() if observed and draw.traced else OFF,
        monitor=RunMonitor() if observed and draw.monitored else OFF,
        precision=BF16_MIXED if draw.bf16 else None,
        grad_scaler=None if draw.scaler is None else
        DynamicGradScaler(init_scale=draw.scaler))


def empty_stores():
    """Drop every stored tape: the next session of any draw records its
    own."""
    STEP_TAPES.clear()


def inherited(draw) -> Run:
    """The draw's second session, built after a first one ran it."""
    run(draw)
    return run(draw)


def after_history(draw) -> Run:
    """The draw, run after its ``history`` in one process: every tape
    those runs stored is still there."""
    for earlier in draw.history:
        run(earlier)
    return run(draw)


# -- oracles -------------------------------------------------------------------
def execute_meta(draw):
    return run(draw, Session.execute_meta_step)


def execute_every_block(draw):
    with every_block():
        return run(draw)


def walk_every_stream(draw):
    with walked_streams():
        return run(draw)


def execute_numeric(draw):
    return run(draw, Session.execute_numeric_step)


def wrapper_calls(draw):
    """Every ``ops`` funnel back on NumPy's Python wrapper."""
    with wrapper_funnels():
        return run(draw)


def one_stage(draw):
    """pp = 1, every op executed (a pp > 1 numeric step never replays)."""
    return run(replace(draw, grid=(1, *draw.grid[1:])),
               Session.execute_numeric_step)


# -- projections ---------------------------------------------------------------
def everything(fast, oracle, got, want):
    return got, want


def _meta_model(fast: Run, *, stored: bool = False) -> list:
    """A fold mode's first completed step captures (a raise leaves no
    stream), unless ``stored`` (an earlier session of the draw captured
    every mode it meets); a mode seen before replays.  pp > 1 never
    replays."""
    if fast.session.spec.pp_size > 1:
        return ["executed"] * len(fast.folded)
    seen = set(fast.folded) if stored else set()
    modes = []
    for folded in fast.folded:
        modes.append("replayed" if folded in seen else "executed")
        seen.add(folded)
    return modes


def _numeric_model(fast: Run, *, stored: bool = False) -> list:
    """A step the injector cannot touch replays once one such step after
    the first has recorded, or from the first when ``stored`` (an earlier
    session of the draw ran such a step); pp > 1 never replays."""
    pipelined = fast.session.spec.pp_size > 1
    modes, recorded = [], stored and not all(fast.touched[1:])
    for step, touched in enumerate(fast.touched):
        replayable = not (pipelined or touched)
        modes.append("replayed" if replayable and recorded else "executed")
        recorded = recorded or (replayable and step > 0)
    return modes


def replays_every_step_it_can(model):
    """``==`` on everything left behind, plus how each step ran: the fast
    run as ``model`` predicts, the oracle executing every step."""
    def compare(fast, oracle, got, want):
        traced = fast.session.tracer.enabled
        got["modes"], got["oracle_modes"] = fast.modes, oracle.modes
        want["modes"] = model(fast) if traced else fast.modes
        want["oracle_modes"] = ["executed" if traced else None] * len(oracle.modes)
        return got, want
    return compare


def _journal_lines(text, *, drop_kind=None) -> list:
    lines = [json.loads(line) for line in text.splitlines()[1:]]
    return [{k: v for k, v in line.items() if k != "seq"} for line in lines
            if line["kind"] != drop_kind]


def expanded(fast, oracle, got, want):
    """The folded run as ``expand()`` rebuilds it, against the exact run.

    The compact spans give way to the expansion, the fold journal lines
    (the exact run never folds) go, and the collective counter is left
    to the expanded spans' ids: a folded run issues no skipped
    replica's collectives.  Trackers, gradient shards and block caches
    are compared on the devices and replicas the folded run built —
    all of them once it has unfolded — and a run that never unfolded
    must never have built a per-rank ledger.
    """
    got["expand_ledgers"], columns, spans = expansion(fast.session)
    want["expand_ledgers"] = want["ledgers"]
    if fast.session.tracer.enabled:
        got["columns"], got["spans"] = columns, spans
    del got["folded"], got["log"], got["next_cid"], want["next_cid"]
    if got["journal"] is not None:
        got["journal"] = _journal_lines(got["journal"], drop_kind="fold")
        want["journal"] = _journal_lines(want["journal"])
    built = len(got["grad_shards"])
    want["grad_shards"] = want["grad_shards"][:built]
    want["dense_grads"] = want["dense_grads"][:built]
    want["block_caches"] = want["block_caches"][:built]
    if not (fast.errors or any(fast.touched)):  # it never unfolded
        want["memory"] = {rank: want["memory"][rank] for rank in got["memory"]}
        got["per_rank_ledgers"] = bool(fast.session.cluster.timeline._ledgers)
        want["per_rank_ledgers"] = False
        got["fold_modes"], want["fold_modes"] = fast.folded, [True] * len(fast.folded)
    return got, want


#: Where each kind of folded-log entry starts the tracer's labels (scope,
#: and for a collective its kind); segment markers carry none.
LABELS_AT = {"compute": 5, "comm": 6, "free": 4}


def simulated(fast, oracle, got, want):
    """What the simulation leaves, without the observers' own output.

    Spans and journal are the observers'; a folded log entry's scope and
    collective kind are the tracer's labels (``OFF`` reads ``""`` and
    ``"collective"``), so they are compared only when the fast run is
    untraced too.  The labels set no ledger field, so the unlabelled
    logs also pin what ``expand()`` rebuilds.
    """
    for left in (got, want):
        del left["columns"], left["spans"], left["journal"]
        if "log" in left:
            at = [LABELS_AT.get(entry[0], len(entry)) for entry in left["log"]]
            left["labels"] = [e[i:] for e, i in zip(left["log"], at)]
            left["log"] = [e[:i] for e, i in zip(left["log"], at)]
    if fast.session.tracer.enabled:
        got.pop("labels", None), want.pop("labels", None)
    return got, want


def numerics(fast, oracle, got, want):
    """The losses and every digest, step by step; the ledgers belong to
    different worlds."""
    return {"states": got["states"]}, {"states": want["states"]}


Pair = namedtuple("Pair", "name applies oracle compare fast", defaults=(None,))


def _folds(draw) -> bool:
    run_spec = draw.run_spec()
    topology = FrontierTopology(run_spec.num_gpus, run_spec.gpus_per_node)
    return decide_fold(run_spec, topology).folded


PAIRS = (
    Pair("meta-step-replay", lambda d: d.meta, execute_meta,
         replays_every_step_it_can(_meta_model)),
    Pair("depth-replay", lambda d: d.meta, execute_every_block, everything),
    Pair("fold", _folds, lambda d: run(replace(d, fold="off")), expanded),
    Pair("observers", lambda d: d.traced or d.monitored or not d.faults,
         lambda d: run(d, observed=False), simulated),
    Pair("numeric-step-replay", lambda d: not d.meta, execute_numeric,
         replays_every_step_it_can(_numeric_model)),
    # A session built after another of the draw recorded: every step it
    # can replays a tape or stream it did not record, from its first
    # (pp > 1 records none).
    Pair("meta-step-inherited", lambda d: d.meta and d.grid[0] == 1,
         execute_meta,
         replays_every_step_it_can(partial(_meta_model, stored=True)),
         inherited),
    Pair("numeric-step-inherited", lambda d: not d.meta and d.grid[0] == 1,
         execute_numeric,
         replays_every_step_it_can(partial(_numeric_model, stored=True)),
         inherited),
    Pair("pipeline", lambda d: not d.meta and d.grid[0] > 1, one_stage,
         numerics),
    # What a process ran before leaves no trace: the oracle is the
    # draw from an empty store, which is the shared fast run itself.
    Pair("history", lambda d: bool(d.history), run, everything, after_history),
    # The C calls the funnels make on an ndarray are the wrappers' own.
    Pair("lowered-kernels", lambda d: not d.meta, wrapper_calls, everything),
    # A replayed step lands from its tape's compiled form: what walking
    # every event of the tape leaves, spans and fold log included,
    # checked from the tape's first replay; a quiet step's injector and
    # a fired degradation window's land too (its settled ``pricing``),
    # a window's unfired first step walks.
    Pair("compiled-replay", lambda d: d.steps >= 3, walk_every_stream,
         everything),
    # Activation checkpointing re-runs each block's forward from its
    # saved input in backward: the same numbers, step for step.
    Pair("recompute", lambda d: not d.meta and d.recompute,
         lambda d: run(replace(d, recompute=False)), numerics),
)
PAIRS_BY_NAME = {pair.name: pair for pair in PAIRS}


# -- named exceptions ----------------------------------------------------------
def _no_unwind(fast, oracle, got, want) -> bool:
    """The oracle's raise unwinds ``with gather(...)`` frames: zero-duration
    ``free.*`` gather rows after the fault, and its device trackers keep
    what the raised attempt left allocated into the retry.  Bound: only
    those rows, and only higher peak / live counts (``params`` equal) on
    the faulted rank's DDP replica."""
    mine = set(got["spans"])
    unwound = [row for row in want["spans"] if row not in mine]
    assert all(kind == "gather" and name.startswith("free.") and dur == 0.0
               for kind, name, _, _, dur, *_ in unwound), unwound
    keep_rows(want, mine.__contains__)
    plan, faults = fast.session.plan, fast.session.cluster.injector.fired()
    kept = {}
    for rank, theirs in want["memory"].items():
        ours = got["memory"].get(rank)
        if ours != theirs:
            assert any(plan.stage_coords(rank)[:2]
                       == plan.stage_coords(fault.rank)[:2]
                       for fault in faults), rank
            assert ours[0] <= theirs[0] and ours[1] <= theirs[1], rank
            assert ours[2] == theirs[2], rank
        kept[rank] = ours
    leaked = kept != want["memory"]
    if leaked:
        assert got["peak"] <= want["peak"]
        want["memory"], want["peak"] = kept, got["peak"]
    return bool(unwound) or leaked


def _retry_executes(fast, oracle, got, want) -> bool:
    """The model replays a retried step the injector no longer touches;
    the retry of a step that raised executes.  Bound: those steps only."""
    fired = False
    for step, (mine, model) in enumerate(zip(got["modes"], want["modes"])):
        if mine != model and fast.retried[step]:
            assert (mine, model) == ("executed", "replayed"), step
            want["modes"][step], fired = mine, True
    return fired


def _raises(draw, *, named_op=False) -> bool:
    return any(fault.kind.value in CRASH_KINDS and
               (fault.op is not None or not named_op) for fault in draw.faults)


NamedException = namedtuple("NamedException", "name pairs when allow witness")


EXCEPTIONS = (
    NamedException(
        "replayed-raise-no-unwind",
        ("meta-step-replay", "meta-step-inherited", "depth-replay"),
        lambda d: d.meta and _raises(d, named_op=True), _no_unwind,
        Draw((1, 2, 2, 2), faults=(
            FaultSpec("gpu_crash", step=2, rank=5, op="all_reduce"),))),
    NamedException(
        "retry-after-raise-runs-per-op",
        ("numeric-step-replay", "numeric-step-inherited"),
        lambda d: not d.meta and _raises(d), _retry_executes,
        Draw((1, 2, 2, 2), meta=False, steps=4, faults=(
            FaultSpec("gpu_crash", step=2, rank=3),))),
)


def _meets(pair, fast, oracle, left, draw) -> set:
    """``fast`` against ``oracle`` through ``pair``'s projection; returns
    the named exceptions (those whose predicate holds on ``draw``) that
    fired, or raises the first field that differs."""
    got, want = pair.compare(fast, oracle, left, left_behind(oracle))
    fired = set()
    for row in EXCEPTIONS:
        if draw is not None and pair.name in row.pairs and row.when(draw) \
                and row.allow(fast, oracle, got, want):
            fired.add(row.name)
    assert_same(got, want)
    return fired


def meets(name: str, fast: Run, oracle: Run) -> None:
    """Pair ``name`` on two runs driven by hand (no draw, so no named
    exception applies)."""
    _meets(PAIRS_BY_NAME[name], fast, oracle, left_behind(fast), None)


def check(draw: Draw, pairs=None) -> tuple:
    """Every applicable pair on one fast run (only those named in
    ``pairs``, which must apply); returns the fast run and the names of
    the exceptions that fired, or raises one error naming every pair
    that failed and the draw."""
    if pairs is not None:
        assert all(PAIRS_BY_NAME[name].applies(draw) for name in pairs), \
            f"{pairs} for {draw}"
    empty_stores()
    fast = run(draw)
    left = left_behind(fast)
    fired, failed, oracles = set(), [], {run: fast}
    for pair in PAIRS:
        if not pair.applies(draw) or (pairs is not None and
                                      pair.name not in pairs):
            continue
        try:
            if pair.oracle not in oracles:
                empty_stores()
                oracles[pair.oracle] = pair.oracle(draw)
            if pair.fast is None:
                fired |= _meets(pair, fast, oracles[pair.oracle], dict(left), draw)
            else:
                empty_stores()
                own = pair.fast(draw)
                fired |= _meets(pair, own, oracles[pair.oracle], left_behind(own), draw)
        except AssertionError as error:
            reason = str(error).split("\n", 1)[0]
            failed.append(f"{pair.name}: {reason}")
    assert not failed, f"{'; '.join(failed)} for {draw}"
    return fast, fired
