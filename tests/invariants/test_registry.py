"""The invariant registry over the cross product.

One strategy draws meta and numeric runs over whole-node grids up to
32 GCDs (numeric runs on one 8-GCD node), depth with uneven stage
splits, micro-batch, fold, recompute, prefetch, layer wrapping, device
memory tracking, tracer and monitor, bf16 and a grad scaler, clean or
with one fault on a replayed step, and a history of one to three
earlier draws of the same spec with the tracer, monitor, faults, bf16
and grad scaler redrawn.  ``registry.check`` drives each draw once,
from an empty step tape store, and holds it to every oracle pair that
applies (a pp = 1 draw is driven twice more, for a session that
inherits the tapes another one stored, every draw once more after its
history, and a numeric draw once more with every ``ops`` funnel on
NumPy's wrapper call).  The explicit
examples are the hand-pinned cases no feature suite already runs
through a pair.  The others are pinned in their suites, through the
same rows: every crash kind x op (``test_step_replay``), odd depth at
pp = 2 and the depth-4 faults (``test_depth_replay``), unfold under
faults (``test_fold_scaling``), the stage cuts (``test_fold_parity``),
the numeric grids and fault kinds (``test_numeric_replay``) and
recompute at pp = 1 and pp = 2 (``test_climax_vit``).
"""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import FaultSpec
from tests.invariants.registry import EXCEPTIONS, Draw, check

# -- the strategy --------------------------------------------------------------
#: Whole-node (pp, tp, fsdp, ddp) grids up to 32 GCDs; pp > 1 cuts
#: stages mid-node on some (those never fold).
META_GRIDS = sorted(
    (pp, tp, fsdp, ddp)
    for pp in (1, 2, 4) for tp in (1, 2, 4, 8)
    for fsdp in (1, 2, 4, 8) for ddp in (1, 2, 4, 8)
    if pp * tp * fsdp * ddp in (8, 16, 32))

#: The numeric grids: one 8-GCD node, pp = 2 on a 4-GCD sub-grid.
NUMERIC_GRIDS = [(1, 2, 2, 2), (1, 1, 4, 2), (1, 2, 1, 4), (1, 2, 4, 1),
                 (1, 1, 1, 8), (2, 2, 2, 1), (2, 1, 2, 2), (2, 2, 1, 2)]


#: fault kind -> slowdown factor of the degradations (two-step windows).
FACTORS = {"straggler": 3.0, "link_degrade": 2.5}


@st.composite
def draws(pick):
    meta = pick(st.booleans())
    grid = pick(st.sampled_from(META_GRIDS if meta else NUMERIC_GRIDS))
    world = grid[0] * grid[1] * grid[2] * grid[3]
    steps = 3
    kinds = ["clean", "straggler", "link_degrade", "collective_timeout",
             "gpu_crash", "grad_corruption"]

    def plan():
        kind = pick(st.sampled_from(kinds if meta or grid[0] == 1 else ["clean"]))
        return () if kind == "clean" else (FaultSpec(
            kind, step=pick(st.integers(1, steps - 1)),
            rank=pick(st.integers(0, world - 1)), factor=FACTORS.get(kind, 1.0),
            duration_steps=2 if kind in FACTORS else 1),)

    faults = plan()
    flag = st.booleans()
    draw = Draw(
        grid, depth=grid[0] + pick(st.integers(0, 2 if meta else 1)),
        micro_batch=pick(st.integers(1, 3 if meta else 2)),
        fold=pick(st.sampled_from(["off", "on"])) if meta else "off",
        recompute=pick(flag), prefetch=pick(flag),
        layer_wrapping=pick(flag),
        track_device_memory=pick(flag), traced=pick(flag),
        monitored=pick(flag), faults=faults, steps=steps, meta=meta,
        bf16=not meta and pick(flag),
        scaler=None if meta or not pick(flag) else 2.0**8)
    # The history: the same run_spec(), everything else that can reach
    # a shared tape key redrawn.
    history = tuple(
        replace(draw, traced=pick(flag), monitored=pick(flag), faults=plan(),
                bf16=not meta and pick(flag),
                scaler=None if meta or not pick(flag) else 2.0**8)
        for _ in range(pick(st.integers(1, 3))))
    return replace(draw, history=history)


def _crash(kind, op, grid=(1, 2, 2, 2), **kwargs):
    return Draw(grid, faults=(FaultSpec(kind, step=2, rank=5, op=op),), **kwargs)


def _after(draw, *earlier):
    """``draw`` with a history: one earlier draw per dict of changes."""
    return replace(draw, history=tuple(replace(draw, **changes) for changes in earlier))


@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(draw=draws())
# The replan demo's layouts before and after its switch, each with a
# crash on a replayed step.
# The first after an untraced run of its spec.
@example(draw=_after(_crash("gpu_crash", None, (1, 4, 2, 2), recompute=True),
                     {"traced": False}))
@example(draw=_crash("node_loss", "all_reduce", (1, 2, 4, 2), traced=False))
# tp = 8 shards below a head (num_heads = 4).
@example(draw=Draw((1, 8, 1, 2), fold="on", depth=3))
# Numeric pp = 2: the pipeline pair's pinned case.
@example(draw=Draw((2, 2, 2, 1), meta=False, depth=3, steps=4, scaler=2.0**8))
# A session that inherits every step writes back the gradient shapes
# an executed one leaves.
@example(draw=Draw((1, 2, 2, 2)))
# Histories whose tapes differ only in precision, grad scaler or fold
# mode from the ones the draw records.
@example(draw=_after(Draw((1, 2, 2, 2), meta=False, bf16=True, scaler=2.0**8),
                     {"bf16": False}, {"scaler": None}))
# (the earlier run unfolds step 0 and refolds step 1: its folded tape
# was recorded with every replica built).
@example(draw=_after(Draw((1, 2, 2, 2), fold="on"), {"faults": (
    FaultSpec("grad_corruption", step=0, rank=3),)}))
# An untraced exact run's straggler window: its first step walks the
# tape (the degradation fires there), its second lands the stretched form.
@example(draw=Draw((1, 2, 2, 2), traced=False, faults=(
    FaultSpec("straggler", step=1, rank=5, factor=3.0, duration_steps=2),)))
def test_every_fast_path_meets_its_oracle(draw):
    check(draw)


@pytest.mark.parametrize("row", EXCEPTIONS, ids=lambda row: row.name)
def test_every_exception_fires_on_its_witness(row):
    assert row.when(row.witness)
    _, fired = check(row.witness)
    assert row.name in fired
