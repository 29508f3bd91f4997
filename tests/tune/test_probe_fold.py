"""The estimator's block probe on the fold.

The probe runs its one block on a ``FoldedTimeline``: the ``f`` loops
execute shard 0 only and the narrowed capture keeps what touches the
representatives ``rank(0, 0, k)``.  That needs no eligibility gate —
iteration 0 *is* the representatives' stream and the collectives
outside the ``f`` loops are priced for their own groups — and this file
is where that is tested rather than assumed: against the same probe on
an exact ``Timeline`` (the oracle, all ``tp * fsdp`` ranks executed) on
layouts ``decide_fold`` would refuse as readily as on ones it accepts.
The count tests pin the point of it: probe work is class-sized.
"""

from collections import Counter
from dataclasses import asdict, replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.symmetry import symmetry_blockers
from repro.cluster.timeline import EventStream, FoldedTimeline, Timeline
from repro.cluster.topology import FrontierTopology
from repro.meta import MetaArray
from repro.models import PAPER_MODELS
from repro.models.configs import ORBIT_115M, OrbitConfig
from repro.replan import DegradationProfile
from repro.tune import AnalyticEstimator, Candidate, TuneRequest, enumerate_space

#: ``num_heads=4`` puts tp 8 and 16 in the sub-head regime (relaxed
#: mode; needs ``qk_layernorm`` off).
_TINY = OrbitConfig(
    name="probe-tiny", embed_dim=64, depth=4, num_heads=4,
    in_vars=3, out_vars=3, img_height=32, img_width=64,
    patch_size=8, mlp_ratio=4.0, qk_layernorm=False,
)


class _ExactProbeEstimator(AnalyticEstimator):
    """The oracle: every probe runs on an exact per-rank timeline."""

    def _block_probe(self, candidate):
        return self._probe_block(candidate, Timeline(self.num_gpus))


@st.composite
def _layouts(draw):
    """(gpus_per_node, candidate) on 8-64 GPUs.  ``gpus_per_node=4``
    and tp up to 16 draw node-spanning tensor-parallel groups and
    sub-head sharding — relaxed-mode layouts no engine step can take."""
    world = draw(st.sampled_from([8, 16, 32, 64]))
    sizes = [1, 2, 4, 8, 16]
    tp = draw(st.sampled_from([n for n in sizes if n <= world]))
    fsdp = draw(st.sampled_from([n for n in sizes if tp * n <= world]))
    pp = draw(st.sampled_from(
        [n for n in (1, 2, 4) if tp * fsdp * n <= world and n <= _TINY.depth]))
    candidate = Candidate(
        tp, fsdp, world // (tp * fsdp * pp),
        micro_batch=draw(st.sampled_from([1, 2, 3])),
        recompute=draw(st.booleans()),
        prefetch=draw(st.booleans()),
        tp_innermost=draw(st.booleans()),
        pp_size=pp,
    )
    return draw(st.sampled_from([4, 8])), candidate


@settings(max_examples=60, deadline=None)
@given(layout=_layouts())
def test_folded_probe_is_the_exact_timeline_probe(layout):
    gpus_per_node, candidate = layout
    estimator = AnalyticEstimator(_TINY, candidate.world_size, gpus_per_node)
    folded = estimator._block_probe(candidate)
    assert isinstance(estimator._cluster.timeline, FoldedTimeline)
    exact = estimator._probe_block(candidate, Timeline(candidate.world_size))
    assert folded.forward == exact.forward
    assert folded.backward == exact.backward
    assert folded.shard_columns == exact.shard_columns
    assert {event[0] for event in folded.forward + folded.backward} <= \
        {"compute", "comm"}


@settings(max_examples=40, deadline=None)
@given(layout=_layouts(), data=st.data())
def test_estimates_equal_field_for_field(layout, data):
    gpus_per_node, candidate = layout
    world = candidate.world_size
    ranks = st.integers(0, world - 1)
    factors = st.floats(1.5, 4.0)
    profile = DegradationProfile(
        compute=data.draw(st.lists(st.tuples(ranks, factors), max_size=2)),
        links=data.draw(st.lists(st.tuples(ranks, factors), max_size=2)),
        remaining_steps=3,
    )
    folded = AnalyticEstimator(_TINY, world, gpus_per_node)
    exact = _ExactProbeEstimator(_TINY, world, gpus_per_node)
    for degradation in (None, profile):
        assert folded.estimate(candidate, degradation) == \
            exact.estimate(candidate, degradation)


#: Layouts ``decide_fold`` refuses, by (gpus_per_node, candidate).
_REFUSED = {
    "sub-head, node-spanning tp": (8, Candidate(16, 2, 1, 2)),
    "gpus_per_node=4": (4, Candidate(8, 2, 2, 2, tp_innermost=False)),
    "stage cuts inside and across nodes": (8, Candidate(2, 2, 1, 2, pp_size=4)),
}


@pytest.mark.parametrize("layout", _REFUSED.values(), ids=_REFUSED.keys())
def test_the_probe_needs_no_eligibility_gate(layout):
    gpus_per_node, candidate = layout
    world = candidate.world_size
    assert symmetry_blockers(
        SimpleNamespace(**asdict(candidate), config=_TINY),
        FrontierTopology(world, gpus_per_node),
    )
    folded = AnalyticEstimator(_TINY, world, gpus_per_node)
    exact = _ExactProbeEstimator(_TINY, world, gpus_per_node)
    assert folded._block_probe(candidate) == exact._block_probe(candidate)
    assert folded.estimate(candidate) == exact.estimate(candidate)


# -- the prefetch twin --------------------------------------------------------
#: The ``tune-4d`` request, and a 16-GCD one whose space is all pp = 2.
_TWIN_REQUESTS = {
    "tune-4d": TuneRequest(PAPER_MODELS["orbit-1b"], 32,
                           micro_batches=(2, 4), pp_sizes=(1, 2)),
    "16-gcd-pp2": TuneRequest(ORBIT_115M, 16, micro_batches=(2, 3),
                              pp_sizes=(2,)),
}


@pytest.mark.parametrize("request_", _TWIN_REQUESTS.values(),
                         ids=_TWIN_REQUESTS.keys())
def test_derived_blocking_twin_is_the_executed_non_prefetch_probe(request_):
    """One block is executed per layout, with prefetch on; the stream
    of its prefetch-off twin is derived, and ``==`` — entry by entry —
    what that block records when it really runs without prefetch on an
    exact timeline."""
    estimator = AnalyticEstimator(
        request_.config, request_.num_gpus, request_.gpus_per_node)
    layouts = {}
    for c in enumerate_space(request_).candidates:
        layouts.setdefault(
            (c.tp_size, c.fsdp_size, c.tp_innermost, c.micro_batch), c)
    assert len(layouts) > 8
    for candidate in layouts.values():
        blocking = replace(candidate, prefetch=False)
        derived = estimator._block_probe(blocking)
        executed = estimator._probe_block(
            blocking, Timeline(request_.num_gpus))
        for got, want in ((derived.forward, executed.forward),
                          (derived.backward, executed.backward)):
            assert len(got) == len(want)
            for at, (event, oracle) in enumerate(zip(got, want)):
                assert event == oracle, (candidate.label(), at)
        assert derived.shard_columns == executed.shard_columns
        # (every layout gathers, so the twins are never one stream)
        assert derived != estimator._block_probe(
            replace(candidate, prefetch=True))
    assert len(estimator._block_probes) == len(layouts)


# -- the FSDP twin -------------------------------------------------------------
def _planted(base):
    """``base`` with one extra event: an all-gather over two ranks,
    which no column's fsdp = 1 group can be."""
    gather = ("comm", (0, 1), 1e-3, 4096, True, "all_gather", "", "gather")
    return replace(base, forward=EventStream(base.forward + (gather,)))


_PLANTS = {
    "two-rank all_gather": _planted,
    "mixed itemsizes": lambda base: replace(base, itemsize=None),
}


@pytest.mark.parametrize("plant", _PLANTS.values(), ids=_PLANTS.keys())
def test_an_uncovered_fsdp1_stream_executes_the_candidates_own_block(
        plant, monkeypatch):
    estimator = AnalyticEstimator(ORBIT_115M, num_gpus=16)
    candidate = Candidate(4, 2, 2, 2)
    base = estimator._execute_probe(replace(candidate, fsdp_size=1))
    estimator._fsdp1_probes[(4, 2)] = plant(base)
    executed = []
    probe_block = estimator._probe_block

    def counted(candidate, timeline):
        executed.append((candidate.tp_size, candidate.fsdp_size))
        return probe_block(candidate, timeline)

    monkeypatch.setattr(estimator, "_probe_block", counted)
    probe = estimator._block_probe(candidate)
    assert executed == [(4, 2)]
    assert probe == probe_block(candidate, Timeline(16))


def test_the_fsdp_twin_pads_as_the_executed_block_does():
    """24- and 96-element parameters over 16 FSDP ranks are padded, so
    the derived gathers, reduce-scatters and shard bytes are the padded
    ones (the paper configs' sizes divide every FSDP extent)."""
    config = replace(_TINY, name="probe-odd", embed_dim=24, num_heads=3)
    estimator = AnalyticEstimator(config, 16)
    candidate = Candidate(1, 16, 1, 2)
    derived = estimator._block_probe(candidate)
    assert derived == estimator._probe_block(candidate, Timeline(16))
    base = estimator._fsdp1_probes[(1, 2)]
    assert any(16 * padded != nbytes for (_, padded), (_, nbytes)
               in zip(derived.shard_columns, base.shard_columns))


# -- counts, not seconds ------------------------------------------------------
@pytest.fixture
def calls(monkeypatch):
    """Counts ``record_compute`` calls and ``MetaArray`` constructions."""
    counter = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counter[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        MetaArray, "__init__", counted("MetaArray", MetaArray.__init__))
    # FoldedTimeline inherits record_compute (it overrides only the landing).
    monkeypatch.setattr(
        Timeline, "record_compute",
        counted("record_compute", Timeline.record_compute))
    return counter


def test_probe_work_does_not_grow_with_the_fsdp_extent(calls):
    """A probe executes ``tp`` shard iterations at fsdp = 1, and a
    second FSDP extent of the same (tp, micro_batch) executes none."""
    estimator = AnalyticEstimator(ORBIT_115M, num_gpus=64)
    counts = {}
    for fsdp in (2, 16):
        calls.clear()
        estimator._block_probe(Candidate(4, fsdp, 64 // (4 * fsdp), 2))
        counts[fsdp] = dict(calls)
    assert counts[2]["record_compute"] > 0 and counts[2]["MetaArray"] > 0
    assert counts[16] == {}
    assert len(estimator._fsdp1_probes) == 1
    assert len(estimator._block_probes) == 2
    # The fail-closed path executes on the fold: tp shard iterations.
    for fsdp in (2, 16):
        calls.clear()
        estimator._execute_probe(Candidate(4, fsdp, 64 // (4 * fsdp), 2))
        counts[fsdp] = dict(calls)
    assert counts[16]["record_compute"] == counts[2]["record_compute"]
    # Outside its f loops the block still builds a handful of arrays per
    # shard (residual adds, bias-gradient sums): O(fsdp), not O(tp * fsdp).
    extra = counts[16]["MetaArray"] - counts[2]["MetaArray"]
    assert 0 <= extra <= 10 * (16 - 2)
    # ... where the exact-timeline probe pays per (column, shard).
    calls.clear()
    estimator._probe_block(Candidate(4, 16, 1, 2), Timeline(64))
    assert calls["record_compute"] > 4 * counts[16]["record_compute"]
    assert calls["MetaArray"] > 4 * counts[16]["MetaArray"]


def test_4d_sweep_builds_one_probe_per_shape_and_group_layout():
    request = TuneRequest(
        ORBIT_115M, num_gpus=32, micro_batches=(2, 4), pp_sizes=(1, 2, 4),
    )
    candidates = enumerate_space(request).candidates
    estimator = AnalyticEstimator(request.config, request.num_gpus)
    for candidate in candidates:
        estimator.estimate(candidate)
    shapes = {
        (c.tp_size, c.fsdp_size, c.tp_innermost, c.micro_batch)
        for c in candidates
    }
    assert set(estimator._block_probes) == shapes
    # Neither the prefetch flag (one executed block serves both twins)
    # nor the DDP x PP split of the remaining factor is part of the key.
    splits = {(c.tp_size, c.fsdp_size, c.ddp_size, c.pp_size,
               c.tp_innermost, c.prefetch, c.micro_batch) for c in candidates}
    assert len(shapes) < len(splits)
