"""Every analysis result of a set of small traces, pinned bit for bit.

The invariant suites compare the analyses with the ledgers
(``test_critical_path.py``, ``test_invariants.py``) and with each other;
this golden is the outside reference for *everything* an analysis
returns — per-rank buckets and their order, the critical rank and path,
slack, the critical-rank splits by op / kind / phase / layer, the
cross-rank chain, the per-step cuts, ``exposed_comm_ratio``, four
per-rank sums and ``top_operations`` — as ``float.hex()`` strings.
It was generated by the per-object ``+=`` walk the span table replaced,
so it is what "the column reduction is bitwise-equal" means.  Its
per-rank sums (``by_rank``) are compared with the one per-rank table
(``rank_attribution``) rank by rank.

Regenerate (only for a deliberate change of an analysis, in the same PR)::

    PYTHONPATH=src:. python tests/obs/test_analysis_golden.py --regen
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster import Timeline
from repro.obs import (
    Tracer,
    analysis,
    analyze_trace,
    check_run,
    critical_path_report,
    load_trace_events,
    rank_attribution,
    run_traced_spec,
    write_trace_events,
)
from tests.invariants import drive, spec
from tests.obs.test_invariants import TRACE_4

GOLDEN = Path(__file__).parent / "data" / "analysis_golden.json"

#: golden ``by_rank`` entry -> the :class:`RankAttribution` field it pins
#: (entry ``<stem>_seconds_by_rank`` pins field ``<stem>_s``)
BY_RANK = {
    f"{field[:-2]}_seconds_by_rank": field
    for field in ("compute_s", "exposed_comm_s", "comm_s", "hidden_comm_s")
}


def _meta(grid, **kwargs):
    return lambda: drive(spec(grid, **kwargs), None).session.tracer


def _numeric_three_steps():
    return run_traced_spec(replace(TRACE_4, num_steps=3)).tracer


def _markers_and_serve():
    """Timed spans in and out of step scopes, control markers, a timed
    ``io`` span, and ``serve`` spans carrying extra attributes."""
    tracer = Tracer()
    timeline = Timeline(3, tracer=tracer)
    with tracer.scope("step", 0):
        with tracer.scope("engine.forward"):
            timeline.record_compute(0, 0.4, flops=10.0, op="block0.attn")
            timeline.record_compute(1, 0.7, flops=5.0, op="block0.attn")
            with tracer.scope("gather", "block1.w", kind="gather"):
                timeline.record_comm([0, 1], 0.3, 1024.0, overlappable=True,
                                     op="all_gather")
            timeline.record_free([0, 1], "block1.w", 1024.0)
        with tracer.scope("engine.grad_sync"):
            timeline.record_comm([0, 1, 2], 0.2, 64.0, op="all_reduce")
        tracer.instant("optimizer", "apply", t0=timeline.walltime_s(), step=0)
    tracer.instant("checkpoint", "save", nbytes=4096, arrays=3, version=2)
    tracer.instant("io", "npz.write", nbytes=4096)
    tracer.span("io", "npz.read", 1, timeline.ledger(1).walltime_s, 0.05,
                nbytes=4096.0)
    tracer.span("serve", "batch.0", 1, 0.5, 0.25, size=3, steps=8)
    tracer.span("serve", "batch.1", 0, 0.75, 0.125, size=1, steps=2)
    return tracer


#: name -> zero-argument builder of the trace (anything with ``.spans``).
CASES = {
    "exact-16-one-step": _meta((4, 2, 2)),
    "exact-16-three-steps": _meta((4, 2, 2), num_steps=3),
    "fold-off-two-steps": _meta((2, 2, 2), num_steps=2),
    "fold-on-two-steps": _meta((2, 2, 2), num_steps=2, fold="on"),
    "pp2": _meta((2, 2, 2, 1)),
    "pp2-folded": _meta((2, 2, 2, 1), fold="on"),
    "recompute-prefetch": _meta((2, 2, 2), depth=3, recompute=True,
                                prefetch=True),
    "straggler": _meta((2, 2, 2), compute_skew=((2, 10.0),)),
    "numeric-three-steps": _numeric_three_steps,
    "markers-and-serve": _markers_and_serve,
}

#: Cases also analysed after ``write_trace_events`` -> ``load_trace_events``
#: (``--regen`` checked that the old loader's analysis equalled the live one,
#: so both are held to the one entry).
RELOADED = ("markers-and-serve", "straggler", "fold-on-two-steps")


def _hex(value) -> str:
    assert type(value) in (float, int), type(value)
    return float(value).hex()


#: ``RankAttribution.as_dict()`` keys, in the order ``_buckets`` lists them.
BUCKETS = ("compute_s", "comm_s", "exposed_comm_s", "hidden_comm_s", "io_s",
           "busy_s", "flops", "comm_bytes", "spans")


def _buckets(attr) -> list:
    values = attr.as_dict()
    assert tuple(values) == BUCKETS
    return [value if key == "spans" else _hex(value)
            for key, value in values.items()]


def _pairs(mapping, encode=_hex) -> list:
    """A dict as ``[key, value]`` pairs: the golden pins its order too."""
    for key in mapping:
        assert type(key) in (int, str), type(key)
    return [[key, encode(value)] for key, value in mapping.items()]


def _cut(cut) -> dict:
    assert type(cut.critical_rank) is int
    return {
        "label": cut.label,
        "ranks": _pairs(cut.ranks, _buckets),
        "critical_rank": cut.critical_rank,
        "critical_path_s": _hex(cut.critical_path_s),
        "slack_s": _pairs(cut.slack_s),
        "exposed_comm_by_op": _pairs(cut.exposed_comm_by_op),
        "exposed_comm_by_kind": _pairs(cut.exposed_comm_by_kind),
        "phases": _pairs(cut.phases, _buckets),
        "layers": _pairs(cut.layers, _buckets),
        "chain": [
            [seg.rank, seg.spans, _hex(seg.busy_s), seg.first_op,
             seg.last_op, seg.via, seg.via_cid]
            for seg in cut.chain
        ],
        "attribution": _pairs(cut.attribution),
        "bound_resource": cut.bound_resource,
        "exposed_comm_fraction": _hex(cut.exposed_comm_fraction),
    }


#: ``top_operations`` entry keys, in the order ``_operation`` lists them.
OPERATION = ("kind", "name", "count", "exposed_s", "total_s", "hidden_s",
             "nbytes")


def _operation(entry: dict) -> list:
    assert tuple(entry) == OPERATION
    return [value if key in ("kind", "name", "count") else _hex(value)
            for key, value in entry.items()]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def snapshot(trace) -> dict:
    """Everything the analyses say about ``trace``, JSON-ready."""
    spans = getattr(trace, "spans", trace)
    decomposition = analyze_trace(trace)
    table = rank_attribution(spans)
    findings = check_run(spans, analysis=decomposition)
    return {
        "spans": len(spans),
        "overall": _cut(decomposition.overall),
        "steps": [_cut(cut) for cut in decomposition.steps],
        "exposed_comm_ratio": _hex(analysis.exposed_comm_ratio(spans)),
        "by_rank": {
            entry: _pairs({rank: getattr(attr, field) for rank, attr in table.items()})
            for entry, field in BY_RANK.items()},
        "top_operations": [_operation(entry) for entry in
                           analysis.top_operations(spans, limit=12)],
        # every operation, in both rankings
        "all_operations": _digest(json.dumps([
            [_operation(entry) for entry in
             analysis.top_operations(spans, limit=len(spans), key=key)]
            for key in ("exposed", "total")])),
        "report": _digest(critical_path_report(decomposition)),
        "findings": [
            [f.category, f.severity, list(f.ranks), _hex(f.value)]
            for f in findings
        ],
    }


def reloaded(trace, tmp_path):
    return load_trace_events(write_trace_events(trace, tmp_path / "events.json"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def _by_rank_equal(got: dict, want: dict) -> bool:
    """Per rank, not by position: the golden's order was the deleted
    reducers', and a rank they left out had nothing to sum."""
    return got.keys() == want.keys() and all(
        dict(got[entry]) == {rank: _hex(0.0) for rank, _ in got[entry]}
        | dict(want[entry])
        for entry in want)


def _assert_equal(got: dict, want: dict, name: str) -> None:
    for key in want:
        if key == "by_rank":
            assert _by_rank_equal(got[key], want[key]), f"{name}: {key}"
        else:
            assert got[key] == want[key], f"{name}: {key}"
    assert got.keys() == want.keys()


@pytest.mark.parametrize("name", CASES)
def test_analysis_equals_the_golden(golden, name, tmp_path):
    trace = CASES[name]()
    _assert_equal(snapshot(trace), golden[name], name)
    if name in RELOADED:
        _assert_equal(snapshot(reloaded(trace, tmp_path)), golden[name],
                      f"{name}, reloaded")


def test_golden_covers_what_it_claims(golden):
    """The cases exercise the paths they are named for."""
    chain = golden["straggler"]["overall"]["chain"]
    assert len({segment[0] for segment in chain}) > 1
    assert [cut["label"] for cut in golden["exact-16-three-steps"]["steps"]] \
        == ["step.0", "step.1", "step.2"]
    assert golden["fold-on-two-steps"]["spans"] \
        < golden["fold-off-two-steps"]["spans"]
    markers = golden["markers-and-serve"]
    assert float.fromhex(dict(markers["overall"]["attribution"])["io_s"]) > 0


if __name__ == "__main__":
    import tempfile

    if "--regen" not in sys.argv[1:]:
        sys.exit("usage: python tests/obs/test_analysis_golden.py --regen")
    lines = []
    for case, build in CASES.items():
        built = build()
        entry = snapshot(built)
        if case in RELOADED:
            with tempfile.TemporaryDirectory() as tmp:
                assert snapshot(reloaded(built, Path(tmp))) == entry, case
        # one line per result keeps the file a third the size of indent=1
        fields = ",\n".join(
            f'  {json.dumps(key)}: {json.dumps(value, separators=(",", ":"))}'
            for key, value in entry.items())
        lines.append(f" {json.dumps(case)}: {{\n{fields}\n }}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN}")
