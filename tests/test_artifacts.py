"""The artifact contract, one row per writer/reader pair.

Every file the system persists is written whole or not at all and read
back exactly, and a torn copy is refused with an error naming the path:
:class:`ArtifactFormatError`, or its :class:`CheckpointCorruptError`
subclass for a checkpoint archive.
"""

import os

import numpy as np
import pytest

from repro.bench.harness import load_baseline, write_document
from repro.data import LatLonGrid, SyntheticERA5, default_registry
from repro.data.filedataset import FileDataset, save_archive as save_dataset
from repro.faults import FaultPlan, FaultSpec
from repro.obs import Tracer, load_journal, load_timeseries, load_trace_events
from repro.obs.export import write_trace_events
from repro.obs.journal import EventJournal
from repro.obs.timeseries import TimeseriesStore
from repro.runtime.checkpoint import (
    CheckpointCorruptError,
    load_archive,
    save_archive,
)
from repro.serve import bench as serve_bench
from repro.tune.search import TuneCache
from repro.utils.artifacts import ArtifactFormatError

_BENCH_CASE = {"step_time_s": 1.0, "peak_memory_bytes": 2,
               "exposed_comm_fraction": 0.1}
_SERVE_CASE = {"latency_p50_s": 0.1, "latency_p99_s": 0.2,
               "throughput_rps": 3.0, "makespan_s": 4.0,
               "cache_hit_ratio": 0.5, "utilization": 0.6, "offered": 7,
               "completed": 7, "rejected": 0, "model_steps": 9}
_TUNE_ENTRY = {"step_time_s": 1.0, "time_per_obs_s": 0.5,
               "peak_memory_bytes": 3, "exposed_comm_fraction": 0.1,
               "bound_resource": "compute", "critical_path": []}


# Each row maps a version number to ``(write, read, value)``: ``write(path)``
# writes version ``v`` of the artifact and returns the path written, and
# ``read(path)`` reads back something that must equal ``value``.

def _bench(v):
    doc = {"schema": 1, "cases": {"c": {**_BENCH_CASE, "step_time_s": 1.0 + v}}}
    return (lambda path: write_document(doc, path)), load_baseline, doc


def _serve(v):
    doc = {"schema": 1, "cases": {"c": {**_SERVE_CASE, "offered": 7 + v}}}
    return ((lambda path: write_document(doc, path)),
            serve_bench.load_baseline, doc)


def _trace(v):
    tracer = Tracer()
    tracer.span("compute", "mlp", 0, 0.0, 1.0 + v)
    tracer.instant("optimizer", "apply", t0=2.0 + v, step=v)
    return ((lambda path: write_trace_events(tracer, path)),
            load_trace_events, tracer.spans)


def _journal(v):
    journal = EventJournal()
    journal.append(0, "run", category="start", message="run begins")
    journal.append(2 + v, "checkpoint", category="save",
                   data={"bytes": 10.0 * v})
    return journal.write_jsonl, load_journal, journal.events


def _timeseries(v):
    store = TimeseriesStore()
    for step in range(3):
        store.record(step, {"step.time_s": 1.0 + v + step})
    return (store.write_jsonl,
            lambda path: load_timeseries(path)["series"]["step.time_s"]["points"],
            [(step, 1.0 + v + step) for step in range(3)])


def _tune_cache(v):
    entries = {f"key{v}": _TUNE_ENTRY}

    def write(path):
        cache = TuneCache(path)
        cache._entries = dict(entries)
        cache.save()
        return path

    return write, lambda path: TuneCache(path)._entries, entries


def _fault_plan(v):
    plan = FaultPlan(faults=(FaultSpec(kind="gpu_crash", step=1 + v, rank=2),),
                     seed=v)
    return plan.to_json, FaultPlan.from_json, plan


def _checkpoint(v):
    arrays = {"w": np.arange(64.0) + v}
    return ((lambda path: save_archive(path, arrays, {"step": v})),
            lambda path: {k: a.tolist() for k, a in load_archive(path)[0].items()},
            {k: a.tolist() for k, a in arrays.items()})


_ERA5 = SyntheticERA5(LatLonGrid(4, 8), default_registry(91).subset(
    ["land_sea_mask", "2m_temperature"]), steps_per_year=8, seed=3)


def _data_archive(v):
    dataset = _ERA5.validation()
    indices = range(v, v + 3)
    return ((lambda path: save_dataset(dataset, path, indices)),
            lambda path: FileDataset(path).snapshot(0).tolist(),
            dataset.snapshot(v).astype(np.float32).tolist())


ARTIFACTS = {
    "bench-document": (_bench, ".json"),
    "serve-document": (_serve, ".json"),
    "trace-events": (_trace, ".json"),
    "journal": (_journal, ".jsonl"),
    "timeseries": (_timeseries, ".jsonl"),
    "tune-cache": (_tune_cache, ".json"),
    "fault-plan": (_fault_plan, ".json"),
    "checkpoint": (_checkpoint, ".npz"),
    "data-archive": (_data_archive, ".npz"),
}


@pytest.fixture(params=sorted(ARTIFACTS))
def artifact(request, tmp_path):
    """``(row, path)`` for one artifact kind, ``path`` in a fresh directory."""
    row, suffix = ARTIFACTS[request.param]
    return row, tmp_path / "nested" / f"artifact{suffix}"


def test_round_trips(artifact):
    row, path = artifact
    write, read, value = row(1)
    assert read(write(path)) == value


def test_a_half_file_is_refused_naming_the_path(artifact):
    row, path = artifact
    write, read, _ = row(1)
    written = write(path)
    data = written.read_bytes()
    written.write_bytes(data[:len(data) // 2])
    expected = (CheckpointCorruptError if row is _checkpoint
                else ArtifactFormatError)
    with pytest.raises(expected) as raised:
        read(written)
    assert str(written) in str(raised.value)


def test_a_failed_replace_keeps_the_previous_file(artifact, monkeypatch):
    row, path = artifact
    write, read, before_value = row(0)
    written = write(path)
    before = written.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        row(1)[0](path)
    monkeypatch.undo()
    assert written.read_bytes() == before
    assert read(written) == before_value
    assert [p.name for p in written.parent.iterdir()] == [written.name]
