"""Checks of the benchmark itself.  Run explicitly (outside tier-1):

    python -m pytest bench_wall/test_bench_wall.py -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import oracle
import probes
import workloads

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
CONTRACT = json.loads((REPO / "BENCHMARK.json").read_text())

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_benchmark(*argv, cwd=REPO, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_meets_the_contract():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["bench_wall"]
    assert CONTRACT["command"] == ["python3", "bench_wall/run.py"]
    assert isinstance(CONTRACT["run_seconds"], int)
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128

    names = []
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))

    bounds = {m["name"]: m for m in CONTRACT["end_to_end"]}
    setup = bounds["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bounds.values())
    assert len((REPO / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_every_workload_is_defined_pinned_and_probed():
    names = {w["name"] for w in CONTRACT["workloads"]}
    assert names == set(workloads.WORKLOADS)
    assert names == set(probes.LAYERS)
    assert names == set(oracle.load_reference()["workloads"])


def test_reference_agrees_with_committed_baselines():
    assert oracle.committed_disagreements() == []


def test_a_moved_reference_value_is_reported():
    reference = oracle.load_reference()
    reference["workloads"]["serve-mix"]["results"]["surge-800rps.rejected"] = 0
    (problem,) = oracle.committed_disagreements(reference)
    assert "surge-800rps.rejected" in problem


def test_drift_compares_floats_relatively_and_the_rest_exactly():
    pinned = {"t": 2.0, "n": 3, "label": "a"}
    assert oracle.drift(dict(pinned), pinned) == 0.0
    assert oracle.drift({**pinned, "t": 2.0 + 2e-6}, pinned) > 1e-9
    assert oracle.drift({**pinned, "n": 4}, pinned) == 1.0
    assert oracle.drift({**pinned, "label": "b"}, pinned) == 1.0
    assert oracle.drift({"t": 2.0}, pinned) == 1.0


def test_exact_step_smoke_prints_every_end_to_end_metric_with_a_unit():
    done = run_benchmark("--passes", "1", "--workload", "exact-step")
    assert done.returncode == 0, done.stderr
    *lines, last = done.stdout.splitlines()
    units = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    units.update(failed_share="ratio", result_drift="ratio",
                 host_factor="ratio")
    printed = {}
    for line in lines:
        workload, metric, value, unit, count = line.split()[:5]
        assert workload == "exact-step"
        assert unit == units[metric], line
        assert re.fullmatch(r"n=\d+", count), line
        printed[metric] = float(value)
    assert set(printed) == set(units)
    assert printed["failed_share"] == 0 and printed["result_drift"] == 0

    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (1, 0)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench_wall",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_benchmark("--workload", "exact-step", cwd=tmp_path,
                         script=tmp_path / "bench_wall" / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""
