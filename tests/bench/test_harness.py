"""Performance-regression harness: determinism, baselines, the gate."""

import json
from pathlib import Path

import pytest

from repro.bench import (
    DEFAULT_MATRIX,
    BenchCase,
    compare,
    load_baseline,
    run_case,
    run_matrix,
    scaling_efficiencies,
    summary_table,
    to_document,
    write_baseline,
)
from repro.utils.artifacts import ArtifactFormatError

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
QUICK_CASE = next(case for case in DEFAULT_MATRIX if case.quick)


@pytest.fixture(scope="module")
def quick_records():
    return run_matrix(quick=True)


@pytest.fixture(scope="module")
def quick_doc(quick_records):
    return to_document(quick_records)


class TestMatrix:
    def test_matrix_covers_both_models_at_two_scales(self):
        assert {case.model for case in DEFAULT_MATRIX} == {"orbit-115m", "orbit-1b"}
        assert {case.nodes for case in DEFAULT_MATRIX} == {2, 4}
        for case in DEFAULT_MATRIX:
            assert case.tp_size * case.fsdp_size * case.ddp_size == case.num_gpus

    def test_quick_subset_nonempty_strict(self):
        quick = [case for case in DEFAULT_MATRIX if case.quick]
        assert quick and len(quick) < len(DEFAULT_MATRIX)


class TestDeterminism:
    def test_run_case_is_bitwise_deterministic(self):
        first = run_case(QUICK_CASE)
        second = run_case(QUICK_CASE)
        assert first.as_dict() == second.as_dict()

    def test_document_is_json_stable(self, quick_records):
        first = json.dumps(to_document(quick_records), sort_keys=True)
        second = json.dumps(to_document(run_matrix(quick=True)), sort_keys=True)
        assert first == second


class TestDocument:
    def test_schema_and_metrics_present(self, quick_doc):
        assert quick_doc["schema"] == 1
        for case in quick_doc["cases"].values():
            assert case["step_time_s"] > 0.0
            assert case["time_per_obs_s"] > 0.0
            assert 0.0 <= case["exposed_comm_fraction"] <= 1.0
            assert case["peak_memory_bytes"] > 0
            assert case["bound_resource"] in ("compute", "comm", "io", "idle")

    def test_efficiency_baseline_point_is_one(self, quick_records):
        efficiency = scaling_efficiencies(quick_records)
        points = efficiency["orbit-115m"]["points"]
        assert points["16"] == pytest.approx(1.0)
        assert 0.0 < points["32"] <= 1.3

    def test_write_and_load_round_trip(self, quick_records, tmp_path):
        path = write_baseline(quick_records, tmp_path / "BENCH_obs.json")
        assert load_baseline(path) == to_document(quick_records)

    def test_load_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 99}))
        with pytest.raises(ValueError, match="schema"):
            load_baseline(bad)

    @pytest.mark.parametrize("content, complaint", [
        (None, "No such file"),
        ('{"schema": 1, "cases": {"orbit', "not valid JSON"),
        (b"\xff\xfe{}", "not valid JSON"),
        ("[]", "expected a JSON object, found list"),
        ('{"cases": {}}', "schema None"),
    ])
    def test_load_names_the_path_and_the_problem(self, tmp_path, content,
                                                  complaint):
        path = tmp_path / "baseline.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        with pytest.raises(ArtifactFormatError) as raised:
            load_baseline(path)
        assert str(path) in str(raised.value) and complaint in str(raised.value)

    def test_summary_table_renders(self, quick_doc):
        text = summary_table(quick_doc)
        assert "orbit-115m-2n" in text and "bound" in text


class TestRegressionGate:
    def test_identical_documents_pass(self, quick_doc):
        assert compare(quick_doc, quick_doc) == []

    def test_step_time_drift_detected(self, quick_doc):
        drifted = json.loads(json.dumps(quick_doc))
        name = next(iter(drifted["cases"]))
        drifted["cases"][name]["step_time_s"] *= 1.10
        problems = compare(drifted, quick_doc, tolerance=0.05)
        assert any("step_time_s" in problem for problem in problems)
        assert compare(drifted, quick_doc, tolerance=0.25) == []

    def test_efficiency_drift_detected(self, quick_doc):
        drifted = json.loads(json.dumps(quick_doc))
        drifted["efficiency"]["orbit-115m"]["points"]["32"] -= 0.10
        problems = compare(drifted, quick_doc, tolerance=0.05)
        assert any("efficiency" in problem for problem in problems)

    def test_missing_case_detected_unless_quick(self, quick_doc):
        partial = {"schema": 1, "cases": {}, "efficiency": {}}
        assert compare(partial, quick_doc, require_all=True)
        assert compare(partial, quick_doc, require_all=False) == []

    def test_committed_baseline_matches_fresh_run(self):
        """The repo's BENCH_obs.json is reproducible within tolerance."""
        baseline = load_baseline(REPO_ROOT / "BENCH_obs.json")
        current = to_document(run_matrix())
        assert compare(current, baseline, tolerance=0.05) == []
