"""Tests for the two-stage search and its result cache."""

import json
import os
from dataclasses import replace

import pytest

from repro.bench.harness import run_case
from repro.cluster.symmetry import decide_fold
from repro.cluster.topology import FrontierTopology
from repro.models.configs import ORBIT_113B, ORBIT_115M
from repro.runtime import RunSpec
from repro.tune import (
    AnalyticEstimator,
    Candidate,
    InfeasibleRequest,
    TuneCache,
    TuneRequest,
    run_search,
    simulate_candidate,
)
from repro.tune.search import _validation_case, _validation_summary
from repro.utils.artifacts import ArtifactFormatError


def _request(**overrides):
    defaults = dict(
        config=ORBIT_115M, num_gpus=16, gpus_per_node=8,
        micro_batches=(2,), recompute_options=(False,),
        prefetch_options=(True,),
    )
    defaults.update(overrides)
    return TuneRequest(**defaults)


@pytest.fixture(scope="module")
def shared_estimator():
    return AnalyticEstimator(ORBIT_115M, num_gpus=16, gpus_per_node=8)


class TestRunSearch:
    def test_ranked_by_analytic_throughput_and_topk_validated(
        self, shared_estimator
    ):
        result = run_search(_request(), top_k=2, estimator=shared_estimator)
        times = [s.estimate.time_per_obs_s for s in result.ranked]
        assert times == sorted(times)
        assert len(result.validated) == 2
        for entry in result.validated:
            assert entry.simulated_step_time_s is not None
            assert entry.analytic_error is not None
        assert result.winner in result.validated
        assert result.winner.simulated["time_per_obs_s"] == min(
            s.simulated["time_per_obs_s"] for s in result.validated
        )

    def test_relaxed_mode_refused(self):
        with pytest.raises(ValueError, match="engine_mode"):
            run_search(_request(engine_mode=False))

    def test_no_legal_candidates_is_infeasible(self):
        with pytest.raises(InfeasibleRequest) as exc:
            run_search(_request(tp_sizes=(3,)))
        assert "no legal configuration" in str(exc.value)
        assert exc.value.space.rejections

    def test_everything_oom_is_infeasible(self):
        # 113B on one node cannot fit under any factorization.
        with pytest.raises(InfeasibleRequest, match="exceed device memory"):
            run_search(TuneRequest(
                ORBIT_113B, num_gpus=8, micro_batches=(2,),
                recompute_options=(True,), prefetch_options=(True,),
            ))


class TestTuneCache:
    def test_second_search_hits_the_cache(self, tmp_path, shared_estimator):
        path = tmp_path / "tune_cache.json"
        request = _request()
        first = run_search(request, top_k=2, cache=TuneCache(path),
                           estimator=shared_estimator)
        assert (first.cache_hits, first.cache_misses) == (0, 2)
        assert path.exists()
        second = run_search(request, top_k=2, cache=TuneCache(path),
                            estimator=shared_estimator)
        assert (second.cache_hits, second.cache_misses) == (2, 0)
        assert (
            second.winner.simulated_step_time_s
            == first.winner.simulated_step_time_s
        )

    def test_key_separates_models_and_topologies(self):
        request_a = _request()
        request_b = _request(num_gpus=32)
        cand = request_a  # just need distinct key inputs
        from repro.tune import Candidate

        cand = Candidate(4, 2, 2, 2)
        assert TuneCache.key(request_a, cand) != TuneCache.key(request_b, cand)

    def test_degradation_key_separates_degraded_estimates(self):
        from repro.replan import DegradationProfile
        from repro.tune import Candidate

        profile = DegradationProfile(compute=((0, 4.0),), remaining_steps=3)
        clean = _request()
        degraded = _request(degradation_key=profile.key())
        cand = Candidate(4, 2, 2, 2)
        assert TuneCache.key(clean, cand) != TuneCache.key(degraded, cand)
        # Degraded keys are self-describing, so distinct profiles can
        # never collide with (or poison) each other either.
        other = _request(degradation_key=DegradationProfile(
            compute=((0, 2.0),), remaining_steps=3).key())
        assert TuneCache.key(degraded, cand) != TuneCache.key(other, cand)

    def test_clean_requests_keep_the_historical_key_shape(self):
        from repro.tune import Candidate

        cand = Candidate(4, 2, 2, 2)
        key = TuneCache.key(_request(), cand)
        # The pre-degradation key layout: config | topology | label,
        # with no degradation component — existing cache files stay
        # valid.
        assert key.count("|") == 2
        assert "degraded=" not in key
        assert key == TuneCache.key(_request(degradation_key=""), cand)

    def test_unknown_schema_ignored(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"schema": 99, "entries": {"x": {}}}))
        assert len(TuneCache(path)) == 0


#: A cache entry as ``_validation_summary`` writes it.
_ENTRY = {
    "step_time_s": 0.5, "time_per_obs_s": 0.125, "peak_memory_bytes": 1e9,
    "exposed_comm_fraction": 0.1, "bound_resource": "compute",
    "critical_path": {},
}


def _cache_text(entries, schema=2) -> str:
    return json.dumps({"schema": schema, "entries": entries})


class TestHostileCacheFile:
    """A cache file the search cannot use fails at ``TuneCache(path)``,
    naming the file and the entry — not as a ``KeyError`` mid-search."""

    @pytest.mark.parametrize("text, complaint", [
        (_cache_text({"k": _ENTRY})[:40], "not valid JSON"),
        ("", "not valid JSON"),
        pytest.param("[1, 2]", "expected a JSON object, found list",
                     id="[1, 2]-not a JSON object"),
        (_cache_text([_ENTRY]), "'entries' is not an object"),
        (_cache_text({"k": [1]}), "entry 'k' is not an object"),
        (_cache_text({"k": {**_ENTRY, "step_time_s": "fast"}}),
         "entry 'k': 'step_time_s' cannot be 'fast'"),
        (_cache_text({"k": {**_ENTRY, "step_time_s": True}}),
         "entry 'k': 'step_time_s' cannot be True"),
        (_cache_text({"k": {**_ENTRY, "step_time_s": float("nan")}}),
         "entry 'k': 'step_time_s' cannot be nan"),
        (_cache_text({"k": {**_ENTRY, "step_time_s": float("inf")}}),
         "entry 'k': 'step_time_s' cannot be inf"),
    ] + [
        (_cache_text({"ok": _ENTRY,
                      "k": {n: v for n, v in _ENTRY.items() if n != field}}),
         f"entry 'k' has no '{field}'")
        for field in _ENTRY
    ])
    def test_unusable_file_names_the_path_and_the_entry(
            self, tmp_path, text, complaint):
        path = tmp_path / "cache.json"
        path.write_text(text)
        with pytest.raises(ArtifactFormatError) as exc:
            TuneCache(path)
        assert str(path) in str(exc.value)
        assert complaint in str(exc.value)

    def test_entry_fields_are_what_a_validation_writes(self):
        summary = simulate_candidate(_request(), Candidate(4, 2, 2, 2))
        assert set(summary) == set(_ENTRY)

    def test_binary_garbage_is_a_cache_error(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_bytes(b"\xff\xfe\x00{")
        with pytest.raises(ArtifactFormatError, match="not valid JSON"):
            TuneCache(path)

    def test_an_unreadable_path_is_a_cache_error(self, tmp_path):
        with pytest.raises(ArtifactFormatError, match="cannot be read"):
            TuneCache(tmp_path)  # a directory

    def test_a_well_formed_file_loads(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(_cache_text({"k": _ENTRY}))
        assert len(TuneCache(path)) == 1


class TestAtomicSave:
    def _cache(self, path, **entries):
        cache = TuneCache(path)
        cache._entries.update(entries)
        return cache

    def test_interrupted_save_leaves_the_previous_cache_loadable(
            self, tmp_path, monkeypatch):
        path = tmp_path / "cache.json"
        self._cache(path, first=_ENTRY).save()
        before = path.read_bytes()

        def crash(src, dst):
            raise KeyboardInterrupt("killed before the rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(KeyboardInterrupt):
            self._cache(path, second=_ENTRY).save()
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert list(TuneCache(path)._entries) == ["first"]
        # ... and no temp file is left beside it.
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]

    def test_save_replaces_the_file_and_creates_its_directory(self, tmp_path):
        path = tmp_path / "nested" / "cache.json"
        self._cache(path, first=_ENTRY).save()
        self._cache(path, second=_ENTRY).save()
        assert sorted(TuneCache(path)._entries) == ["first", "second"]
        assert [p.name for p in path.parent.iterdir()] == ["cache.json"]

    def test_relative_path_in_the_working_directory(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        self._cache("cache.json", first=_ENTRY).save()
        assert len(TuneCache("cache.json")) == 1


class TestFoldedValidation:
    """``simulate_candidate`` steps on the fold; the same case with
    ``fold="off"`` — an exact per-rank step — is its oracle."""

    CANDIDATES = {
        "3d": Candidate(4, 2, 2, 2),
        "3d-ckpt-fsdp-inner": Candidate(
            2, 4, 2, 2, recompute=True, prefetch=False, tp_innermost=False),
        "tp1": Candidate(1, 1, 16, 2),
        "pp2": Candidate(2, 2, 2, 2, pp_size=2),
        # Stages of 4 GCDs cut 8-GCD nodes: decide_fold refuses, the
        # validation falls back to the exact step.
        "pp4-refused": Candidate(2, 1, 2, 2, pp_size=4),
    }

    @pytest.mark.parametrize("candidate", CANDIDATES.values(),
                             ids=CANDIDATES.keys())
    def test_matches_the_exact_step(self, candidate):
        request = _request(pp_sizes=(1, 2, 4))
        case = _validation_case(request, candidate)
        refused = not decide_fold(
            RunSpec.from_case(case, config=request.config),
            FrontierTopology(request.num_gpus, request.gpus_per_node),
        ).folded
        assert refused == (candidate.pp_size == 4)

        simulated = simulate_candidate(request, candidate)
        exact = _validation_summary(
            run_case(replace(case, fold="off"), config=request.config))
        if refused:
            assert simulated == exact
        # The one field that may move: a members-weighted sum over class
        # spans against a per-rank sum, in a different order.
        assert simulated.pop("exposed_comm_fraction") == pytest.approx(
            exact.pop("exposed_comm_fraction"), rel=1e-12, abs=0.0)
        assert simulated == exact

    def test_crossover_front_runners_unchanged(self):
        """``repro crossover`` validates through ``simulate_candidate``;
        its pinned EXPERIMENTS.md numbers must not move."""
        from repro.experiments import pipeline_crossover

        result = pipeline_crossover.run()
        pipelined, flat = result.best(True), result.best(False)
        assert pipelined.candidate.label() == "pp2.tp1.f1.d8.mb32+pf"
        assert flat.candidate.label() == "tp2.f4.d2.mb32+ckpt+pf"
        assert f"{pipelined.estimate.time_per_obs_s:.6f}" == "0.025288"
        assert f"{flat.estimate.time_per_obs_s:.6f}" == "0.028819"
        for row in (pipelined, flat):
            assert row.simulated_step_time_s == pytest.approx(
                row.estimate.step_time_s, rel=1e-9)
