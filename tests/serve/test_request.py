"""Tests for typed requests/responses and the serving policy."""

import numpy as np
import pytest

from repro.serve import (
    ForecastRequest,
    ForecastResponse,
    LatencyWindow,
    RequestError,
    ServePolicy,
    STATUS_OK,
)
from repro.serve.policy import policy_problems


def _request(**overrides):
    base = dict(request_id=0, init_index=3, lead_steps=4,
                out_vars=("2m_temperature",), arrival_s=1.0)
    base.update(overrides)
    return ForecastRequest(**base)


class TestForecastRequest:
    def test_batch_key_is_the_variable_set(self):
        assert _request().batch_key == ("2m_temperature",)

    @pytest.mark.parametrize("bad", [
        dict(init_index=-1),
        dict(lead_steps=0),
        dict(out_vars=()),
        dict(arrival_s=-0.1),
        dict(arrival_s=float("nan")),  # nan < 0 is false
        dict(arrival_s=float("inf")),
        dict(arrival_s=float("-inf")),
        dict(lead_steps=1.5),
        dict(lead_steps=2.0),
        dict(lead_steps=True),
        dict(init_index=3.0),
        dict(init_index=False),
        dict(request_id=0.5),
        dict(request_id=True),
        dict(request_id="7"),
        dict(init_index=None),
    ])
    def test_invalid_requests_rejected(self, bad):
        with pytest.raises(RequestError):
            _request(**bad)

    def test_numpy_integers_are_integers(self):
        request = _request(request_id=np.int64(5), init_index=np.int32(2),
                           lead_steps=np.int64(4))
        assert (request.request_id, request.init_index, request.lead_steps) == (5, 2, 4)

    def test_a_malformed_request_is_never_counted(self, forecaster, dataset):
        """It cannot be built, so no cache, batcher or server sees it."""
        from repro.serve import RolloutPrefixCache

        cache = RolloutPrefixCache(capacity=2)
        stats = cache.stats()
        with pytest.raises(RequestError, match="lead_steps 1.5 must be an integer"):
            cache.forecast(forecaster, dataset, 0, 1.5)
        with pytest.raises(RequestError, match="arrival_s nan must be finite"):
            _request(arrival_s=float("nan"))
        assert cache.stats() == stats and len(cache) == 0

    def test_out_vars_normalized_to_tuple(self):
        request = _request(out_vars=["2m_temperature", "geopotential_500"])
        assert request.out_vars == ("2m_temperature", "geopotential_500")


class TestForecastResponse:
    def test_latency_is_arrival_to_completion(self):
        response = ForecastResponse(
            request=_request(arrival_s=2.0), status=STATUS_OK, completed_s=2.75
        )
        assert response.ok
        assert response.latency_s == pytest.approx(0.75)

    def test_as_dict_excludes_the_array(self):
        response = ForecastResponse(
            request=_request(), status=STATUS_OK, completed_s=1.5
        )
        assert "result" not in response.as_dict()
        assert response.as_dict()["request_id"] == 0


class TestLatencyWindow:
    def test_sliding_capacity(self):
        window = LatencyWindow(capacity=3)
        for value in (1.0, 2.0, 3.0, 4.0):
            window.observe(value)
        assert window.values == [2.0, 3.0, 4.0]

    def test_percentiles(self):
        window = LatencyWindow()
        assert window.percentile(99) == 0.0
        for value in range(1, 101):
            window.observe(float(value))
        assert window.percentile(50) == 50.0
        assert window.percentile(99) == 99.0


class TestServePolicy:
    def test_defaults_valid(self):
        assert ServePolicy().problems() == []

    @pytest.mark.parametrize("bad,match", [
        (dict(max_batch=0), "max_batch"),
        (dict(batch_window_s=-1.0), "batch_window_s"),
        (dict(queue_limit=0), "queue_limit"),
        (dict(cache_entries=-1), "cache_entries"),
        (dict(min_replicas=0), "min_replicas"),
        (dict(min_replicas=3, max_replicas=2), "replica bounds"),
        (dict(autoscale_tick_s=0.0), "autoscale_tick_s"),
        (dict(utilization_low=1.5), "utilization_low"),
    ])
    def test_invalid_policies_raise(self, bad, match):
        with pytest.raises(ValueError, match=match):
            ServePolicy(**bad)

    def test_from_spec_reads_the_serve_knobs(self):
        from repro.models import OrbitConfig
        from repro.runtime import RunSpec

        spec = RunSpec(
            config=OrbitConfig("t", embed_dim=16, depth=1, num_heads=2,
                               in_vars=4, out_vars=4, img_height=8,
                               img_width=16, patch_size=4),
            num_gpus=8, tp_size=2, fsdp_size=2, ddp_size=2,
            serve_max_batch=4, serve_window_s=0.01, serve_queue_limit=64,
            serve_cache_entries=8, serve_min_replicas=2, serve_max_replicas=3,
        )
        policy = ServePolicy.from_spec(spec)
        assert policy.max_batch == 4
        assert policy.batch_window_s == 0.01
        assert policy.queue_limit == 64
        assert policy.cache_entries == 8
        assert policy.min_replicas == 2
        assert policy.max_replicas == 3

    def test_runspec_rejects_bad_serve_knobs_like_topology(self):
        from repro.models import OrbitConfig
        from repro.runtime import RunSpec, RunSpecError

        with pytest.raises(RunSpecError, match="serve max_batch"):
            RunSpec(
                config=OrbitConfig("t", embed_dim=16, depth=1, num_heads=2,
                                   in_vars=4, out_vars=4, img_height=8,
                                   img_width=16, patch_size=4),
                num_gpus=8, tp_size=2, fsdp_size=2, ddp_size=2,
                serve_max_batch=0,
            )

    def test_policy_problems_collects_everything(self):
        problems = policy_problems(
            max_batch=0, batch_window_s=-1.0, queue_limit=0, cache_entries=-1,
            min_replicas=0, max_replicas=-1,
        )
        assert len(problems) >= 5
