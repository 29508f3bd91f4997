"""Rollout prefix cache: correctness is bitwise, not approximate.

The acceptance contract for serving is that caching is invisible in
the payload — a cache hit, a prefix extension, and a cold recompute
must all return arrays bitwise-identical to a direct
``RolloutForecaster.forecast`` call.  Batching is invisible too: one
``forecast_batch`` call leaves the results, the per-request
``(new_steps, hit)``, the counters and the eviction order that the same
requests leave when served one call each — the sequential accounting is
the oracle, because the modeled latencies are priced from it.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    ForecastRequest,
    ForecastServer,
    RequestError,
    RolloutPrefixCache,
    generate_requests,
)
from repro.serve.bench import DEFAULT_MATRIX
from tests.serve.conftest import counting

VARS = (("2m_temperature",), ("geopotential_500", "2m_temperature"))


def direct(forecaster, dataset, init_index, lead_steps, out_vars=None):
    full = forecaster.forecast(dataset, init_index, lead_steps)
    if out_vars is None:
        return full
    names = list(dataset.out_names)
    return full[[names.index(v) for v in out_vars]]


class TestBitwiseParity:
    def test_miss_matches_direct_forecast(self, forecaster, dataset):
        cache = RolloutPrefixCache(capacity=4)
        result, steps, hit = cache.forecast(forecaster, dataset, 3, 4)
        assert not hit
        assert steps == 4
        np.testing.assert_array_equal(result, direct(forecaster, dataset, 3, 4))

    def test_hit_is_bitwise_equal_to_recompute(self, forecaster, dataset):
        cache = RolloutPrefixCache(capacity=4)
        first, _, _ = cache.forecast(forecaster, dataset, 2, 6)
        again, steps, hit = cache.forecast(forecaster, dataset, 2, 6)
        assert hit and steps == 0
        np.testing.assert_array_equal(first, again)
        np.testing.assert_array_equal(again, direct(forecaster, dataset, 2, 6))

    def test_shorter_lead_served_from_deeper_prefix(self, forecaster, dataset):
        cache = RolloutPrefixCache(capacity=4)
        cache.forecast(forecaster, dataset, 1, 8)
        for lead in (2, 4, 6):
            result, steps, hit = cache.forecast(forecaster, dataset, 1, lead)
            assert hit and steps == 0
            np.testing.assert_array_equal(
                result, direct(forecaster, dataset, 1, lead)
            )

    def test_deeper_lead_extends_the_prefix(self, forecaster, dataset):
        cache = RolloutPrefixCache(capacity=4)
        cache.forecast(forecaster, dataset, 0, 2)
        result, steps, hit = cache.forecast(forecaster, dataset, 0, 6)
        assert not hit      # paid for new steps ...
        assert steps == 4   # ... but only the extension, not the prefix
        np.testing.assert_array_equal(result, direct(forecaster, dataset, 0, 6))

    def test_variable_selection_rides_free(self, forecaster, dataset):
        cache = RolloutPrefixCache(capacity=4)
        out_vars = ("geopotential_500", "2m_temperature")
        cache.forecast(forecaster, dataset, 2, 4)
        result, steps, hit = cache.forecast(forecaster, dataset, 2, 4,
                                            out_vars=out_vars)
        assert hit and steps == 0
        np.testing.assert_array_equal(
            result, direct(forecaster, dataset, 2, 4, out_vars)
        )

    def test_non_multiple_lead_rejected(self, forecaster, dataset):
        from repro.eval.rollout import RolloutForecaster

        coarse = RolloutForecaster(forecaster.model, forecaster.normalizer,
                                   base_lead_steps=2)
        cache = RolloutPrefixCache(capacity=4)
        with pytest.raises(ValueError, match="not a multiple"):
            cache.forecast(coarse, dataset, 0, 3)


class TestEviction:
    def test_eviction_never_changes_responses(self, forecaster, dataset):
        """Thrash a capacity-2 cache across 5 windows; every response must
        stay bitwise-equal to the direct rollout regardless of which
        entries survived."""
        cache = RolloutPrefixCache(capacity=2)
        for init_index in (0, 1, 2, 3, 4, 0, 2, 4, 1, 3):
            result, _, _ = cache.forecast(forecaster, dataset, init_index, 4)
            np.testing.assert_array_equal(
                result, direct(forecaster, dataset, init_index, 4)
            )
        assert cache.evictions > 0
        assert len(cache) <= 2

    def test_lru_evicts_the_stalest_window(self, forecaster, dataset):
        cache = RolloutPrefixCache(capacity=2)
        cache.forecast(forecaster, dataset, 0, 2)
        cache.forecast(forecaster, dataset, 1, 2)
        cache.forecast(forecaster, dataset, 0, 2)  # refresh window 0
        cache.forecast(forecaster, dataset, 2, 2)  # evicts window 1
        assert cache.depth(0) >= 0
        assert cache.depth(1) == -1
        assert cache.depth(2) >= 0

    def test_capacity_zero_disables_caching(self, forecaster, dataset):
        cache = RolloutPrefixCache(capacity=0)
        for _ in range(2):
            result, steps, hit = cache.forecast(forecaster, dataset, 3, 4)
            assert not hit and steps == 4
            np.testing.assert_array_equal(
                result, direct(forecaster, dataset, 3, 4)
            )
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            RolloutPrefixCache(capacity=-1)


class TestAccounting:
    def test_stats_track_hits_misses_steps(self, forecaster, dataset):
        cache = RolloutPrefixCache(capacity=4)
        cache.forecast(forecaster, dataset, 0, 4)   # miss, 4 steps
        cache.forecast(forecaster, dataset, 0, 2)   # hit, 0 steps
        cache.forecast(forecaster, dataset, 0, 6)   # miss, 2 new steps
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["steps_computed"] == 6
        assert cache.hit_ratio == pytest.approx(1 / 3)

    def test_clear_empties_the_cache(self, forecaster, dataset):
        cache = RolloutPrefixCache(capacity=4)
        cache.forecast(forecaster, dataset, 0, 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.depth(0) == -1


def _request(request_id, init_index, lead_steps, out_vars=VARS[0]):
    return ForecastRequest(request_id, init_index, lead_steps, out_vars, 0.0)


def _eviction_order(cache):
    """Cached windows, next LRU victim first."""
    return sorted(cache._entries, key=lambda idx: cache._entries[idx].tick)


def _one_call_each(cache, forecaster, dataset, requests):
    return [
        cache.forecast(forecaster, dataset, r.init_index, r.lead_steps, r.out_vars)
        for r in requests
    ]


def _assert_same_service(batched, sequential):
    assert [s[1:] for s in batched] == [s[1:] for s in sequential]
    for (got, _, _), (want, _, _) in zip(batched, sequential):
        np.testing.assert_array_equal(got, want)


@st.composite
def _batches(draw):
    """One or two micro-batches of 1-12 requests over 1-6 windows:
    duplicates, mixed leads, both variable sets."""
    windows = st.integers(0, draw(st.integers(1, 6)) - 1)
    request = st.tuples(windows, st.sampled_from((1, 2, 3, 4, 6)),
                        st.sampled_from(VARS))
    batches = draw(st.lists(st.lists(request, min_size=1, max_size=12),
                            min_size=1, max_size=2))
    ids = iter(range(24))
    return [[_request(next(ids), *fields) for fields in batch]
            for batch in batches]


class TestBatchedService:
    @pytest.mark.parametrize("capacity", [0, 1, 2, 32])
    @settings(max_examples=25, deadline=None)
    @given(batches=_batches())
    def test_one_batched_call_is_one_call_each(self, forecaster, dataset,
                                               capacity, batches):
        forecaster, counter = counting(forecaster)
        batched = RolloutPrefixCache(capacity)
        sequential = RolloutPrefixCache(capacity)
        for batch in batches:
            depth_before = {r.init_index: max(0, batched.depth(r.init_index))
                            for r in batch}
            del counter.widths[:]
            served, stack_widths = batched.forecast_batch(forecaster, dataset,
                                                          batch)
            assert counter.widths == stack_widths
            assert sum(stack_widths) == sum(steps for _, steps, _ in served)
            if capacity == 32:  # nothing evicted: one chain per window
                deepest = max(r.lead_steps - depth_before[r.init_index]
                              for r in batch)
                assert len(stack_widths) == max(0, deepest)
            _assert_same_service(
                served, _one_call_each(sequential, forecaster, dataset, batch))
            assert {**batched.stats(), "forward_calls": None} == \
                   {**sequential.stats(), "forward_calls": None}
            assert _eviction_order(batched) == _eviction_order(sequential)
            assert [batched.depth(i) for i in range(6)] == \
                   [sequential.depth(i) for i in range(6)]
        assert batched.forward_calls <= sequential.forward_calls
        assert sequential.forward_calls == sequential.steps_computed

    def test_window_evicted_and_asked_again_in_one_batch(self, forecaster,
                                                         dataset):
        """Capacity 1, windows A B A: B evicts the A the first request
        extended, so the third request rebuilds A from scratch and pays
        for all 6 steps.  A plan keyed by ``init_index`` would extend
        one A entry and report (2, False)."""
        batch = [_request(0, 0, 4), _request(1, 1, 2), _request(2, 0, 6)]
        forecaster, counter = counting(forecaster)
        cache = RolloutPrefixCache(capacity=1)
        served, stack_widths = cache.forecast_batch(forecaster, dataset, batch)
        assert [s[1:] for s in served] == [(4, False), (2, False), (6, False)]
        assert cache.steps_computed == 12 and cache.misses == 3
        assert cache.evictions == 2 and cache.depth(0) == 6
        # Three chains (both As and B) in max-new-steps forwards.
        assert stack_widths == [3, 3, 2, 2, 1, 1] == counter.widths
        _assert_same_service(
            served,
            _one_call_each(RolloutPrefixCache(1), forecaster, dataset, batch))

    def test_chains_at_different_depths_share_forwards(self, forecaster,
                                                       dataset):
        cache = RolloutPrefixCache(capacity=4)
        cache.forecast(forecaster, dataset, 0, 3)
        batch = [_request(0, 0, 4), _request(1, 1, 2), _request(2, 2, 4),
                 _request(3, 1, 1, VARS[1])]
        served, stack_widths = cache.forecast_batch(forecaster, dataset, batch)
        assert [s[1:] for s in served] == \
               [(1, False), (2, False), (4, False), (0, True)]
        assert stack_widths == [3, 2, 1, 1]
        assert cache.stats()["forward_calls"] == 3 + 4
        for request, (result, _, _) in zip(batch, served):
            np.testing.assert_array_equal(
                result, direct(forecaster, dataset, request.init_index,
                               request.lead_steps, request.out_vars))

    def test_cached_states_own_their_memory(self, forecaster, dataset):
        cache = RolloutPrefixCache(capacity=4)
        cache.forecast_batch(forecaster, dataset,
                             [_request(0, 0, 2), _request(1, 1, 2)])
        for entry in cache._entries.values():
            assert all(state.flags.owndata for state in entry.states)

    def test_default_matrix_forward_counts(self, forecaster, dataset):
        """The pinned accounting of the committed bench: ``model_steps``
        as in ``BENCH_serve.json``, forwards the max (not the sum) over
        each batch's windows."""
        forecaster, counter = counting(forecaster)
        counts = {}
        for case in DEFAULT_MATRIX:
            before = len(counter.widths)
            server = ForecastServer(forecaster, dataset, case.policy)
            stats = server.serve(generate_requests(case.load)).cache_stats
            assert stats["forward_calls"] == len(counter.widths) - before
            counts[case.name] = (stats["forward_calls"], stats["steps_computed"])
        assert counts == {
            "hot-25rps": (100, 104),
            "hot-150rps": (174, 192),
            "cold-300rps": (786, 912),
            "surge-800rps": (966, 1344),
        }


class TestForwardTape:
    """Serving runs its forwards from the forward tape: exact counts of
    the work a warm batch does, against the per-op path (a
    ``ForwardCounter`` is not a ``Module``, so it never tapes)."""

    BATCH = [(0, 4), (1, 2), (2, 4), (1, 1), (3, 6)]

    @staticmethod
    def _fresh(forecaster):
        from repro.eval.rollout import RolloutForecaster

        return RolloutForecaster(forecaster.model, forecaster.normalizer)

    def test_warm_batch_makes_no_per_op_call(self, forecaster, dataset,
                                             monkeypatch):
        from repro.nn import ops

        taped = self._fresh(forecaster)
        batch = [_request(i, w, lead) for i, (w, lead) in enumerate(self.BATCH)]
        cold, widths = RolloutPrefixCache(8).forecast_batch(taped, dataset, batch)
        assert widths == [4, 4, 3, 3, 1, 1]
        assert taped.infer.counts() == {"records": 3, "replays": 3, "fallbacks": 0}

        calls = Counter()
        for name in ("_binary", "_unary", "_reduce", "matmul"):
            def wrapper(*args, _name=name, _fn=getattr(ops, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(ops, name, wrapper)
        warm, warm_widths = RolloutPrefixCache(8).forecast_batch(taped, dataset,
                                                                 batch)
        assert not calls and warm_widths == widths
        assert taped.infer.counts() == {"records": 3, "replays": 9, "fallbacks": 0}
        _assert_same_service(warm, cold)

        per_op, counter = counting(forecaster)
        oracle, _ = RolloutPrefixCache(8).forecast_batch(per_op, dataset, batch)
        assert calls["matmul"] == 17 * len(widths) and counter.widths == widths
        assert per_op.infer.counts() == {"records": 0, "replays": 0, "fallbacks": 6}
        _assert_same_service(warm, oracle)

    def test_server_publishes_tape_counts_beside_unchanged_forward_counts(
            self, forecaster, dataset):
        from repro.obs.metrics import MetricsRegistry

        def run(fc):
            metrics = MetricsRegistry()
            case = DEFAULT_MATRIX[0]
            report = ForecastServer(fc, dataset, case.policy, metrics=metrics) \
                .serve(generate_requests(case.load))
            return report, metrics

        taped = self._fresh(forecaster)
        report, metrics = run(taped)
        per_op, _ = counting(forecaster)
        oracle_report, oracle_metrics = run(per_op)

        def value(registry, name):
            return registry.counter(f"serve.{name}").value

        widths = metrics.histogram("serve.stack_width").values
        assert widths == oracle_metrics.histogram("serve.stack_width").values
        assert value(metrics, "forward_calls") == len(widths) == 100 == \
               value(oracle_metrics, "forward_calls")
        assert value(metrics, "tape_records") == len(set(widths))
        assert value(metrics, "tape_replays") == len(widths) - len(set(widths))
        assert value(metrics, "tape_fallbacks") == 0
        assert [value(oracle_metrics, f"tape_{n}")
                for n in ("records", "replays", "fallbacks")] == [0, 0, 100]
        # BENCH_serve.json is report.stats(): the tape stays out of it.
        assert report.stats() == oracle_report.stats()
        assert not any("tape" in key for key in report.stats())
        for got, want in zip(report.completed, oracle_report.completed):
            np.testing.assert_array_equal(got.result, want.result)
        # A second server over the same forecaster publishes only its share.
        _, again = run(taped)
        assert value(again, "tape_records") == 0
        assert value(again, "tape_replays") == len(widths)


class TestBadRequests:
    """A request the world cannot serve fails the whole batch before
    the plan has counted, created or evicted anything."""

    @pytest.mark.parametrize("bad, match", [
        (dict(lead_steps=3), "request 7: lead 3 not a multiple"),
        (dict(init_index=10_000), "request 7: index 10000 outside"),
        (dict(out_vars=("no_such_field",)), "request 7: unknown variable"),
    ])
    def test_failed_batch_leaves_the_cache_untouched(self, forecaster, dataset,
                                                     bad, match):
        from repro.eval.rollout import RolloutForecaster

        coarse = RolloutForecaster(forecaster.model, forecaster.normalizer,
                                   base_lead_steps=2)
        cache = RolloutPrefixCache(capacity=2)
        cache.forecast_batch(coarse, dataset,
                             [_request(0, 0, 4), _request(1, 1, 2)])
        stats, order = cache.stats(), _eviction_order(cache)
        states = {i: [id(s) for s in e.states] for i, e in cache._entries.items()}
        fields = dict(init_index=0, lead_steps=6, out_vars=VARS[0])
        fields.update(bad)
        batch = [_request(5, 2, 4), _request(6, 0, 6),
                 ForecastRequest(7, arrival_s=0.0, **fields)]
        with pytest.raises(RequestError, match=match):
            cache.forecast_batch(coarse, dataset, batch)
        assert cache.stats() == stats
        assert _eviction_order(cache) == order
        assert states == \
               {i: [id(s) for s in e.states] for i, e in cache._entries.items()}
