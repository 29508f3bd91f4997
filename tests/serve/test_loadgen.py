"""Seeded open-loop load generator."""

import pytest

from repro.serve import LoadSpec, generate_requests


def _spec(**overrides):
    base = dict(rate_rps=100.0, duration_s=2.0, seed=7, num_windows=32,
                num_hot=4, hot_fraction=0.8)
    base.update(overrides)
    return LoadSpec(**base)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        first = generate_requests(_spec())
        second = generate_requests(_spec())
        assert [(r.arrival_s, r.init_index, r.lead_steps, r.out_vars)
                for r in first] == \
               [(r.arrival_s, r.init_index, r.lead_steps, r.out_vars)
                for r in second]

    def test_different_seed_different_trace(self):
        assert [r.arrival_s for r in generate_requests(_spec(seed=7))] != \
               [r.arrival_s for r in generate_requests(_spec(seed=8))]


class TestShape:
    def test_arrivals_ordered_and_bounded(self):
        requests = generate_requests(_spec())
        arrivals = [r.arrival_s for r in requests]
        assert arrivals == sorted(arrivals)
        assert all(0.0 <= a < 2.0 for a in arrivals)
        assert [r.request_id for r in requests] == list(range(len(requests)))

    def test_rate_approximately_honoured(self):
        requests = generate_requests(_spec(rate_rps=200.0, duration_s=4.0))
        assert len(requests) == pytest.approx(800, rel=0.25)

    def test_hot_windows_dominate(self):
        requests = generate_requests(_spec(hot_fraction=0.9, num_hot=2))
        hot = sum(1 for r in requests if r.init_index < 2)
        assert hot / len(requests) > 0.75

    def test_cold_load_spreads_over_all_windows(self):
        requests = generate_requests(
            _spec(hot_fraction=0.0, rate_rps=400.0, duration_s=2.0)
        )
        assert len({r.init_index for r in requests}) > 16

    def test_draws_only_configured_choices(self):
        spec = _spec()
        requests = generate_requests(spec)
        assert {r.lead_steps for r in requests} <= set(spec.lead_choices)
        assert {r.out_vars for r in requests} <= set(spec.var_choices)


class TestValidation:
    @pytest.mark.parametrize("bad", [
        dict(rate_rps=0.0),
        dict(duration_s=0.0),
        dict(num_windows=0),
        dict(num_hot=0),
        dict(num_hot=33),
        dict(hot_fraction=1.5),
        dict(lead_choices=()),
        dict(var_choices=()),
    ])
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(ValueError):
            _spec(**bad)

    @pytest.mark.parametrize("bad", [
        dict(rate_rps=float("inf")),  # zero gaps: generate_requests never ends
        dict(rate_rps=float("nan")),
        dict(duration_s=float("nan")),
        dict(duration_s=float("inf")),
    ])
    def test_non_finite_rate_and_duration_raise(self, bad):
        (name, value), = bad.items()
        with pytest.raises(ValueError, match=f"^{name} {value} must be finite$"):
            _spec(**bad)

    def test_as_dict_round_trips_scalars(self):
        record = _spec().as_dict()
        assert record["rate_rps"] == 100.0
        assert record["seed"] == 7
