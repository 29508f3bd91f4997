"""ReplanController decisions on the seeded demo scenario.

The demo model (see :mod:`repro.replan.scenario`) is the smallest
configuration whose compute is comparable to its exposed communication
— the regime where a lead-rank straggler actually reorders the
candidate ranking and a switch can pay for itself.
"""

import pytest

from repro.replan import (
    DegradationProfile,
    MigrationCostModel,
    ReplanController,
    candidate_of,
)
from repro.replan.scenario import demo_spec

CHEAP = MigrationCostModel(checkpoint_s=0.005, rebuild_s=0.01, warmup_s=0.005)
STRAGGLER = DegradationProfile(compute=((0, 8.0),), remaining_steps=11)


@pytest.fixture(scope="module")
def spec():
    return demo_spec()


@pytest.fixture(scope="module")
def controller(spec):
    return ReplanController(spec, hysteresis=0.25)


@pytest.mark.parametrize("hysteresis", [-0.1, float("nan"), float("inf")])
def test_hysteresis_must_be_finite_and_non_negative(spec, hysteresis):
    with pytest.raises(ValueError, match="finite and non-negative"):
        ReplanController(spec, hysteresis=hysteresis)


class TestDecision:
    def test_straggler_triggers_a_switch(self, controller, spec):
        decision = controller.evaluate(spec, 3, 16, STRAGGLER, CHEAP)
        assert decision.switch
        assert decision.best_label == "tp2.f4.d2.mb4+pf"
        assert decision.best_candidate.label() == decision.best_label
        # The alternative must preserve the global batch.
        assert decision.best_candidate.observations == spec.observations
        assert decision.projected_gain_s > CHEAP.total_s * 1.25
        assert decision.best_step_s < decision.current_step_s

    def test_prohibitive_migration_cost_stays(self, controller, spec):
        expensive = MigrationCostModel(checkpoint_s=5.0, rebuild_s=5.0)
        decision = controller.evaluate(spec, 3, 16, STRAGGLER, expensive)
        assert decision.action == "stay"
        assert "does not clear" in decision.reason
        # The gain is still reported: the journal shows what was left
        # on the table.
        assert decision.projected_gain_s > 0

    def test_exhausted_horizon_stays(self, controller, spec):
        decision = controller.evaluate(spec, 16, 16, STRAGGLER, CHEAP)
        assert decision.action == "stay"
        assert decision.reason == "horizon exhausted"
        assert decision.remaining_steps == 0

    def test_short_window_shrinks_the_gain(self, controller, spec):
        brief = DegradationProfile(compute=((0, 8.0),), remaining_steps=1)
        long = controller.evaluate(spec, 3, 16, STRAGGLER, CHEAP)
        short = controller.evaluate(spec, 3, 16, brief, CHEAP)
        assert short.projected_gain_s < long.projected_gain_s

    def test_as_dict_is_json_ready(self, controller, spec):
        decision = controller.evaluate(spec, 3, 16, STRAGGLER, CHEAP)
        payload = decision.as_dict()
        assert payload["action"] == "switch"
        assert payload["profile"] == "c0x8,w11"
        assert payload["current"] == candidate_of(spec).label()
        # The executable Candidate rides on the dataclass, not the
        # serialized payload.
        assert "best_candidate" not in payload

    def test_estimates_are_cached_per_profile(self, spec):
        calls = []

        class CountingEstimator:
            def __init__(self, inner):
                self.inner = inner

            def estimate(self, candidate, degradation=None):
                calls.append((candidate, degradation))
                return self.inner.estimate(candidate, degradation=degradation)

        from repro.tune.estimator import AnalyticEstimator

        inner = AnalyticEstimator(spec.config, spec.num_gpus, spec.gpus_per_node)
        controller = ReplanController(
            spec, estimator=CountingEstimator(inner)
        )
        controller.evaluate(spec, 3, 16, STRAGGLER, CHEAP)
        first = len(calls)
        controller.evaluate(spec, 4, 16, STRAGGLER, CHEAP)
        assert len(calls) == first


class TestElasticOnly:
    def test_numeric_specs_restrict_to_the_elastic_resume_grid(self, spec):
        numeric = spec.replace(meta=False)
        controller = ReplanController(numeric)
        assert controller.elastic_only
        for candidate in controller.alternatives(numeric):
            assert candidate.tp_size == numeric.tp_size
            assert candidate.fsdp_size == numeric.fsdp_size
            assert candidate.recompute == numeric.recompute
            assert candidate.observations == numeric.observations

    def test_meta_specs_may_take_any_legal_plan(self, controller, spec):
        labels = {c.label() for c in controller.alternatives(spec)}
        assert "tp2.f4.d2.mb4+pf" in labels
        assert candidate_of(spec).label() not in labels
