"""MigrationCostModel: validation, totals, and ledger-priced history."""

import pytest

from repro.faults import GoodputLedger
from repro.replan import MigrationCostModel


class TestModel:
    def test_total_is_the_sum_of_components(self):
        model = MigrationCostModel(checkpoint_s=0.2, rebuild_s=1.0,
                                   warmup_s=0.3)
        assert model.total_s == pytest.approx(1.5)

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            MigrationCostModel(checkpoint_s=-0.1, rebuild_s=1.0)

    @pytest.mark.parametrize("bad", [
        dict(checkpoint_s=float("nan")),
        dict(rebuild_s=float("inf")),
        dict(warmup_s=float("nan")),
    ])
    def test_non_finite_components_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            MigrationCostModel(**{"checkpoint_s": 0.1, "rebuild_s": 1.0, **bad})

    def test_as_dict_includes_total(self):
        model = MigrationCostModel(checkpoint_s=0.25, rebuild_s=2.0)
        assert model.as_dict() == {
            "checkpoint_s": 0.25, "rebuild_s": 2.0, "warmup_s": 0.0,
            "total_s": 2.25,
        }


class TestFromLedger:
    def test_configured_charges_without_history(self):
        model = MigrationCostModel.from_ledger(
            GoodputLedger(), checkpoint_cost_s=0.25, restart_latency_s=2.0,
            warmup_s=0.1,
        )
        assert model.checkpoint_s == pytest.approx(0.25)
        assert model.rebuild_s == pytest.approx(2.0)
        assert model.warmup_s == pytest.approx(0.1)

    def test_realized_averages_beat_configured_constants(self):
        ledger = GoodputLedger()
        ledger.commit_step(0, 1.0)
        ledger.checkpoint(0.4)
        ledger.checkpoint(0.6)
        ledger.restart(3.0)
        model = MigrationCostModel.from_ledger(
            ledger, checkpoint_cost_s=0.25, restart_latency_s=2.0
        )
        # Averages of what the run actually paid, not the configuration.
        assert model.checkpoint_s == pytest.approx(0.5)
        assert model.rebuild_s == pytest.approx(3.0)
