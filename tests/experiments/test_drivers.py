"""Smoke tests for the experiment drivers (tiny budgets).

The benchmarks exercise the drivers at full budget; these keep them
covered by the plain test suite with seconds-scale settings.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.data.grid import LatLonGrid
from repro.experiments import (
    fig5_max_model_size,
    fig6_parallelism_config,
    fig7_strong_scaling,
    fig8_pretraining_loss,
    fig9_wacc,
    fig10_data_efficiency,
    table1_optimizations,
)
from repro.experiments.common import format_params, format_seconds, format_table
from repro.memory.estimator import Parallelism

RESULTS = Path(__file__).resolve().parents[2] / "results"


class TestCommon:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    @pytest.mark.parametrize(
        "value,expected", [(143e9, "143.0B"), (115e6, "115M"), (42, "42")]
    )
    def test_format_params(self, value, expected):
        assert format_params(value) == expected

    def test_format_seconds(self):
        assert format_seconds(0.97) == "0.97"
        assert format_seconds(3e-3) == "3e-03"


class TestAnalyticDrivers:
    def test_fig5_small(self):
        result = fig5_max_model_size.run(gpu_counts=(1, 8))
        assert result.at(Parallelism.HYBRID_STOP, 8) > result.at(Parallelism.HYBRID_STOP, 1)
        assert "Fig 5" in result.format()

    def test_table1_rows(self):
        result = table1_optimizations.run()
        assert [r.name for r in result.rows] == ["none", "+wrap", "+bf16", "+prefetch", "+ckpt"]
        assert "Table I" in result.format()

    def test_fig6_fastest_accessor(self):
        result = fig6_parallelism_config.run(tp_sizes=(8, 64))
        assert result.fastest().tp_size == 8
        with pytest.raises(KeyError):
            result.row_for(3)

    def test_fig7_structure(self):
        result = fig7_strong_scaling.run(channels=48, gpu_counts=(512, 1024))
        assert result.efficiency_at("orbit-113b", 512) == pytest.approx(1.0)
        assert "orbit-10b" in result.points

    @pytest.mark.parametrize("filename, driver, kwargs", [
        ("fig5.txt", fig5_max_model_size, {}),
        ("table1.txt", table1_optimizations, {}),
        ("fig6.txt", fig6_parallelism_config, {}),
        ("fig7_48ch.txt", fig7_strong_scaling, {"channels": 48}),
        ("fig7_91ch.txt", fig7_strong_scaling, {"channels": 91}),
    ])
    def test_tables_match_committed_results(self, filename, driver, kwargs):
        """``repro all`` writes ``run().format() + "\\n"``; byte for byte
        the committed results/ file."""
        expected = (RESULTS / filename).read_text()
        assert driver.run(**kwargs).format() + "\n" == expected


class TestTrainingDrivers:
    GRID = LatLonGrid(8, 16)

    def test_fig8_smoke(self):
        result = fig8_pretraining_loss.run(
            num_steps=3, grid=self.GRID, num_vars=4, patch_size=4,
            years_per_source=0.01,
        )
        assert len(result.histories) == 4
        for history in result.histories.values():
            assert len(history) == 3
        assert "Fig 8" in result.format()

    def test_fig9_smoke(self):
        result = fig9_wacc.run(
            grid=self.GRID,
            pretrain_steps=2,
            finetune_steps=2,
            steps_per_year=130,
            num_initializations=1,
        )
        assert set(result.wacc) >= {"ORBIT (pretrained)", "persistence", "climatology"}
        for leads in result.wacc.values():
            assert set(leads) == {1, 14, 30}
        assert "Fig 9" in result.format()

    def test_fig10_smoke(self):
        result = fig10_data_efficiency.run(
            grid=self.GRID,
            pretrain_steps=2,
            max_finetune_steps=4,
            eval_interval=2,
            steps_per_year=130,
        )
        assert len(result.samples) == 3
        assert all(s > 0 for s in result.samples.values())
        assert "Fig 10" in result.format()
