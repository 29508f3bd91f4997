"""FaultPlan: validation, serialization, seeded generation."""

import json
import math

import numpy as np
import pytest

from repro.cli import main
from repro.faults import (
    DEGRADATION_KINDS,
    FATAL_KINDS,
    NUMERICAL_KINDS,
    TRANSIENT_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
)


class TestFaultSpec:
    def test_kind_coerced_from_string(self):
        spec = FaultSpec(kind="gpu_crash", step=3, rank=2)
        assert spec.kind is FaultKind.GPU_CRASH

    def test_rejects_negative_step_and_rank(self):
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.GPU_CRASH, step=-1)
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.GPU_CRASH, step=0, rank=-2)

    def test_degradation_needs_slowdown_factor(self):
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.STRAGGLER, step=0, factor=1.0)
        spec = FaultSpec(kind=FaultKind.STRAGGLER, step=0, factor=2.5)
        assert spec.factor == 2.5

    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.LINK_DEGRADE, step=0, factor=2.0,
                      duration_steps=0)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf, "2"])
    def test_rejects_non_finite_factor(self, factor):
        # NaN used to pass ``factor <= 1.0`` and die later in the run.
        with pytest.raises(ValueError, match="factor"):
            FaultSpec(kind=FaultKind.STRAGGLER, step=0, factor=factor)
        with pytest.raises(ValueError, match="factor"):
            FaultSpec(kind=FaultKind.GPU_CRASH, step=0, factor=factor)

    @pytest.mark.parametrize("field", ["step", "rank", "duration_steps"])
    @pytest.mark.parametrize("value", [1.5, 1.0, True, "1", None])
    def test_rejects_non_integral_fields(self, field, value):
        # ``step: 1.5`` never fired; ``rank: true`` fired on rank 1.
        with pytest.raises(ValueError, match=field):
            FaultSpec(**{"kind": FaultKind.LINK_DEGRADE, "step": 0,
                         "factor": 2.0, field: value})

    def test_numpy_integers_and_floats_pass(self):
        spec = FaultSpec(kind=FaultKind.STRAGGLER, step=np.int64(2),
                         rank=np.int32(3), factor=np.float64(2.0),
                         duration_steps=np.uint8(4))
        assert (spec.step, spec.rank, spec.duration_steps) == (2, 3, 4)
        assert spec == FaultSpec(kind="straggler", step=2, rank=3,
                                 factor=2.0, duration_steps=4)

    def test_classification_covers_every_kind(self):
        classes = (TRANSIENT_KINDS, FATAL_KINDS, DEGRADATION_KINDS, NUMERICAL_KINDS)
        assert sum(map(len, classes)) == len(FaultKind)
        assert frozenset().union(*classes) == set(FaultKind)


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(faults=(
            FaultSpec(kind="collective_timeout", step=1, rank=3, op="all_gather"),
            FaultSpec(kind="link_degrade", step=2, rank=1, factor=3.0,
                      duration_steps=2),
            FaultSpec(kind="gpu_crash", step=3, rank=5),
        ), seed=11)
        path = plan.to_json(tmp_path / "plan.json")
        restored = FaultPlan.from_json(path)
        assert restored == plan

    @pytest.mark.parametrize("command", ["faults", "monitor", "replan"])
    @pytest.mark.parametrize("entry", [
        '{"kind": "straggler", "step": 1, "factor": NaN}',
        '{"kind": "gpu_crash", "step": 1.5}',
        '{"kind": "gpu_crash", "step": 1, "rank": true}',
    ])
    def test_cli_rejects_a_malformed_plan(self, tmp_path, capsys, command,
                                          entry):
        path = tmp_path / "plan.json"
        path.write_text('{"schema": 1, "seed": 0, "faults": [%s]}' % entry)
        json.loads(path.read_text())  # well-formed JSON, bad plan
        assert main([command, "--plan", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"repro {command}: invalid plan:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["faults", "monitor", "replan"])
    @pytest.mark.parametrize("text, complaint", [
        ('{"schema": 1, "faults": [{"kind": "gpu_crash", "step": 1, "bogus": 1}]}',
         "faults[0] has unknown field 'bogus'"),
        ('[{"kind": "gpu_crash", "step": 1}]',
         "expected a JSON object, found list"),
        ('{"schema": 1, "faults": 5}', "'faults' is not a list"),
    ], ids=["unknown-field", "top-level-list", "faults-not-a-list"])
    def test_cli_rejects_a_plan_of_the_wrong_shape(self, tmp_path, capsys,
                                                   command, text, complaint):
        path = tmp_path / "plan.json"
        path.write_text(text)
        assert main([command, "--plan", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro {command}: invalid plan: fault plan {path}: {complaint}\n")

    def test_dict_entries_coerced(self):
        plan = FaultPlan(faults=(
            {"kind": "gpu_crash", "step": 2, "rank": 1},
        ))
        assert plan.faults[0].kind is FaultKind.GPU_CRASH

    def test_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            FaultPlan.from_dict({"schema": 99, "faults": []})

    def test_faults_at_and_max_rank(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="gpu_crash", step=2, rank=7),
            FaultSpec(kind="grad_corruption", step=2, rank=0),
            FaultSpec(kind="collective_timeout", step=4, rank=3),
        ))
        assert plan.max_rank() == 7

    def test_seeded_random_is_deterministic(self):
        a = FaultPlan.random(7, num_steps=10, world_size=16, count=5)
        b = FaultPlan.random(7, num_steps=10, world_size=16, count=5)
        assert a == b
        assert len(a) == 5
        assert all(f.step < 10 and f.rank < 16 for f in a.faults)
        c = FaultPlan.random(8, num_steps=10, world_size=16, count=5)
        assert c != a

    def test_seeded_random_names_a_negative_count(self):
        with pytest.raises(ValueError, match=r"^count -2 must be non-negative$"):
            FaultPlan.random(7, num_steps=10, world_size=16, count=-2)
