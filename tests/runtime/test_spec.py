"""RunSpec: validation, derivation, and the policy-metadata schema."""

import pytest

from repro.models.configs import ORBIT_115M, OrbitConfig
from repro.runtime import (
    RunSpec,
    RunSpecError,
    engine_legality_reason,
    grid_rank,
    policy_field_names,
    tp_group_spans_nodes,
)

TINY = OrbitConfig("tiny", embed_dim=16, depth=2, num_heads=4, in_vars=3,
                   out_vars=2, img_height=8, img_width=8, patch_size=4)


class TestValidation:
    def test_valid_spec_constructs(self):
        spec = RunSpec(config=TINY, num_gpus=16, tp_size=4, fsdp_size=2, ddp_size=2)
        assert spec.observations == 4
        assert spec.nodes == 2

    def test_product_mismatch_raises(self):
        with pytest.raises(RunSpecError, match="invalid topology"):
            RunSpec(config=TINY, num_gpus=16, tp_size=3, fsdp_size=2, ddp_size=2)

    def test_ragged_node_shape_raises(self):
        with pytest.raises(RunSpecError, match="whole number"):
            RunSpec(config=TINY, num_gpus=12, gpus_per_node=8,
                    tp_size=2, fsdp_size=3, ddp_size=2)

    def test_non_positive_steps_raises(self):
        with pytest.raises(RunSpecError, match="num_steps"):
            RunSpec(config=TINY, num_gpus=8, tp_size=2, fsdp_size=2,
                    ddp_size=2, num_steps=0)

    def test_every_problem_reported_at_once(self):
        with pytest.raises(RunSpecError) as excinfo:
            RunSpec(config=TINY, num_gpus=16, tp_size=3, fsdp_size=2,
                    ddp_size=2, micro_batch=0, num_steps=0)
        message = str(excinfo.value)
        assert "invalid topology" in message
        assert "micro_batch" in message
        assert "num_steps" in message

    def test_derived_ddp_size(self):
        spec = RunSpec(config=TINY, num_gpus=16, tp_size=4, fsdp_size=2,
                       ddp_size=None)
        assert spec.ddp_size == 2

    def test_derived_ddp_size_non_divisible_raises(self):
        with pytest.raises(RunSpecError, match="does not divide"):
            RunSpec(config=TINY, num_gpus=16, tp_size=3, fsdp_size=2,
                    ddp_size=None)

    @pytest.mark.parametrize("skew, problem", [
        ({16: 2.0}, "rank 16: outside [0, 16)"),
        ({-1: 2.0}, "rank -1: outside [0, 16)"),
        ({3: 0.0}, "factor 0.0 for rank 3"),
        ({3: -1.0}, "factor -1.0 for rank 3"),
        ({3: float("nan")}, "factor nan for rank 3"),
        ({3: float("inf")}, "factor inf for rank 3"),
    ])
    def test_compute_skew_validated(self, skew, problem):
        with pytest.raises(RunSpecError, match="invalid compute_skew") as excinfo:
            RunSpec(config=TINY, num_gpus=16, tp_size=4, fsdp_size=2,
                    ddp_size=2, compute_skew=skew)
        assert problem in str(excinfo.value)

    def test_replace_revalidates(self):
        spec = RunSpec(config=TINY, num_gpus=16, tp_size=4, fsdp_size=2, ddp_size=2)
        with pytest.raises(RunSpecError):
            spec.replace(num_gpus=24)


class TestPolicyMetadata:
    def test_policy_fields_are_the_knobs(self):
        assert policy_field_names() == {
            "prefetch", "recompute", "tp_innermost", "layer_wrapping", "bf16",
            "fold", "monitor", "replan",
            "serve_max_batch", "serve_window_s", "serve_queue_limit",
            "serve_cache_entries", "serve_min_replicas", "serve_max_replicas",
        }

    def test_policy_fields_do_not_change_identity(self):
        base = RunSpec(config=TINY, num_gpus=16, tp_size=4, fsdp_size=2, ddp_size=2)
        flipped = base.replace(prefetch=False, recompute=True, bf16=True)
        base_id, flipped_id = base.identity(), flipped.identity()
        # tp_innermost changes rank placement, so it IS part of identity;
        # every other policy knob must not be.
        assert base_id == flipped_id


class TestLegality:
    def test_rank_layouts_differ(self):
        inner = grid_rank(0, 1, 0, fsdp_size=2, tp_size=2, tp_innermost=True)
        outer = grid_rank(0, 1, 0, fsdp_size=2, tp_size=2, tp_innermost=False)
        assert inner != outer

    def test_tp_group_spanning_nodes_detected(self):
        assert tp_group_spans_nodes(16, 1, 1, True, gpus_per_node=8)
        assert not tp_group_spans_nodes(8, 2, 1, True, gpus_per_node=8)

    def test_engine_legality_matches_tune_space(self):
        from repro.tune.space import TuneRequest, enumerate_space

        request = TuneRequest(config=ORBIT_115M, num_gpus=16, gpus_per_node=8)
        space = enumerate_space(request)
        for rejection in space.rejections:
            assert engine_legality_reason(
                ORBIT_115M, rejection.tp_size, rejection.fsdp_size,
                rejection.ddp_size, tp_innermost=rejection.tp_innermost,
                gpus_per_node=8,
            ) == rejection.reason

    def test_spec_legality_reason(self):
        spec = RunSpec(config=ORBIT_115M, num_gpus=32, tp_size=16,
                       fsdp_size=2, ddp_size=1, gpus_per_node=8)
        assert "spans node boundaries" in spec.legality_reason()

    def test_training_setup_bridge(self):
        spec = RunSpec(config=ORBIT_115M, num_gpus=16, tp_size=4, fsdp_size=2,
                       ddp_size=2, micro_batch=3, bf16=True, recompute=True)
        setup = spec.training_setup()
        assert setup.tp_size == 4
        assert setup.fsdp_size == 2
        assert setup.micro_batch == 3
        assert setup.bf16 is True
        assert setup.activation_checkpointing is True
