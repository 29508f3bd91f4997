"""Tests for the tuner's configuration-space enumeration."""

import pytest

from repro.models.configs import ORBIT_115M, ORBIT_1B
from repro.tune import Candidate, TuneRequest, enumerate_space


def _request(**overrides):
    defaults = dict(
        config=ORBIT_115M, num_gpus=16, gpus_per_node=8,
        micro_batches=(2,), recompute_options=(False,),
        prefetch_options=(True,),
    )
    defaults.update(overrides)
    return TuneRequest(**defaults)


class TestCandidate:
    def test_world_size_and_observations(self):
        cand = Candidate(tp_size=4, fsdp_size=2, ddp_size=2, micro_batch=3)
        assert cand.world_size == 16
        assert cand.observations == 12

    def test_label_encodes_policies(self):
        cand = Candidate(4, 2, 2, 2, recompute=True, prefetch=True,
                         tp_innermost=False)
        assert cand.label() == "tp4.f2.d2.mb2+ckpt+pf+fsdp-inner"
        plain = Candidate(1, 16, 1, 1, recompute=False, prefetch=False)
        assert plain.label() == "tp1.f16.d1.mb1"


class TestTuneRequest:
    def test_rejects_partial_nodes(self):
        with pytest.raises(ValueError, match="whole number"):
            _request(num_gpus=12)

    def test_rejects_empty_micro_batches(self):
        with pytest.raises(ValueError):
            _request(micro_batches=())

    def test_keys_identify_model_and_machine(self):
        request = _request()
        assert request.topology_key() == "g16x8"
        assert "orbit-115m" in request.config.key()
        assert request.config.key() != ORBIT_1B.key()


class TestEnumeration:
    def test_every_candidate_factorizes_the_world(self):
        space = enumerate_space(_request())
        assert space.candidates
        for cand in space.candidates:
            assert cand.world_size == 16

    def test_policy_axes_multiply_candidates(self):
        base = len(enumerate_space(_request()).candidates)
        swept = len(enumerate_space(_request(
            micro_batches=(1, 2), recompute_options=(False, True),
        )).candidates)
        assert swept == 4 * base

    def test_node_spanning_tp_rejected_in_engine_mode(self):
        space = enumerate_space(_request())
        assert all(c.tp_size <= 8 for c in space.candidates)
        reasons = space.rejection_reasons()
        assert any("spans node boundaries" in r for r in reasons)

    def test_relaxed_mode_admits_node_spanning_tp(self):
        space = enumerate_space(_request(engine_mode=False))
        assert any(c.tp_size == 16 for c in space.candidates)

    def test_qk_layernorm_blocks_subhead_sharding_in_engine_mode(self):
        # ORBIT-115M has 16 heads; tp 32 needs sub-head sharding, which
        # the engine cannot combine with qk layer-norm.
        space = enumerate_space(_request(num_gpus=64, tp_sizes=(32,)))
        assert not space.candidates
        assert any("qk_layernorm" in r.reason for r in space.rejections)
        relaxed = enumerate_space(_request(
            num_gpus=64, tp_sizes=(32,), engine_mode=False,
        ))
        assert relaxed.candidates

    def test_non_dividing_tp_recorded(self):
        space = enumerate_space(_request(tp_sizes=(3,)))
        assert not space.candidates
        assert any("does not divide world size" in r.reason
                   for r in space.rejections)

    def test_alternate_layout_only_when_meaningful(self):
        space = enumerate_space(_request())
        layouts = {
            (c.tp_size, c.fsdp_size, c.ddp_size, c.tp_innermost)
            for c in space.candidates
        }
        # tp=1 or fsdp=1 factorizations appear only in the default layout.
        for tp, fsdp, ddp, tp_innermost in layouts:
            if tp == 1 or fsdp == 1:
                assert tp_innermost
        # Both-nontrivial factorizations appear in both layouts unless
        # the alternate one was rejected for spanning nodes.
        assert (4, 2, 2, True) in layouts

    def test_rejections_name_the_layout(self):
        space = enumerate_space(_request())
        flipped = [r for r in space.rejections if not r.tp_innermost]
        assert flipped
        assert all("fsdp-innermost" in r.reason for r in flipped)
