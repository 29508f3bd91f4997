"""Rank-class partitions over the tuner's search space.

For every legal candidate the tuner can enumerate, the symmetry
partition must tile the world exactly: class sizes multiply out to
``num_gpus``, per-class rank lists are disjoint and exhaustive, and
each representative belongs to (and classifies into) its own class.
This welds the folding layer to the same legality surface the tuner
and the RunSpec validate against.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.symmetry import RankClassPartition
from repro.models.configs import OrbitConfig
from repro.tune.space import TuneRequest, enumerate_space


def _config():
    return OrbitConfig(
        name="space-tiny", embed_dim=64, depth=1, num_heads=4,
        in_vars=3, out_vars=3, img_height=32, img_width=64,
        patch_size=8, mlp_ratio=4.0, qk_layernorm=False,
    )


def _candidates(num_gpus):
    request = TuneRequest(config=_config(), num_gpus=num_gpus,
                          micro_batches=(1,))
    return enumerate_space(request).candidates


class TestPartitionTilesTheWorld:
    @given(num_gpus=st.sampled_from([8, 16, 24, 32]))
    @settings(max_examples=4, deadline=None)
    def test_every_legal_candidate_partitions_exactly(self, num_gpus):
        candidates = _candidates(num_gpus)
        assert candidates, "search space unexpectedly empty"
        for cand in candidates:
            partition = RankClassPartition(
                cand.tp_size, cand.fsdp_size, cand.ddp_size,
                tp_innermost=cand.tp_innermost,
            )
            assert partition.num_gpus == num_gpus

            # Class sizes sum (multiply out) to the world size.
            sizes = [partition.size(key) for key in partition.keys]
            assert sum(sizes) == num_gpus
            assert all(size >= 1 for size in sizes)

            # Member lists are disjoint and exhaustive.
            seen: set[int] = set()
            for key in partition.keys:
                members = partition.members(key)
                assert len(members) == partition.size(key)
                assert not (seen & set(members)), f"overlap in {key}"
                seen.update(members)
                # Every member classifies back into its class, and the
                # representative is one of them.
                assert all(partition.class_of(r) == key for r in members)
                assert partition.representative(key) in members
            assert seen == set(range(num_gpus))

    def test_class_count_matches_the_fsdp_split(self):
        # F > 1 splits each tensor-parallel column into lead/non-lead.
        assert len(RankClassPartition(4, 2, 2).keys) == 8
        assert len(RankClassPartition(4, 1, 4).keys) == 4

    def test_rank_roundtrip_under_both_layouts(self):
        for tp_innermost in (True, False):
            partition = RankClassPartition(2, 4, 2,
                                           tp_innermost=tp_innermost)
            for rank in range(partition.num_gpus):
                d, f, k = partition.coords(rank)
                assert partition.rank(0, d, f, k) == rank
