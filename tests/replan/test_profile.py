"""DegradationProfile: canonicalization, keys, the injector channel."""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.replan import DegradationProfile


class TestCanonicalization:
    def test_max_factor_per_rank_sorted(self):
        profile = DegradationProfile(
            compute=((3, 2.0), (1, 4.0), (3, 6.0)), links=((2, 1.5),)
        )
        assert profile.compute == ((1, 4.0), (3, 6.0))
        assert profile.links == ((2, 1.5),)

    def test_unit_and_sub_unit_factors_dropped(self):
        profile = DegradationProfile(compute=((0, 1.0), (1, 0.5), (2, 2.0)))
        assert profile.compute == ((2, 2.0),)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="remaining_steps"):
            DegradationProfile(remaining_steps=-1)


class TestKey:
    def test_clean_profile_has_empty_key(self):
        assert DegradationProfile().is_clean
        assert DegradationProfile().key() == ""
        # The historical cache-key shape: clean contributes nothing.
        assert DegradationProfile(compute=((0, 1.0),)).key() == ""

    def test_key_is_canonical(self):
        a = DegradationProfile(compute=((0, 2.0), (3, 4.0)), remaining_steps=5)
        b = DegradationProfile(compute=((3, 4.0), (0, 2.0), (0, 1.5)),
                               remaining_steps=5)
        assert a.key() == b.key() == "c0x2,c3x4,w5"

    def test_key_covers_every_axis(self):
        profile = DegradationProfile(
            compute=((0, 2.0),), links=((1, 3.0),), remaining_steps=2,
        )
        assert profile.key() == "c0x2,l1x3,w2"


class TestFromInjector:
    PLAN = FaultPlan((
        FaultSpec(step=1, rank=2, kind=FaultKind.STRAGGLER,
                  factor=2.5, duration_steps=3),
        FaultSpec(step=2, rank=1, kind=FaultKind.LINK_DEGRADE,
                  factor=3.0, duration_steps=2),
    ))

    def drive(self, through_step):
        """Degradations fire lazily, on the first in-window event that
        touches the target rank — mimic a step's compute + comm."""
        injector = FaultInjector(self.PLAN, gpus_per_node=8)
        for step in range(through_step + 1):
            injector.begin_step(step)
            for rank in range(4):
                injector.before_compute(rank, 1.0, "block")
            injector.before_comm(tuple(range(4)), 1.0, "all_gather")
        return injector

    def test_before_anything_fires_profile_is_clean(self):
        injector = self.drive(0)
        assert DegradationProfile.from_injector(injector, 1).is_clean

    def test_inside_the_windows(self):
        injector = self.drive(2)
        profile = DegradationProfile.from_injector(injector, 3)
        assert profile.compute == ((2, 2.5),)
        assert profile.links == ((1, 3.0),)
        # straggler window 1..3 has 1 step left at step 3; the link
        # window 2..3 also ends after step 3 — max window wins.
        assert profile.remaining_steps == 1

    def test_after_the_windows_profile_is_clean(self):
        injector = self.drive(4)
        assert DegradationProfile.from_injector(injector, 5).is_clean

