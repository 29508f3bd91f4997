"""Tests for the per-device memory tracker and simulated OOM."""

import pytest

from repro.memory import MemoryTracker, OutOfDeviceMemoryError


class TestAllocateFree:
    def test_current_and_peak(self):
        tracker = MemoryTracker(1000)
        a = tracker.allocate(400, "params")
        b = tracker.allocate(300, "activations")
        assert tracker.current_bytes == 700
        assert tracker.peak_bytes == 700
        tracker.free(a)
        assert tracker.current_bytes == 300
        assert tracker.peak_bytes == 700
        tracker.free(b)
        assert tracker.current_bytes == 0
        assert tracker.live_allocations == 0

    def test_peak_tracks_interleaved_lifetimes(self):
        tracker = MemoryTracker(None)
        a = tracker.allocate(100)
        tracker.free(a)
        b = tracker.allocate(60)
        c = tracker.allocate(30)
        assert tracker.peak_bytes == 100  # first allocation was the high-water mark
        tracker.free(b)
        tracker.free(c)

    def test_double_free_raises(self):
        tracker = MemoryTracker(None)
        a = tracker.allocate(10)
        tracker.free(a)
        with pytest.raises(KeyError):
            tracker.free(a)

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            MemoryTracker(None).allocate(-1)

    def test_zero_byte_allocation_ok(self):
        tracker = MemoryTracker(0)
        a = tracker.allocate(0)
        tracker.free(a)


class TestOOM:
    def test_oom_raised_at_capacity(self):
        tracker = MemoryTracker(100, name="gpu3")
        tracker.allocate(80)
        with pytest.raises(OutOfDeviceMemoryError) as excinfo:
            tracker.allocate(21)
        assert excinfo.value.device == "gpu3"
        assert excinfo.value.requested == 21
        assert excinfo.value.in_use == 80

    def test_exact_fit_allowed(self):
        tracker = MemoryTracker(100)
        tracker.allocate(100)
        assert tracker.current_bytes == 100

    def test_unlimited_tracker_never_ooms(self):
        tracker = MemoryTracker(None)
        tracker.allocate(10**18)

    def test_failed_allocation_does_not_leak(self):
        tracker = MemoryTracker(100)
        tracker.allocate(90)
        with pytest.raises(OutOfDeviceMemoryError):
            tracker.allocate(50)
        assert tracker.current_bytes == 90
        assert tracker.live_allocations == 1


class TestCategories:
    def test_category_peaks_are_independent(self):
        tracker = MemoryTracker(None)
        p = tracker.allocate(100, "params.layer0")
        tracker.allocate(50, "activations")
        tracker.free(p)
        tracker.allocate(30, "params.layer1")
        assert tracker.category_peak("params") == 100
        assert tracker.category_current("params") == 30
        assert tracker.category_peak("activations") == 50

    def test_breakdown_omits_zero(self):
        tracker = MemoryTracker(None)
        a = tracker.allocate(10, "x")
        tracker.allocate(20, "y")
        tracker.free(a)
        assert tracker.breakdown() == {"y": 20}


class TestScopedAndReset:
    def test_scoped_frees_on_exit(self):
        tracker = MemoryTracker(None)
        with tracker.scoped(64, "gathered"):
            assert tracker.current_bytes == 64
        assert tracker.current_bytes == 0
        assert tracker.peak_bytes == 64

    def test_scoped_frees_on_exception(self):
        tracker = MemoryTracker(None)
        with pytest.raises(RuntimeError):
            with tracker.scoped(64):
                raise RuntimeError("boom")
        assert tracker.current_bytes == 0

    def test_reset_peak(self):
        tracker = MemoryTracker(None)
        a = tracker.allocate(100)
        tracker.free(a)
        tracker.allocate(10)
        tracker.reset_peak()
        assert tracker.peak_bytes == 10

    def test_free_all(self):
        tracker = MemoryTracker(None)
        tracker.allocate(10, "a")
        tracker.allocate(20, "b")
        tracker.free_all()
        assert tracker.current_bytes == 0
        assert tracker.live_allocations == 0
        assert tracker.breakdown() == {}


class TestRise:
    @staticmethod
    def _block(tracker):
        """Transient work over 10 live bytes: 30 gathered, then 5 scratch."""
        with tracker.scoped(30, "gathered"):
            pass
        with tracker.scoped(5, "scratch"):
            pass

    def _state(self, tracker):
        return (tracker.peak_bytes, tracker.category_peak("gathered"),
                tracker.category_peak("scratch"), tracker.category_peak("params"),
                tracker.current_bytes, tracker.live_allocations)

    def test_a_raise_is_the_block_it_measured(self):
        """A tracker raised by the rise ends where running the block again
        leaves it, with nothing allocated; an older, higher peak stays."""
        measured, executed, raised = (MemoryTracker(None) for _ in range(3))
        for tracker in (measured, executed, raised):
            tracker.free(tracker.allocate(100, "params"))
            tracker.allocate(10, "params")
        rise = measured.end_rise(measured.begin_rise())
        assert rise.total == 0 and rise.by_tag == ()
        start = measured.begin_rise()
        self._block(measured)
        rise = measured.end_rise(start)
        assert (rise.total, dict(rise.by_tag)) == (30, {"gathered": 30, "scratch": 5})
        self._block(executed)
        raised.raise_peaks(rise)
        assert self._state(measured) == self._state(executed) == self._state(raised)
        assert raised.peak_bytes == 100  # the older peak

    def test_a_rise_from_a_new_tracker_starts_at_zero(self):
        tracker = MemoryTracker(None)
        tracker.allocate(10, "params")
        self._block(tracker)
        rise = tracker.end_rise(None)
        assert (rise.total, dict(rise.by_tag)) == (40, {"params": 10, "gathered": 30,
                                                        "scratch": 5})
