"""Tests for the structural-resource trackers of the timing model."""

from __future__ import annotations

import bisect
import random

import pytest
from hypothesis import given, strategies as st

from repro.timing.resources import BandwidthLimiter, FunctionalUnitPool, SlotPool


def _acquire(pool: FunctionalUnitPool, ready: int, occupancy: int) -> int:
    """Find and reserve the earliest start, as ``OutOfOrderCore.run`` does."""
    start = pool.find_start(ready, occupancy)
    pool.reserve(start, occupancy)
    return start


class TestFunctionalUnitPool:
    def test_single_unit_serialises(self):
        pool = FunctionalUnitPool("fu", 1)
        assert _acquire(pool, 0, 1) == 0
        assert _acquire(pool, 0, 1) == 1
        assert _acquire(pool, 0, 1) == 2

    def test_multiple_units_run_in_parallel(self):
        pool = FunctionalUnitPool("fu", 3)
        starts = [_acquire(pool, 5, 1) for _ in range(3)]
        assert starts == [5, 5, 5]
        assert _acquire(pool, 5, 1) == 6

    def test_occupancy_blocks_window(self):
        pool = FunctionalUnitPool("fu", 1)
        assert _acquire(pool, 0, 4) == 0
        assert _acquire(pool, 0, 1) == 4

    def test_backfill_of_idle_cycles(self):
        """A later-processed instruction may use an earlier idle cycle."""
        pool = FunctionalUnitPool("fu", 1)
        _acquire(pool, 10, 2)          # busy cycles 10-11
        assert _acquire(pool, 0, 1) == 0
        assert _acquire(pool, 9, 2) == 12  # cannot fit before the busy window

    def test_find_start_does_not_reserve(self):
        pool = FunctionalUnitPool("fu", 1)
        assert pool.find_start(3, 2) == 3
        assert pool.find_start(3, 2) == 3
        pool.reserve(3, 2)
        assert pool.find_start(3, 2) == 5

    def test_needs_at_least_one_unit(self):
        with pytest.raises(ValueError):
            FunctionalUnitPool("fu", 0)

    @given(requests=st.lists(
        st.tuples(st.integers(0, 50), st.integers(1, 8)), min_size=1, max_size=40),
        count=st.integers(1, 4))
    def test_never_oversubscribed(self, requests, count):
        pool = FunctionalUnitPool("fu", count)
        usage = {}
        for ready, occ in requests:
            start = _acquire(pool, ready, occ)
            assert start >= ready
            for cycle in range(start, start + occ):
                usage[cycle] = usage.get(cycle, 0) + 1
        assert all(v <= count for v in usage.values())


class TestBandwidthLimiter:
    def test_limits_events_per_cycle(self):
        bw = BandwidthLimiter(2)
        assert bw.next_slot(0) == 0
        assert bw.next_slot(0) == 0
        assert bw.next_slot(0) == 1

    def test_probe_does_not_reserve(self):
        bw = BandwidthLimiter(1)
        assert bw.probe(3) == 3
        assert bw.probe(3) == 3
        bw.next_slot(3)
        assert bw.probe(3) == 4

    def test_width_check(self):
        with pytest.raises(ValueError):
            BandwidthLimiter(0)

    @given(events=st.lists(st.integers(0, 30), min_size=1, max_size=60),
           width=st.integers(1, 4))
    def test_never_exceeds_width(self, events, width):
        bw = BandwidthLimiter(width)
        per_cycle = {}
        for earliest in events:
            cycle = bw.next_slot(earliest)
            assert cycle >= earliest
            per_cycle[cycle] = per_cycle.get(cycle, 0) + 1
        assert all(v <= width for v in per_cycle.values())


class TestSlotPool:
    def test_unlimited_when_capacity_zero(self):
        pool = SlotPool("p", 0)
        assert pool.constrain(5) == 5
        pool.occupy(100)
        assert pool.constrain(5) == 5

    def test_blocks_when_full(self):
        pool = SlotPool("p", 2)
        assert pool.constrain(0) == 0
        pool.occupy(10)
        assert pool.constrain(0) == 0
        pool.occupy(20)
        # both slots held until cycles 10 and 20; the next occupant waits for
        # the earlier release
        assert pool.constrain(0) == 10

    def test_released_slots_are_reused(self):
        pool = SlotPool("p", 1)
        pool.constrain(0)
        pool.occupy(5)
        assert pool.constrain(7) == 7  # released at 5 < 7

    def test_constrain_is_monotonic_in_candidate(self):
        pool = SlotPool("p", 1)
        pool.occupy(50)
        assert pool.constrain(60) == 60


def _kth_largest_bound(capacity, candidate, pushes):
    """The closed form the vector backend's issue queues use: a pool fed
    non-decreasing candidates bounds at the ``capacity``-th largest
    release pushed so far (``pushes`` is kept sorted)."""
    if capacity == 0 or len(pushes) < capacity:
        return candidate
    return max(candidate, pushes[-capacity])


@pytest.mark.parametrize("seed", range(6))
def test_slot_pool_bound_is_kth_largest_push(seed):
    """Every bound a pool returns equals "max(candidate, K-th largest of
    all pushes so far)" when each candidate is at least the previous
    bound, as rename times guarantee in the core.  Releases are arbitrary
    (also below the candidate) and spread with the capacity so every
    capacity binds; odd seeds round them to a coarse grid so ties are
    common."""
    rng = random.Random(seed)
    grain = 16 if seed % 2 else 1
    for capacity in range(0, 65):
        pool = SlotPool("q", capacity)
        pushes = []
        bound = 0
        for _ in range(200):
            candidate = bound + rng.choice((0, 0, 1, 2, rng.randint(0, 30)))
            expected = _kth_largest_bound(capacity, candidate, pushes)
            bound = pool.constrain(candidate)
            assert bound == expected, (capacity, candidate, pushes[-capacity:])
            spread = 12 * capacity + 20
            release = max(0, bound + rng.randint(-10, spread)) // grain * grain
            pool.occupy(release)
            bisect.insort(pushes, release)
