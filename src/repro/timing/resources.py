"""Structural-resource trackers for the out-of-order timing model.

Three small trackers capture every structural constraint the model applies:

* :class:`FunctionalUnitPool` — a set of identical units; an instruction
  occupies one unit for ``occupancy`` cycles (vector instructions occupy it
  for ``ceil(VL / lanes)`` cycles).
* :class:`BandwidthLimiter` — at most ``width`` events per cycle (used for
  the issue stage, whose selections are not program-ordered).
* :class:`SlotPool` — a pool of slots held by in-flight instructions
  (issue-queue entries, rename head-room of a physical register file); a
  slot is freed when its holder reaches a known future time.

These classes are the *reference* implementations: the object-level
``OutOfOrderCore.run()`` loop builds one set per run.  The lowered backend
(:meth:`~repro.timing.core.OutOfOrderCore.run_lowered`) and the vector
backend (:mod:`repro.timing.vector`) inline the same semantics as lists,
heaps and arrays local to their loops, sized from
:func:`~repro.timing.core.resource_counts` — any behavioural change here
must be mirrored there, and is pinned by the golden snapshots plus the
equivalence suites in ``tests/timing/test_lowered.py`` and
``tests/timing/test_vector.py``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List

__all__ = ["FunctionalUnitPool", "BandwidthLimiter", "SlotPool"]


class FunctionalUnitPool:
    """A pool of identical functional units with per-cycle occupancy.

    Out-of-order issue means a late-arriving (program-order) instruction may
    use a unit in a cycle that an earlier instruction left idle, so the pool
    tracks how many units are busy in *each cycle* rather than a per-unit
    "next free" horizon.  An instruction occupies one unit for ``occupancy``
    consecutive cycles (vector/matrix instructions and non-pipelined
    operations have occupancy > 1).
    """

    def __init__(self, name: str, count: int) -> None:
        if count < 1:
            raise ValueError(f"functional unit pool {name!r} needs >= 1 unit")
        self.name = name
        self.count = count
        self._busy: Dict[int, int] = {}

    def find_start(self, ready: int, occupancy: int) -> int:
        """Earliest start cycle >= ``ready`` with a unit free for the whole
        occupancy window (without reserving it)."""
        busy_get = self._busy.get
        count = self.count
        if occupancy <= 1:
            # Single-cycle occupancy (the overwhelmingly common case in
            # scalar/MMX/MDMX traces): a plain forward scan.
            start = ready
            while busy_get(start, 0) >= count:
                start += 1
            return start
        start = ready
        while True:
            conflict = -1
            for cycle in range(start, start + occupancy):
                if busy_get(cycle, 0) >= count:
                    conflict = cycle
                    break
            if conflict < 0:
                return start
            start = conflict + 1

    def reserve(self, start: int, occupancy: int) -> None:
        """Mark one unit busy for ``occupancy`` cycles starting at ``start``."""
        occupancy = max(1, occupancy)
        busy = self._busy
        busy_get = busy.get
        for cycle in range(start, start + occupancy):
            busy[cycle] = busy_get(cycle, 0) + 1


class BandwidthLimiter:
    """At most ``width`` events per cycle.

    Used for issue bandwidth; rename and commit bandwidth are in-order and
    handled directly in the core with the ``i - width`` recurrence.
    """

    def __init__(self, width: int) -> None:
        if width < 1:
            raise ValueError("bandwidth must be >= 1")
        self.width = width
        self._used: Dict[int, int] = {}

    def next_slot(self, earliest: int) -> int:
        """Find and reserve the first cycle >= ``earliest`` with a free slot."""
        used = self._used
        used_get = used.get
        width = self.width
        cycle = earliest
        while used_get(cycle, 0) >= width:
            cycle += 1
        used[cycle] = used_get(cycle, 0) + 1
        return cycle

    def probe(self, earliest: int) -> int:
        """First cycle >= ``earliest`` with a free slot, without reserving."""
        used_get = self._used.get
        width = self.width
        cycle = earliest
        while used_get(cycle, 0) >= width:
            cycle += 1
        return cycle


class SlotPool:
    """A pool of ``capacity`` slots held by in-flight instructions.

    ``acquire(candidate, release_time_unknown)`` is split into two calls in
    the core: :meth:`constrain` returns the earliest time a slot is free
    given the candidate time, and :meth:`occupy` records the new occupant's
    (already known or later back-patched) release time.
    """

    def __init__(self, name: str, capacity: int) -> None:
        self.name = name
        self.capacity = max(0, capacity)
        # Min-heap of occupant release times: eviction pops the earliest
        # leavers in O(log n) instead of rebuilding a list per query.
        self._release_times: List[int] = []

    def constrain(self, candidate: int) -> int:
        """Earliest time >= ``candidate`` at which a slot is available.

        Occupants whose release time is <= the candidate are evicted; if the
        pool is still full the candidate is pushed to the earliest release
        (whose occupant then leaves, freeing the slot the caller takes).
        """
        if self.capacity == 0:
            return candidate
        heap = self._release_times
        # Drop occupants that have already left by the candidate time.
        while heap and heap[0] <= candidate:
            heappop(heap)
        if len(heap) < self.capacity:
            return candidate
        earliest = heappop(heap)
        return max(candidate, earliest)

    def occupy(self, release_time: int) -> None:
        """Record a new occupant that will release its slot at ``release_time``."""
        if self.capacity == 0:
            return
        heappush(self._release_times, release_time)
