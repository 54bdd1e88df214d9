"""Interval-style out-of-order core model.

Instructions from a trace are processed in program order; for each one the
model computes

* ``rename`` time — bounded by in-order fetch/rename bandwidth, ROB space,
  issue-queue space in the instruction's domain and rename head-room of each
  destination register file;
* ``ready`` time — the dataflow constraint (all source registers ready);
* ``issue`` time — bounded by a free functional unit / memory port, issue
  bandwidth and the ready time;
* ``complete`` time — issue + execution latency + (occupancy - 1) for
  multi-cycle vector/matrix instructions;
* ``commit`` time — in-order, bounded by commit bandwidth.

This is the standard interval approximation of an out-of-order pipeline: it
captures dataflow ILP, structural hazards and the latency-hiding ability of
the instruction window without a cycle-by-cycle event loop, which keeps the
pure-Python model fast enough to sweep the paper's full parameter space.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Dict, Optional, Union

from repro.isa.opclasses import OpClass, RegFile
from repro.timing.config import MachineConfig
from repro.timing.lowered import REG_POOL_ORDER, LoweredTrace
from repro.timing.resources import BandwidthLimiter, FunctionalUnitPool, SlotPool
from repro.timing.results import SimResult
from repro.trace.container import Trace
from repro.trace.instruction import RegRef

__all__ = ["VL_RENAME_SLOTS", "OutOfOrderCore",
           "completion_latency", "occupancy_of", "simulate_trace"]

#: Rename slots of the vector-length register's tiny pool (it is never a
#: bottleneck, but the dependence handling stays uniform).  Shared by the
#: object loop, the lowered interpreter and the vector batch backend so
#: the three can never drift.
VL_RENAME_SLOTS = 8


# Domain names used for issue queues.
_DOMAIN_INT = "int"
_DOMAIN_MEM = "mem"
_DOMAIN_MEDIA = "media"


def _domain_of(opclass: OpClass) -> str:
    if opclass.is_memory:
        return _DOMAIN_MEM
    if opclass.is_media:
        return _DOMAIN_MEDIA
    return _DOMAIN_INT


def occupancy_of(config: MachineConfig, opclass: OpClass, vly: int,
                 non_pipelined: bool) -> int:
    """Cycles an instruction shape occupies its functional unit or port.

    Pure function of ``(config, shape)``; shared by the object loop, the
    lowered backend's per-shape resolution and the vector batch backend's
    per-(shape, config) tables, so the three can never drift apart.
    """
    if non_pipelined:
        # Non-pipelined matrix ops (transpose) hold the unit for their
        # whole latency.
        return config.latency_of(opclass)
    if opclass.is_memory:
        if vly > 1:
            return math.ceil(vly / config.mem_port_width)
        return 1
    if opclass.is_media and vly > 1:
        return math.ceil(vly / config.media_lanes)
    return 1


def completion_latency(config: MachineConfig, opclass: OpClass, vly: int,
                       occupancy: int) -> int:
    """Cycles from issue to result availability (see :func:`occupancy_of`)."""
    base = config.latency_of(opclass)
    if opclass.is_store:
        return 1
    latency = base + (occupancy - 1)
    if opclass is OpClass.MEDIA_ACC and vly > 1:
        # MOM pipelined dimension-Y reduction: extra fixed latency for the
        # reduction tree (paper section 3.1).
        latency += config.mom_reduction_latency
    return latency


class OutOfOrderCore:
    """One simulated out-of-order core instance.

    A core instance is single-use: create one per (trace, configuration)
    pair, or use the :func:`simulate_trace` convenience wrapper.  A second
    :meth:`run`/:meth:`run_lowered` call on the same instance raises —
    resource scoreboards and stall counters carry state from the first run,
    so reuse would silently corrupt the results.
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self._used = False

        # Functional units.
        self._int_alu = FunctionalUnitPool("ialu", config.num_int_alu)
        self._int_mul = FunctionalUnitPool("imul", config.num_int_mul)
        self._mem_ports = FunctionalUnitPool("mem", config.num_mem_ports)
        self._media_fu = FunctionalUnitPool("media", config.num_media_fu)

        # Bandwidth.
        self._issue_bw = BandwidthLimiter(config.issue_width)

        # Issue queues.
        self._queues = {
            _DOMAIN_INT: SlotPool("intq", config.int_queue_size),
            _DOMAIN_MEM: SlotPool("memq", config.mem_queue_size),
            _DOMAIN_MEDIA: SlotPool("mediaq", config.media_queue_size),
        }

        # Rename head-room per register file (physical minus architectural).
        self._rename_pools = {
            RegFile.INT: SlotPool(
                "int-regs", config.phys_int_regs - config.arch_int_regs
            ),
            RegFile.MEDIA: SlotPool(
                "media-regs", config.phys_media_regs - config.arch_media_regs
            ),
            RegFile.MATRIX: SlotPool(
                "matrix-regs", config.phys_matrix_regs - config.arch_matrix_regs
            ),
            RegFile.ACC: SlotPool(
                "acc-regs", config.phys_acc_regs - config.arch_acc_regs
            ),
            RegFile.VL: SlotPool("vl-regs", VL_RENAME_SLOTS),
        }

        # Fast-path lookup tables: functional-unit pool and issue queue per
        # operation class.  Both are pure functions of the opclass, so
        # resolving them once here removes two chains of enum-property
        # checks (`is_memory`, `is_media`, ...) from the per-instruction
        # simulation loop.
        self._fu_by_class: Dict[OpClass, FunctionalUnitPool] = {}
        self._queue_by_class: Dict[OpClass, SlotPool] = {}
        for opclass in OpClass:
            if opclass.is_memory:
                fu = self._mem_ports
            elif opclass is OpClass.IMUL:
                fu = self._int_mul
            elif opclass.is_media:
                fu = self._media_fu
            else:
                fu = self._int_alu
            self._fu_by_class[opclass] = fu
            self._queue_by_class[opclass] = self._queues[_domain_of(opclass)]

        # Register readiness (architectural registers all ready at cycle 0).
        self._reg_ready: Dict[RegRef, int] = {}

        # Per-instruction pipeline times (ring buffers would do; lists are
        # simpler and the traces are modest).
        self._rename_times: list[int] = []
        self._commit_times: list[int] = []

        self._stalls: Dict[str, int] = {
            "rob": 0,
            "issue_queue": 0,
            "rename_regs": 0,
            "fetch_bw": 0,
        }

    # ------------------------------------------------------------------

    def _occupancy_of(self, opclass: OpClass, vly: int,
                      non_pipelined: bool) -> int:
        """Cycles an instruction shape occupies its functional unit or port."""
        return occupancy_of(self.config, opclass, vly, non_pipelined)

    def _completion_latency(self, opclass: OpClass, vly: int,
                            occupancy: int) -> int:
        """Cycles from issue to result availability."""
        return completion_latency(self.config, opclass, vly, occupancy)

    def _mark_used(self) -> None:
        if self._used:
            raise RuntimeError(
                "OutOfOrderCore instances are single-use: resource "
                "scoreboards and stall counters carry state from the first "
                "run; create a fresh core (or call simulate_trace) per "
                "(trace, configuration) pair")
        self._used = True

    # ------------------------------------------------------------------

    def run(self, trace: Trace, record_timeline: bool = False) -> SimResult:
        """Simulate ``trace`` and return the timing result.

        With ``record_timeline`` the per-instruction pipeline times are kept
        in :attr:`timeline` as ``(opcode, rename, ready, issue, complete,
        commit)`` tuples — useful for debugging and for the micro-level unit
        tests of the timing model.

        This is the object-level reference loop; :meth:`run_lowered` executes
        the same interval model over a pre-compiled
        :class:`~repro.timing.lowered.LoweredTrace` at a multiple of the
        speed, with bit-identical cycle counts.
        """
        self._mark_used()
        cfg = self.config
        rename_times = self._rename_times
        commit_times = self._commit_times
        reg_ready = self._reg_ready
        self.timeline: list[tuple] = []

        # The loop below is the simulator's hot path (it runs once per
        # dynamic instruction across every sweep point), so everything
        # loop-invariant is hoisted into locals: configuration fields,
        # bound methods, the per-opclass lookup tables, and the stall
        # counters (plain ints here, written back to the dict at the end).
        fetch_width = cfg.fetch_width
        rob_size = cfg.rob_size
        commit_width = cfg.commit_width
        fu_by_class = self._fu_by_class
        queue_by_class = self._queue_by_class
        rename_pools_get = self._rename_pools.get
        reg_ready_get = reg_ready.get
        bw_probe = self._issue_bw.probe
        bw_next_slot = self._issue_bw.next_slot
        rename_append = rename_times.append
        commit_append = commit_times.append
        timeline_append = self.timeline.append
        media_acc = OpClass.MEDIA_ACC
        acc_file = RegFile.ACC

        stalls = self._stalls
        stall_fetch_bw = stalls["fetch_bw"]
        stall_rob = stalls["rob"]
        stall_queue = stalls["issue_queue"]
        stall_rename = stalls["rename_regs"]

        # (occupancy, completion latency) per (opclass, vly, non_pipelined):
        # both are pure functions of that triple for a fixed configuration,
        # so each distinct shape is computed once per core instead of once
        # per instruction.
        op_timing: dict = {}

        total_ops = 0
        last_commit = 0

        for i, instr in enumerate(trace):
            total_ops += instr.ops
            opclass = instr.opclass
            dsts = instr.dsts

            # ---- rename ------------------------------------------------
            candidate = rename_times[-1] if rename_times else 0
            if i >= fetch_width:
                bw_bound = rename_times[i - fetch_width] + 1
                if bw_bound > candidate:
                    stall_fetch_bw += bw_bound - candidate
                    candidate = bw_bound
            if i >= rob_size:
                rob_bound = commit_times[i - rob_size]
                if rob_bound > candidate:
                    stall_rob += rob_bound - candidate
                    candidate = rob_bound

            queue = queue_by_class[opclass]
            q_bound = queue.constrain(candidate)
            if q_bound > candidate:
                stall_queue += q_bound - candidate
                candidate = q_bound

            for dst in dsts:
                pool = rename_pools_get(dst.file)
                if pool is None:
                    continue
                r_bound = pool.constrain(candidate)
                if r_bound > candidate:
                    stall_rename += r_bound - candidate
                    candidate = r_bound

            rename_time = candidate
            rename_append(rename_time)

            # ---- ready (dataflow) ---------------------------------------
            ready = rename_time + 1
            for src in instr.srcs:
                t = reg_ready_get(src, 0)
                if t > ready:
                    ready = t

            # ---- issue ---------------------------------------------------
            # The instruction needs a functional unit (or memory port) for its
            # whole occupancy window and one issue slot in the start cycle;
            # iterate to a fixed point that satisfies both.
            timing = op_timing.get((opclass, instr.vly, instr.non_pipelined))
            if timing is None:
                occupancy = self._occupancy_of(opclass, instr.vly,
                                               instr.non_pipelined)
                timing = (occupancy,
                          self._completion_latency(opclass, instr.vly,
                                                   occupancy))
                op_timing[(opclass, instr.vly, instr.non_pipelined)] = timing
            occupancy, latency = timing

            fu = fu_by_class[opclass]
            fu_find_start = fu.find_start
            start = ready
            while True:
                fu_start = fu_find_start(start, occupancy)
                bw_start = bw_probe(fu_start)
                if bw_start == fu_start:
                    issue_time = fu_start
                    break
                start = bw_start
            fu.reserve(issue_time, occupancy)
            bw_next_slot(issue_time)
            queue.occupy(issue_time)

            # ---- complete ------------------------------------------------
            complete = issue_time + latency
            if opclass is media_acc and instr.vly <= 1:
                # MDMX-style accumulate: the accumulator feedback path lives in
                # the final adder stage, so a dependent accumulate can issue the
                # next cycle even though the full result (as read out into an
                # ordinary register) takes the whole latency.  This is the
                # "artificial recurrence" of section 3.1 at its real cost of
                # one cycle per accumulate.
                acc_forward = issue_time + occupancy
                for dst in dsts:
                    reg_ready[dst] = acc_forward if dst.file is acc_file else complete
            else:
                for dst in dsts:
                    reg_ready[dst] = complete

            # ---- commit --------------------------------------------------
            commit = complete + 1
            if commit_times:
                prev_commit = commit_times[-1]
                if prev_commit > commit:
                    commit = prev_commit
            if i >= commit_width:
                cw_bound = commit_times[i - commit_width] + 1
                if cw_bound > commit:
                    commit = cw_bound
            commit_append(commit)
            last_commit = commit

            for dst in dsts:
                pool = rename_pools_get(dst.file)
                if pool is not None:
                    pool.occupy(commit)

            if record_timeline:
                timeline_append(
                    (instr.opcode, rename_time, ready, issue_time, complete, commit)
                )

        stalls["fetch_bw"] = stall_fetch_bw
        stalls["rob"] = stall_rob
        stalls["issue_queue"] = stall_queue
        stalls["rename_regs"] = stall_rename

        return SimResult(
            cycles=last_commit,
            instructions=len(trace),
            operations=total_ops,
            kernel=trace.name,
            isa=trace.isa,
            config_name=cfg.name,
            mem_latency=cfg.mem_latency,
            issue_width=cfg.issue_width,
            stall_breakdown=dict(self._stalls),
        )

    # ------------------------------------------------------------------

    def run_lowered(self, lowered: LoweredTrace,
                    record_timeline: bool = False) -> SimResult:
        """Simulate a pre-lowered trace; bit-identical to :meth:`run`.

        The interval model is the same, but every per-instruction cost the
        object loop pays is gone: instructions are rows of flat arrays,
        register scoreboards are lists indexed by dense integer ids, the
        ``(occupancy, latency, functional unit, issue queue)`` resolution
        happens once per *shape*, and the resource trackers
        (:class:`~repro.timing.resources.FunctionalUnitPool`,
        :class:`~repro.timing.resources.BandwidthLimiter`,
        :class:`~repro.timing.resources.SlotPool`) are inlined as raw
        dicts/heaps local to the loop.  The inlined semantics are pinned to
        the object implementations by the golden snapshots and the
        equivalence suite in ``tests/timing/test_lowered.py``.
        """
        self._mark_used()
        cfg = self.config
        self.timeline: list[tuple] = []

        # --- per-configuration shape resolution --------------------------
        # Functional-unit scoreboards: {cycle: units busy} + unit count, in
        # the same grouping as self._fu_by_class (int ALU, int mul, memory
        # ports, media units).
        fu_states = (
            ({}, cfg.num_int_alu),
            ({}, cfg.num_int_mul),
            ({}, cfg.num_mem_ports),
            ({}, cfg.num_media_fu),
        )
        # Issue queues and rename pools as (min-heap of release times,
        # capacity) pairs — SlotPool semantics, inlined.  Capacities clamp at
        # zero exactly like SlotPool (zero = unconstrained).
        queue_states = (
            ([], max(0, cfg.int_queue_size)),
            ([], max(0, cfg.mem_queue_size)),
            ([], max(0, cfg.media_queue_size)),
        )
        rename_caps = {
            RegFile.INT: cfg.phys_int_regs - cfg.arch_int_regs,
            RegFile.MEDIA: cfg.phys_media_regs - cfg.arch_media_regs,
            RegFile.MATRIX: cfg.phys_matrix_regs - cfg.arch_matrix_regs,
            RegFile.ACC: cfg.phys_acc_regs - cfg.arch_acc_regs,
            RegFile.VL: VL_RENAME_SLOTS,
        }
        rename_heaps = tuple([] for _ in REG_POOL_ORDER)
        rename_capacities = tuple(max(0, rename_caps[file])
                                  for file in REG_POOL_ORDER)

        media_acc = OpClass.MEDIA_ACC
        resolved = []
        for opclass, vly, non_pipelined in lowered.shapes:
            occupancy = self._occupancy_of(opclass, vly, non_pipelined)
            latency = self._completion_latency(opclass, vly, occupancy)
            if opclass.is_memory:
                fu_busy, fu_count = fu_states[2]
                queue_heap, queue_cap = queue_states[1]
            elif opclass is OpClass.IMUL:
                fu_busy, fu_count = fu_states[1]
                queue_heap, queue_cap = queue_states[0]
            elif opclass.is_media:
                fu_busy, fu_count = fu_states[3]
                queue_heap, queue_cap = queue_states[2]
            else:
                fu_busy, fu_count = fu_states[0]
                queue_heap, queue_cap = queue_states[0]
            acc_forwarding = opclass is media_acc and vly <= 1
            resolved.append((occupancy, latency, fu_busy, fu_busy.get,
                             fu_count, queue_heap, queue_cap, acc_forwarding))

        # --- hot-loop locals ---------------------------------------------
        fetch_width = cfg.fetch_width
        rob_size = cfg.rob_size
        commit_width = cfg.commit_width
        bw_width = cfg.issue_width
        bw_used: Dict[int, int] = {}
        bw_get = bw_used.get
        reg_ready = [0] * lowered.num_regs
        rename_times: list = []
        commit_times: list = []
        rename_append = rename_times.append
        commit_append = commit_times.append
        timeline_append = self.timeline.append
        heappush_ = heappush
        heappop_ = heappop
        opcodes = lowered.opcodes
        opcode_ids = lowered.opcode_ids

        stalls = self._stalls
        stall_fetch_bw = stalls["fetch_bw"]
        stall_rob = stalls["rob"]
        stall_queue = stalls["issue_queue"]
        stall_rename = stalls["rename_regs"]

        last_commit = 0

        for i, (sid, srcs, dsts) in enumerate(
                zip(lowered.shape_ids, lowered.srcs, lowered.dsts)):
            (occupancy, latency, fu_busy, fu_get, fu_count,
             queue_heap, queue_cap, acc_forwarding) = resolved[sid]

            # ---- rename ------------------------------------------------
            candidate = rename_times[-1] if rename_times else 0
            if i >= fetch_width:
                bw_bound = rename_times[i - fetch_width] + 1
                if bw_bound > candidate:
                    stall_fetch_bw += bw_bound - candidate
                    candidate = bw_bound
            if i >= rob_size:
                rob_bound = commit_times[i - rob_size]
                if rob_bound > candidate:
                    stall_rob += rob_bound - candidate
                    candidate = rob_bound

            if queue_cap:
                while queue_heap and queue_heap[0] <= candidate:
                    heappop_(queue_heap)
                if len(queue_heap) >= queue_cap:
                    # The release loop drained everything <= candidate, so
                    # the evicted earliest leaver is strictly later.
                    earliest = heappop_(queue_heap)
                    stall_queue += earliest - candidate
                    candidate = earliest

            for _reg, pool_i, _is_acc in dsts:
                cap = rename_capacities[pool_i]
                if cap == 0:
                    continue
                heap = rename_heaps[pool_i]
                while heap and heap[0] <= candidate:
                    heappop_(heap)
                if len(heap) >= cap:
                    earliest = heappop_(heap)
                    stall_rename += earliest - candidate
                    candidate = earliest

            rename_time = candidate
            rename_append(rename_time)

            # ---- ready (dataflow) ---------------------------------------
            ready = rename_time + 1
            for r in srcs:
                t = reg_ready[r]
                if t > ready:
                    ready = t

            # ---- issue ---------------------------------------------------
            # A functional unit for the whole occupancy window plus one
            # issue slot in the start cycle; iterate to a fixed point.
            start = ready
            if occupancy == 1:
                while True:
                    while fu_get(start, 0) >= fu_count:
                        start += 1
                    bw_start = start
                    while bw_get(bw_start, 0) >= bw_width:
                        bw_start += 1
                    if bw_start == start:
                        issue_time = start
                        break
                    start = bw_start
                fu_busy[issue_time] = fu_get(issue_time, 0) + 1
            else:
                while True:
                    fu_start = start
                    while True:
                        conflict = -1
                        for cycle in range(fu_start, fu_start + occupancy):
                            if fu_get(cycle, 0) >= fu_count:
                                conflict = cycle
                                break
                        if conflict < 0:
                            break
                        fu_start = conflict + 1
                    bw_start = fu_start
                    while bw_get(bw_start, 0) >= bw_width:
                        bw_start += 1
                    if bw_start == fu_start:
                        issue_time = fu_start
                        break
                    start = bw_start
                for cycle in range(issue_time, issue_time + occupancy):
                    fu_busy[cycle] = fu_get(cycle, 0) + 1
            bw_used[issue_time] = bw_get(issue_time, 0) + 1
            if queue_cap:
                heappush_(queue_heap, issue_time)

            # ---- complete ------------------------------------------------
            complete = issue_time + latency
            if acc_forwarding:
                # MDMX-style accumulate: the accumulator feedback path lives
                # in the final adder stage (see run() for the full story).
                acc_forward = issue_time + occupancy
                for reg, _pool_i, is_acc in dsts:
                    reg_ready[reg] = acc_forward if is_acc else complete
            else:
                for reg, _pool_i, _is_acc in dsts:
                    reg_ready[reg] = complete

            # ---- commit --------------------------------------------------
            commit = complete + 1
            if commit_times:
                prev_commit = commit_times[-1]
                if prev_commit > commit:
                    commit = prev_commit
            if i >= commit_width:
                cw_bound = commit_times[i - commit_width] + 1
                if cw_bound > commit:
                    commit = cw_bound
            commit_append(commit)
            last_commit = commit

            for _reg, pool_i, _is_acc in dsts:
                if rename_capacities[pool_i]:
                    heappush_(rename_heaps[pool_i], commit)

            if record_timeline:
                timeline_append((opcodes[opcode_ids[i]], rename_time, ready,
                                 issue_time, complete, commit))

        stalls["fetch_bw"] = stall_fetch_bw
        stalls["rob"] = stall_rob
        stalls["issue_queue"] = stall_queue
        stalls["rename_regs"] = stall_rename

        return SimResult(
            cycles=last_commit,
            instructions=lowered.num_instructions,
            operations=lowered.total_ops,
            kernel=lowered.name,
            isa=lowered.isa,
            config_name=cfg.name,
            mem_latency=cfg.mem_latency,
            issue_width=cfg.issue_width,
            stall_breakdown=dict(self._stalls),
        )


def simulate_trace(trace: Union[Trace, LoweredTrace],
                   config: Optional[MachineConfig] = None) -> SimResult:
    """Simulate a trace on a (fresh) out-of-order core.

    The trace is lowered (once — :meth:`Trace.lower` memoises) and executed
    through the flat-array backend; an already-lowered trace is accepted
    directly, which is what the sweep engine's batching does to amortise
    lowering across every configuration sharing a trace.

    Parameters
    ----------
    trace:
        Dynamic instruction trace produced by a kernel builder, or its
        pre-compiled :class:`~repro.timing.lowered.LoweredTrace`.
    config:
        Machine configuration; defaults to the paper's 4-way core with
        1-cycle memory latency.
    """
    if config is None:
        config = MachineConfig.for_way(4)
    core = OutOfOrderCore(config)
    if isinstance(trace, LoweredTrace):
        return core.run_lowered(trace)
    return core.run_lowered(trace.lower())
