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
from heapq import heapreplace
from typing import Dict, Optional, Tuple, Union

from repro.isa.opclasses import OpClass, RegFile
from repro.timing.config import MachineConfig
from repro.timing.lowered import LoweredTrace
from repro.timing.resources import BandwidthLimiter, FunctionalUnitPool, SlotPool
from repro.timing.results import SimResult
from repro.trace.container import Trace
from repro.trace.instruction import RegRef

__all__ = ["VL_RENAME_SLOTS", "OutOfOrderCore", "completion_latency",
           "occupancy_of", "resolve_shape", "resource_counts",
           "simulate_trace"]

#: Rename slots of the vector-length register's tiny pool: the one pool
#: whose capacity no configuration sets.
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

    Pure function of ``(config, shape)``; shared by the object loop and
    :func:`resolve_shape`, so the three backends can never drift apart.
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


def resource_counts(config: MachineConfig) -> Tuple[Tuple[int, ...],
                                                     Tuple[int, ...],
                                                     Tuple[int, ...]]:
    """A machine's structural resources for the fast backends.

    Returns ``(units, queues, rename)``: the functional-unit counts by kind
    (int ALU, int mul, memory ports, media units — the kind
    :func:`resolve_shape` names), the issue-queue sizes (int, memory,
    media; 0 means unbounded) and the rename head-room (physical minus
    architectural registers; 0 means unbounded) per file in
    :data:`~repro.timing.lowered.REG_POOL_ORDER`.
    """
    return (
        (config.num_int_alu, config.num_int_mul, config.num_mem_ports,
         config.num_media_fu),
        (config.int_queue_size, config.mem_queue_size,
         config.media_queue_size),
        (config.phys_int_regs - config.arch_int_regs,
         config.phys_media_regs - config.arch_media_regs,
         config.phys_matrix_regs - config.arch_matrix_regs,
         config.phys_acc_regs - config.arch_acc_regs,
         VL_RENAME_SLOTS),
    )


def resolve_shape(config: MachineConfig, opclass: OpClass, vly: int,
                  non_pipelined: bool) -> Tuple[int, int, int, int, bool]:
    """``(occupancy, latency, unit kind, queue, acc_forwarding)`` of one
    instruction shape on ``config``.

    ``unit kind`` and ``queue`` index the tuples of
    :func:`resource_counts`; ``acc_forwarding`` marks an MDMX-style
    accumulate, whose accumulator destination is ready ``occupancy``
    cycles after issue (see :meth:`OutOfOrderCore.run`).
    """
    occupancy = occupancy_of(config, opclass, vly, non_pipelined)
    latency = completion_latency(config, opclass, vly, occupancy)
    if opclass.is_memory:
        kind, queue = 2, 1
    elif opclass is OpClass.IMUL:
        kind, queue = 1, 0
    elif opclass.is_media:
        kind, queue = 3, 2
    else:
        kind, queue = 0, 0
    return (occupancy, latency, kind, queue,
            opclass is OpClass.MEDIA_ACC and vly <= 1)


class OutOfOrderCore:
    """One simulated out-of-order core.

    A core holds only its configuration and the timeline of its last run:
    every run builds its scoreboards afresh, so one core can run any
    number of traces.  :func:`simulate_trace` is the one-call wrapper.
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.timeline: list[tuple] = []

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
        cfg = self.config
        self.timeline = []

        # The reference trackers, one set per run.
        int_alu = FunctionalUnitPool("ialu", cfg.num_int_alu)
        int_mul = FunctionalUnitPool("imul", cfg.num_int_mul)
        mem_ports = FunctionalUnitPool("mem", cfg.num_mem_ports)
        media_fu = FunctionalUnitPool("media", cfg.num_media_fu)
        issue_bw = BandwidthLimiter(cfg.issue_width)
        queues = {
            _DOMAIN_INT: SlotPool("intq", cfg.int_queue_size),
            _DOMAIN_MEM: SlotPool("memq", cfg.mem_queue_size),
            _DOMAIN_MEDIA: SlotPool("mediaq", cfg.media_queue_size),
        }
        # Rename head-room per register file (physical minus architectural).
        rename_pools = {
            RegFile.INT: SlotPool(
                "int-regs", cfg.phys_int_regs - cfg.arch_int_regs),
            RegFile.MEDIA: SlotPool(
                "media-regs", cfg.phys_media_regs - cfg.arch_media_regs),
            RegFile.MATRIX: SlotPool(
                "matrix-regs", cfg.phys_matrix_regs - cfg.arch_matrix_regs),
            RegFile.ACC: SlotPool(
                "acc-regs", cfg.phys_acc_regs - cfg.arch_acc_regs),
            RegFile.VL: SlotPool("vl-regs", VL_RENAME_SLOTS),
        }

        # Functional-unit pool and issue queue per operation class: both
        # are pure functions of the opclass, so resolving them once here
        # removes two chains of enum-property checks (`is_memory`,
        # `is_media`, ...) from the per-instruction loop.
        fu_by_class: Dict[OpClass, FunctionalUnitPool] = {}
        queue_by_class: Dict[OpClass, SlotPool] = {}
        for opclass in OpClass:
            if opclass.is_memory:
                fu = mem_ports
            elif opclass is OpClass.IMUL:
                fu = int_mul
            elif opclass.is_media:
                fu = media_fu
            else:
                fu = int_alu
            fu_by_class[opclass] = fu
            queue_by_class[opclass] = queues[_domain_of(opclass)]

        # Register readiness (architectural registers all ready at cycle
        # 0) and per-instruction pipeline times.
        reg_ready: Dict[RegRef, int] = {}
        rename_times: list[int] = []
        commit_times: list[int] = []

        # The loop below runs once per dynamic instruction, so everything
        # loop-invariant is hoisted into locals: configuration fields,
        # bound methods, and the stall counters.
        fetch_width = cfg.fetch_width
        rob_size = cfg.rob_size
        commit_width = cfg.commit_width
        rename_pools_get = rename_pools.get
        reg_ready_get = reg_ready.get
        bw_probe = issue_bw.probe
        bw_next_slot = issue_bw.next_slot
        rename_append = rename_times.append
        commit_append = commit_times.append
        timeline_append = self.timeline.append
        media_acc = OpClass.MEDIA_ACC
        acc_file = RegFile.ACC

        stall_fetch_bw = stall_rob = stall_queue = stall_rename = 0

        # (occupancy, completion latency) per (opclass, vly, non_pipelined):
        # both are pure functions of that triple for a fixed configuration,
        # so each distinct shape is computed once per run instead of once
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
                occupancy = occupancy_of(cfg, opclass, instr.vly,
                                         instr.non_pipelined)
                timing = (occupancy,
                          completion_latency(cfg, opclass, instr.vly,
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

        return SimResult(
            cycles=last_commit,
            instructions=len(trace),
            operations=total_ops,
            kernel=trace.name,
            isa=trace.isa,
            config_name=cfg.name,
            mem_latency=cfg.mem_latency,
            issue_width=cfg.issue_width,
            stall_breakdown={"rob": stall_rob, "issue_queue": stall_queue,
                             "rename_regs": stall_rename,
                             "fetch_bw": stall_fetch_bw},
        )

    # ------------------------------------------------------------------

    def run_lowered(self, lowered: LoweredTrace,
                    record_timeline: bool = False) -> SimResult:
        """Simulate a pre-lowered trace; bit-identical to :meth:`run`.

        The interval model is the same, but every per-instruction cost the
        object loop pays is gone: instructions are rows of flat arrays,
        register scoreboards are lists indexed by dense integer ids, and
        the ``(occupancy, latency, functional unit, issue queue)``
        resolution happens once per *shape*.  The resource trackers are
        inlined around the monotone structure the vector backend proved
        exact (``docs/timing-model.md``, "Issue queues" and "Rename
        pools"), so no bound needs a drain loop:

        * issue queues: a min-heap of the ``K`` largest issue times pushed
          so far, whose root is the queue bound;
        * rename pools: the FIFO of each pool's commit pushes, whose entry
          ``capacity`` places back is the bound (a lazy head finds the
          earliest live push when a pool holds more than its capacity);
        * fetch, ROB and commit-width bounds: histories pre-padded so the
          ``i - width`` entry always exists;
        * functional units and issue bandwidth: busy-count lists over a
          cycle horizon that doubles whenever a search runs past it.

        The semantics are pinned to the object implementations
        (:class:`~repro.timing.resources.FunctionalUnitPool`,
        :class:`~repro.timing.resources.BandwidthLimiter`,
        :class:`~repro.timing.resources.SlotPool`) by the golden snapshots
        and the equivalence suite in ``tests/timing/test_lowered.py``.
        """
        cfg = self.config
        self.timeline = []
        units, queue_sizes, rename_caps = resource_counts(cfg)

        # --- per-configuration resolution ---------------------------------
        # Busy counts per cycle: one list per functional-unit kind, then
        # issue bandwidth.  A search that runs past the horizon raises
        # IndexError before it writes anything, and retries on doubled
        # lists (every cycle beyond the horizon is free).
        horizon = 2 * lowered.num_instructions + 1024
        fu_busy = tuple([0] * horizon for _ in units)
        bw_used = [0] * horizon
        scoreboards = (*fu_busy, bw_used)
        # Issue queues: the K largest issue times pushed so far as a
        # min-heap (K zeros to start), its root the exact SlotPool bound;
        # None for an unbounded (0-entry) queue.
        queue_heaps = tuple([0] * size if size > 0 else None
                            for size in queue_sizes)
        # Rename pools: each pool's commit pushes in order (commit times
        # are monotone), pre-padded with ``cap`` never-binding -1 entries
        # and read at index ``-cap``.  An unbounded pool (cap 0) reads a
        # constant [-1] and discards its pushes.
        pools = []
        pushes = []
        for cap in rename_caps:
            if cap > 0:
                fifo = [-1] * cap
                pools.append((fifo, -cap))
                pushes.append(fifo.append)
            else:
                pools.append(([-1], -1))
                pushes.append([].append)
        heads = [0] * len(pools)

        resolved = []
        for shape in lowered.shapes:
            (occupancy, latency, kind, queue,
             acc_forwarding) = resolve_shape(cfg, *shape)
            resolved.append((occupancy, latency, fu_busy[kind], units[kind],
                             queue_heaps[queue], acc_forwarding))

        # --- hot-loop locals ---------------------------------------------
        # Histories carry `pad` leading -1 entries, so the entries
        # ``width`` rows back (``[-width]``) always exist: a pad rename
        # bounds fetch at 0, a pad commit bounds nothing.
        fetch_width = cfg.fetch_width
        rob_size = cfg.rob_size
        commit_width = cfg.commit_width
        bw_width = cfg.issue_width
        pad = max(fetch_width, rob_size, commit_width)
        reg_ready = [0] * lowered.num_regs
        rename_times = [-1] * pad
        commit_times = [-1] * pad
        rename_append = rename_times.append
        commit_append = commit_times.append
        timeline_append = self.timeline.append
        heapreplace_ = heapreplace
        opcodes = lowered.opcodes

        stall_fetch_bw = stall_rob = stall_queue = stall_rename = 0

        rename_time = 0
        commit = 0

        for sid, srcs, dsts, oid in zip(lowered.shape_ids, lowered.srcs,
                                        lowered.dsts, lowered.opcode_ids):
            (occupancy, latency, fu, fu_count, queue,
             acc_forwarding) = resolved[sid]

            # ---- rename ------------------------------------------------
            candidate = rename_time
            bound = rename_times[-fetch_width] + 1
            if bound > candidate:
                stall_fetch_bw += bound - candidate
                candidate = bound
            bound = commit_times[-rob_size]
            if bound > candidate:
                stall_rob += bound - candidate
                candidate = bound

            if queue is not None:
                bound = queue[0]
                if bound > candidate:
                    stall_queue += bound - candidate
                    candidate = bound

            for _reg, pool_i, _is_acc in dsts:
                fifo, back = pools[pool_i]
                if fifo[back] > candidate:
                    # At least `cap` pushes release later than the
                    # candidate; the earliest of them frees the slot.  It
                    # is the one `cap` places back unless a two-destination
                    # row overfilled the pool, so walk a lazy head to it.
                    head = heads[pool_i]
                    while fifo[head] <= candidate:
                        head += 1
                    heads[pool_i] = head
                    bound = fifo[head]
                    stall_rename += bound - candidate
                    candidate = bound

            rename_time = candidate
            rename_append(rename_time)

            # ---- ready (dataflow) ---------------------------------------
            ready = rename_time + 1
            for r in srcs:
                t = reg_ready[r]
                if t > ready:
                    ready = t

            # ---- issue ---------------------------------------------------
            # The first cycle >= ready with a functional unit free for the
            # whole occupancy window and an issue slot in the start cycle.
            issue_time = ready
            while True:
                try:
                    if occupancy == 1:
                        while (fu[issue_time] >= fu_count
                               or bw_used[issue_time] >= bw_width):
                            issue_time += 1
                        fu[issue_time] += 1
                    else:
                        while True:
                            while bw_used[issue_time] >= bw_width:
                                issue_time += 1
                            for cycle in range(issue_time,
                                               issue_time + occupancy):
                                if fu[cycle] >= fu_count:
                                    issue_time = cycle + 1
                                    break
                            else:
                                break
                        for cycle in range(issue_time,
                                           issue_time + occupancy):
                            fu[cycle] += 1
                    break
                except IndexError:
                    for board in scoreboards:
                        board.extend([0] * len(board))
            bw_used[issue_time] += 1
            if queue is not None:
                # issue > rename time >= the root, so the newcomer always
                # displaces the smallest of the K largest.
                heapreplace_(queue, issue_time)

            # ---- complete ------------------------------------------------
            complete = issue_time + latency

            # ---- commit --------------------------------------------------
            # In order: ``commit`` still holds the previous row's commit.
            bound = complete + 1
            if bound > commit:
                commit = bound
            bound = commit_times[-commit_width] + 1
            if bound > commit:
                commit = bound
            commit_append(commit)

            if acc_forwarding:
                # MDMX-style accumulate: the accumulator feedback path lives
                # in the final adder stage (see run() for the full story).
                acc_forward = issue_time + occupancy
                for reg, pool_i, is_acc in dsts:
                    reg_ready[reg] = acc_forward if is_acc else complete
                    pushes[pool_i](commit)
            else:
                for reg, pool_i, _is_acc in dsts:
                    reg_ready[reg] = complete
                    pushes[pool_i](commit)

            if record_timeline:
                timeline_append((opcodes[oid], rename_time, ready,
                                 issue_time, complete, commit))

        return SimResult(
            cycles=commit,
            instructions=lowered.num_instructions,
            operations=lowered.total_ops,
            kernel=lowered.name,
            isa=lowered.isa,
            config_name=cfg.name,
            mem_latency=cfg.mem_latency,
            issue_width=cfg.issue_width,
            stall_breakdown={"rob": stall_rob, "issue_queue": stall_queue,
                             "rename_regs": stall_rename,
                             "fetch_bw": stall_fetch_bw},
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
