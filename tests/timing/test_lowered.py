"""Lowered-backend equivalence: ``run_lowered()`` == the object loop.

The lowered backend (repro.timing.lowered + ``OutOfOrderCore.run_lowered``)
must be *bit-identical* to the object-level ``run()`` — same cycles, same
stall breakdown, same per-instruction timeline — for every trace and every
machine configuration.  These tests pin that across all kernels x ISAs x a
configuration grid, on adversarial hand-written traces, and on randomly
generated ones; plus the lowering of a payload-revived trace and core
reuse.
"""

from __future__ import annotations

import json
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.opclasses import OpClass, RegFile
from repro.kernels.base import ISA_VARIANTS
from repro.kernels.registry import kernel_names
from repro.timing.config import MachineConfig
from repro.timing.core import OutOfOrderCore, simulate_trace
from repro.timing.lowered import lower_trace
from repro.trace.container import Trace
from repro.trace.instruction import DynInstr, RegRef
from repro.workloads.generators import WorkloadSpec

#: The configuration grid every equivalence check runs under: issue widths,
#: memory latencies, and deliberately tight structural resources (small ROB,
#: single media FU, scarce rename registers) to exercise every stall path.
CONFIG_GRID = (
    MachineConfig.for_way(1),
    MachineConfig.for_way(4),
    MachineConfig.for_way(4, mem_latency=50),
    MachineConfig.for_way(8, mem_latency=12),
    MachineConfig.for_way(4).with_updates(
        rob_size=8, num_media_fu=1, phys_media_regs=34, media_lanes=4),
    # Tight: one spare physical register per file and 1-entry issue queues
    # on a 1-wide core with slow memory, so every rename and queue bound
    # binds on nearly every row.
    MachineConfig.for_way(1, mem_latency=50).with_updates(
        int_queue_size=1, mem_queue_size=1, media_queue_size=1,
        phys_int_regs=33, phys_media_regs=33, phys_matrix_regs=17,
        phys_acc_regs=5),
    # Unconstrained: unbounded (0-entry) issue queues and no rename
    # head-room limit (physical == architectural, every cap 0).
    MachineConfig.for_way(4).with_updates(
        int_queue_size=0, mem_queue_size=0, media_queue_size=0,
        phys_int_regs=32, phys_media_regs=32, phys_matrix_regs=16,
        phys_acc_regs=4),
)


@lru_cache(maxsize=None)
def _kernel_trace(kernel: str, isa: str) -> Trace:
    from repro.experiments.runner import build_kernel_variant

    return build_kernel_variant(kernel, isa, spec=WorkloadSpec(scale=1)).trace


def _run_both(trace: Trace, config: MachineConfig):
    obj_core = OutOfOrderCore(config)
    obj = obj_core.run(trace, record_timeline=True)
    low_core = OutOfOrderCore(config)
    low = low_core.run_lowered(lower_trace(trace), record_timeline=True)
    return (obj, obj_core.timeline), (low, low_core.timeline)


def _assert_equivalent(trace: Trace, config: MachineConfig, label=""):
    (obj, obj_timeline), (low, low_timeline) = _run_both(trace, config)
    assert low == obj, f"{label}: SimResult drifted on {config.name}"
    assert low.stall_breakdown == obj.stall_breakdown, label
    assert low_timeline == obj_timeline, (
        f"{label}: per-instruction timeline drifted on {config.name}")


# ----------------------------------------------------------------------
# Real kernel traces: all kernels x ISAs x the configuration grid.

@pytest.mark.parametrize("kernel", kernel_names())
@pytest.mark.parametrize("isa", ISA_VARIANTS)
def test_lowered_equals_object_loop_on_kernels(kernel, isa):
    trace = _kernel_trace(kernel, isa)
    for config in CONFIG_GRID:
        _assert_equivalent(trace, config, label=f"{kernel}/{isa}")


# ----------------------------------------------------------------------
# Hand-written adversarial traces: the special paths the kernels may not
# cover in every combination.

def instr(opcode, opclass, srcs=(), dsts=(), ops=1, vlx=1, vly=1,
          is_vector=False, non_pipelined=False):
    return DynInstr(opcode=opcode, opclass=opclass, isa="test",
                    srcs=tuple(srcs), dsts=tuple(dsts), ops=ops, vlx=vlx,
                    vly=vly, is_vector=is_vector, non_pipelined=non_pipelined)


def _adversarial_traces():
    acc = RegRef(RegFile.ACC, 0)
    med = [RegRef(RegFile.MEDIA, i) for i in range(4)]
    mat = [RegRef(RegFile.MATRIX, i) for i in range(4)]
    vl = RegRef(RegFile.VL, 0)
    ints = [RegRef(RegFile.INT, i) for i in range(4)]

    mdmx_chain = Trace("mdmx_chain", "test")
    for _ in range(24):
        mdmx_chain.append(instr("acc", OpClass.MEDIA_ACC,
                                srcs=(med[0], med[1], acc), dsts=(acc,),
                                ops=4, vlx=4, vly=1, is_vector=True))

    mom_reduce = Trace("mom_reduce", "test")
    mom_reduce.append(instr("setvl", OpClass.IALU, dsts=(vl,)))
    for i in range(6):
        mom_reduce.append(instr("macc", OpClass.MEDIA_ACC,
                                srcs=(mat[i % 2], mat[(i + 1) % 2], acc, vl),
                                dsts=(acc,), ops=64, vlx=4, vly=16,
                                is_vector=True))

    transpose = Trace("transpose", "test")
    for i in range(4):
        transpose.append(instr("mtrans", OpClass.MATRIX_MISC,
                               srcs=(mat[i % 2],), dsts=(mat[2 + i % 2],),
                               ops=64, vlx=8, vly=8, is_vector=True,
                               non_pipelined=True))

    mem_mix = Trace("mem_mix", "test")
    for i in range(16):
        mem_mix.append(instr("ldm", OpClass.MEDIA_LOAD, srcs=(ints[0],),
                             dsts=(mat[i % 4],), ops=128, vlx=8, vly=16,
                             is_vector=True))
        mem_mix.append(instr("st", OpClass.STORE, srcs=(ints[1], ints[2])))
        mem_mix.append(instr("mul", OpClass.IMUL, srcs=(ints[2],),
                             dsts=(ints[3],)))
        mem_mix.append(instr("br", OpClass.BRANCH, srcs=(ints[3],)))

    multi_dst = Trace("multi_dst", "test")
    for i in range(8):
        # Two destinations in different register files on one instruction:
        # both rename pools constrain, both scoreboard entries update.
        multi_dst.append(instr("wide", OpClass.MEDIA_MISC,
                               srcs=(med[0],), dsts=(med[1], acc),
                               ops=8, vlx=8, is_vector=True))

    return [mdmx_chain, mom_reduce, transpose, mem_mix, multi_dst,
            _vl_chain(), Trace("empty", "test")]


def _vl_chain() -> Trace:
    """Slow loads, each followed by a dozen vector-length writes: the VL
    rename pool (``VL_RENAME_SLOTS`` entries whatever the machine) fills
    behind every load, which commits last."""
    ints = [RegRef(RegFile.INT, i) for i in range(3)]
    vl = RegRef(RegFile.VL, 0)
    trace = Trace("vl_chain", "test")
    for _ in range(16):
        trace.append(instr("ld", OpClass.LOAD, srcs=(ints[0],),
                           dsts=(ints[1],)))
        for _ in range(12):
            trace.append(instr("setvl", OpClass.IALU, srcs=(ints[2],),
                               dsts=(vl,)))
    return trace



@pytest.mark.parametrize("trace", _adversarial_traces(),
                         ids=lambda t: t.name)
def test_lowered_equals_object_loop_on_adversarial_traces(trace):
    for config in CONFIG_GRID:
        _assert_equivalent(trace, config, label=trace.name)


def test_vl_rename_pool_binds():
    """The VL pool's capacity is the one not taken from the config: with
    physical == architectural in every file it alone stalls rename, on
    both loops."""
    trace = _vl_chain()
    no_limit = MachineConfig.for_way(4, mem_latency=50).with_updates(
        phys_int_regs=32, phys_media_regs=32, phys_matrix_regs=16,
        phys_acc_regs=4)
    _assert_equivalent(trace, no_limit, label=trace.name)
    result = simulate_trace(trace, no_limit)
    assert result.stall_breakdown["rename_regs"] > 0


# ----------------------------------------------------------------------
# Property test: random well-formed traces, every config in the grid.

_OPCLASSES = [OpClass.IALU, OpClass.IMUL, OpClass.LOAD, OpClass.STORE,
              OpClass.BRANCH, OpClass.MEDIA_ALU, OpClass.MEDIA_MUL,
              OpClass.MEDIA_MISC, OpClass.MEDIA_ACC, OpClass.MEDIA_LOAD,
              OpClass.MEDIA_STORE, OpClass.MATRIX_MISC]


@st.composite
def random_trace(draw, max_len=50):
    """Random traces covering every opclass, register file and shape the
    lowering distinguishes (vly, non_pipelined, accumulator destinations)."""
    length = draw(st.integers(min_value=0, max_value=max_len))
    trace = Trace(name="random", isa="test")
    for _ in range(length):
        opclass = draw(st.sampled_from(_OPCLASSES))
        if opclass.is_media:
            vlx = draw(st.sampled_from([2, 4, 8]))
            vly = draw(st.sampled_from([1, 1, 4, 16]))
            file = (RegFile.MATRIX if vly > 1 else RegFile.MEDIA)
            is_vector = True
        else:
            file = RegFile.INT
            vlx = vly = 1
            is_vector = False
        srcs = [RegRef(file, draw(st.integers(0, 7)))
                for _ in range(draw(st.integers(0, 2)))]
        if opclass is OpClass.MEDIA_ACC:
            srcs.append(RegRef(RegFile.ACC, draw(st.integers(0, 1))))
        dsts = ()
        if opclass is OpClass.MEDIA_ACC:
            dsts = (RegRef(RegFile.ACC, draw(st.integers(0, 1))),)
        elif opclass is not OpClass.STORE and opclass is not OpClass.BRANCH \
                and opclass is not OpClass.MEDIA_STORE:
            dsts = (RegRef(file, draw(st.integers(0, 7))),)
        if opclass is OpClass.IALU and draw(st.integers(0, 3)) == 0:
            # A vector-length write (MOM's setvl): the VL rename pool.
            dsts = (RegRef(RegFile.VL, 0),)
        if dsts and draw(st.integers(0, 3)) == 0:
            # A second destination in the same rename pool (as idct/mom's
            # mom_transpose_pair writes): the pool can end up holding more
            # occupants than its capacity.
            dsts += (RegRef(dsts[0].file, draw(st.integers(0, 7))),)
        non_pipelined = opclass is OpClass.MATRIX_MISC
        trace.append(DynInstr(opcode=opclass.value, opclass=opclass,
                              isa="test", srcs=tuple(srcs), dsts=dsts,
                              ops=vlx * vly, vlx=vlx, vly=vly,
                              is_vector=is_vector,
                              non_pipelined=non_pipelined))
    return trace


@settings(max_examples=40, deadline=None)
@given(trace=random_trace())
def test_lowered_equals_object_loop_on_random_traces(trace):
    for config in CONFIG_GRID:
        _assert_equivalent(trace, config, label="random")


@pytest.mark.parametrize("vly", [1, 16], ids=["occupancy-1", "multi-cycle"])
def test_issue_search_runs_past_the_scoreboard_horizon(vly):
    """A dependent chain of slow loads issues ~50 cycles apart, far past
    the lowered loop's initial busy-count horizon (2n + 1024 cycles): the
    scoreboards must grow mid-search and stay exact, for single-cycle
    loads and for matrix loads that hold a port for several cycles."""
    reg = RegRef(RegFile.INT if vly == 1 else RegFile.MATRIX, 0)
    opclass = OpClass.LOAD if vly == 1 else OpClass.MEDIA_LOAD
    chain = Trace("slow_chain", "test")
    for _ in range(300):
        chain.append(instr("ld", opclass, srcs=(reg,), dsts=(reg,),
                           ops=8 * vly, vlx=8, vly=vly,
                           is_vector=vly > 1))
    config = MachineConfig.for_way(1, mem_latency=50)
    _assert_equivalent(chain, config, label=chain.name)
    result = OutOfOrderCore(config).run_lowered(lower_trace(chain))
    assert result.cycles > 4 * (2 * len(chain) + 1024)


# ----------------------------------------------------------------------
# Lowering a trace revived from its payload (the trace-cache hit path).

class TestLoweredPayload:
    """A revived payload lowers by adopting its columns, to exactly the
    lowering ``lower_trace`` computes from the original trace."""

    def test_round_trip_survives_json_and_simulates_identically(self):
        trace = _kernel_trace("comp", "mom")
        lowered = lower_trace(trace)
        revived = Trace.from_payload(
            json.loads(json.dumps(trace.to_payload()))).lower()
        for config in (MachineConfig.for_way(1), MachineConfig.for_way(4)):
            a = OutOfOrderCore(config).run_lowered(lowered)
            b = OutOfOrderCore(config).run_lowered(revived)
            assert a == b

    def test_round_trip_preserves_structure(self, lowered_fields):
        trace = _kernel_trace("idct", "mdmx")
        revived = Trace.from_payload(trace.to_payload())
        assert revived.columns is not None
        assert lowered_fields(revived.lower()) == lowered_fields(
            lower_trace(trace))

    def test_out_of_range_ids_rejected(self):
        base = _kernel_trace("comp", "scalar").to_payload()

        bad_regfile = json.loads(json.dumps(base))
        bad_regfile["regfiles"] = bad_regfile["regfiles"][:0]
        with pytest.raises(IndexError):
            Trace.from_payload(bad_regfile)

        bad_opclass = json.loads(json.dumps(base))
        bad_opclass["opclasses"] = bad_opclass["opclasses"][:1]
        with pytest.raises(IndexError):
            Trace.from_payload(bad_opclass)

        for index in (len(base["pool"]), -1):
            bad_instr = json.loads(json.dumps(base))
            bad_instr["instrs"][0] = index
            with pytest.raises(IndexError):
                Trace.from_payload(bad_instr)


# ----------------------------------------------------------------------
# Trace.lower() memoisation and core reuse.

class TestLowerMemoisation:
    def test_lower_is_memoised(self):
        trace = _kernel_trace("comp", "scalar")
        assert trace.lower() is trace.lower()

    def test_mutation_invalidates_the_memo(self):
        trace = Trace("t", "test")
        trace.append(instr("a", OpClass.IALU, dsts=(RegRef(RegFile.INT, 0),)))
        first = trace.lower()
        trace.append(instr("b", OpClass.IALU, dsts=(RegRef(RegFile.INT, 1),)))
        second = trace.lower()
        assert second is not first
        assert second.num_instructions == 2


class TestSingleUseCore:
    def test_reused_core_matches_fresh_cores(self):
        """A core keeps no run state: reused across ``run`` and
        ``run_lowered`` it returns what a fresh core returns."""
        trace = _kernel_trace("comp", "scalar")
        cfg = MachineConfig.for_way(4)
        fresh = OutOfOrderCore(cfg)
        want = fresh.run(trace, record_timeline=True)
        core = OutOfOrderCore(cfg)
        for _ in range(2):
            assert core.run_lowered(trace.lower(), record_timeline=True) == want
            assert core.timeline == fresh.timeline
            assert core.run(trace, record_timeline=True) == want
            assert core.timeline == fresh.timeline

    def test_simulate_trace_uses_fresh_cores(self):
        trace = _kernel_trace("comp", "scalar")
        cfg = MachineConfig.for_way(4)
        assert simulate_trace(trace, cfg) == simulate_trace(trace, cfg)
