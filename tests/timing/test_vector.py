"""Vector-backend equivalence: ``simulate_batch(backend="vector")`` ==
per-config loops.

The NumPy batch backend (repro.timing.vector) must be *bit-identical* to
looping :meth:`OutOfOrderCore.run_lowered` over the batch — same cycles,
same stall breakdown, same per-instruction timelines — for every trace and
every configuration batch, including batches of one and batches with
duplicates.  These tests pin that across kernels x ISAs x a configuration
grid, on adversarial hand-written traces, and on Hypothesis-drawn random
configuration batches; plus the adaptive loop/vector cut-over and the
dispatch layer's backend resolution.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.opclasses import OpClass, RegFile
from repro.kernels.base import ISA_VARIANTS
from repro.kernels.registry import kernel_names
from repro.timing import vector as vector_mod
from repro.timing.config import MachineConfig
from repro.timing.core import OutOfOrderCore
from repro.timing.dispatch import (BACKENDS, resolve_execution,
                                   simulate_batch, simulate_lowered)
from repro.timing.lowered import lower_trace
from repro.timing.vector import VECTOR_MIN_BATCH
from repro.trace.container import Trace
from repro.trace.instruction import DynInstr, RegRef
from repro.workloads.generators import WorkloadSpec

#: A deliberately heterogeneous batch: every issue width, the paper's
#: memory latencies, tight ROB/queue/register-file ablations, a
#: capacity-0 (unconstrained) queue config, and a duplicate entry.
CONFIG_BATCH = (
    MachineConfig.for_way(1),
    MachineConfig.for_way(2),
    MachineConfig.for_way(4),
    MachineConfig.for_way(8),
    MachineConfig.for_way(4, mem_latency=50),
    MachineConfig.for_way(8, mem_latency=12),
    MachineConfig.for_way(4).with_updates(
        rob_size=8, num_media_fu=1, phys_media_regs=34, media_lanes=4),
    MachineConfig.for_way(1, mem_latency=50).with_updates(
        int_queue_size=2, mem_queue_size=2, media_queue_size=2),
    MachineConfig.for_way(4).with_updates(
        int_queue_size=0, mem_queue_size=0, media_queue_size=0),
    MachineConfig.for_way(4, mem_latency=12).with_updates(
        int_queue_size=8, mem_queue_size=8, media_queue_size=8),
    MachineConfig.for_way(4),  # duplicate of entry 2
)


#: The dense-grid sweep's machines: every issue width x 16 memory
#: latencies, 64 configs, whose 1-wide members keep their 8-entry issue
#: queues full.
DENSE_GRID = tuple(
    MachineConfig.for_way(way, mem_latency=latency)
    for way in (1, 2, 4, 8)
    for latency in (1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 25, 30, 35, 40, 45, 50))

#: Issue-queue capacities 0 (unbounded), 1, 8 and 64, alone and mixed
#: across the three queues, in one batch.
QUEUE_MIX = tuple(
    MachineConfig.for_way(way).with_updates(
        int_queue_size=int_q, mem_queue_size=mem_q, media_queue_size=media_q)
    for way in (1, 4)
    for int_q, mem_q, media_q in ((0, 0, 0), (1, 1, 1), (8, 8, 8),
                                  (64, 64, 64), (0, 1, 8), (1, 8, 64),
                                  (64, 0, 1), (8, 64, 0)))


@lru_cache(maxsize=None)
def _kernel_trace(kernel: str, isa: str, scale: int = 1) -> Trace:
    from repro.experiments.runner import build_kernel_variant

    return build_kernel_variant(kernel, isa,
                                spec=WorkloadSpec(scale=scale)).trace


def _loop_reference(lowered, configs):
    """Per-config lowered runs: (results, timelines)."""
    results, timelines = [], []
    for config in configs:
        core = OutOfOrderCore(config)
        results.append(core.run_lowered(lowered, record_timeline=True))
        timelines.append(core.timeline)
    return results, timelines


def _assert_batch_equivalent(trace: Trace, configs, label: str = ""):
    lowered = lower_trace(trace)
    batch = simulate_batch(lowered, configs, backend="vector",
                           record_timeline=True)
    expected, timelines = _loop_reference(lowered, configs)
    assert len(batch) == len(configs)
    for got, want, timeline, config in zip(batch, expected, timelines,
                                           configs):
        assert got == want, (
            f"{label}: SimResult drifted on {config.name}/"
            f"lat{config.mem_latency}")
        assert got.stall_breakdown == want.stall_breakdown, label
        assert got.timeline == timeline, (
            f"{label}: timeline drifted on {config.name}")
    return expected


# ----------------------------------------------------------------------
# Real kernel traces: all kernels x ISAs x the batch.

@pytest.mark.parametrize("kernel", kernel_names())
@pytest.mark.parametrize("isa", ISA_VARIANTS)
def test_vector_equals_loop_on_kernels(kernel, isa):
    _assert_batch_equivalent(_kernel_trace(kernel, isa), CONFIG_BATCH,
                             label=f"{kernel}/{isa}")


@pytest.mark.parametrize("kernel, isa", [("comp", "scalar"), ("idct", "mmx")])
@pytest.mark.parametrize("batch", ["dense_grid", "queue_mix"])
def test_vector_equals_loop_with_full_issue_queues(kernel, isa, batch):
    """The regime where issue queues bind: the dense grid at the kernels'
    default scale, and a batch mixing queue capacities 0, 1, 8 and 64."""
    from repro.kernels.catalog import default_scale

    configs = DENSE_GRID if batch == "dense_grid" else QUEUE_MIX
    expected = _assert_batch_equivalent(
        _kernel_trace(kernel, isa, default_scale(kernel)), configs,
        label=f"{kernel}/{isa} {batch}")
    assert any(r.stall_breakdown["issue_queue"] for r in expected)


def test_batch_of_one_and_empty_batch():
    trace = _kernel_trace("comp", "mom")
    _assert_batch_equivalent(trace, (MachineConfig.for_way(4),), "batch-1")
    assert simulate_batch(lower_trace(trace), [], backend="vector") == []


def test_duplicate_configs_produce_duplicate_results():
    trace = _kernel_trace("comp", "mmx")
    config = MachineConfig.for_way(2, mem_latency=12)
    batch = simulate_batch(lower_trace(trace), [config] * 5,
                           backend="vector")
    assert len(set((r.cycles, tuple(sorted(r.stall_breakdown.items())))
                   for r in batch)) == 1


def test_empty_trace():
    _assert_batch_equivalent(Trace("empty", "test"), CONFIG_BATCH, "empty")


def test_invalid_resources_raise_like_the_scalar_core():
    lowered = lower_trace(_kernel_trace("comp", "scalar"))
    with pytest.raises(ValueError, match="num_int_alu"):
        bad = MachineConfig.for_way(4).with_updates(num_int_alu=0)
        simulate_batch(lowered, [MachineConfig.for_way(4), bad],
                       backend="vector")


# ----------------------------------------------------------------------
# Hand-written adversarial traces (same corpus as the lowered suite).

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
        multi_dst.append(instr("wide", OpClass.MEDIA_MISC,
                               srcs=(med[0],), dsts=(med[1], acc),
                               ops=8, vlx=8, is_vector=True))

    vl_chain = Trace("vl_chain", "test")
    for _ in range(16):
        # A slow load, then a dozen vector-length writes that fill the
        # fixed-size VL rename pool behind it.
        vl_chain.append(instr("ld", OpClass.LOAD, srcs=(ints[0],),
                              dsts=(ints[1],)))
        for _ in range(12):
            vl_chain.append(instr("setvl", OpClass.IALU, srcs=(ints[2],),
                                  dsts=(vl,)))

    return [mdmx_chain, mom_reduce, transpose, mem_mix, multi_dst, vl_chain]


@pytest.mark.parametrize("trace", _adversarial_traces(),
                         ids=lambda t: t.name)
def test_vector_equals_loop_on_adversarial_traces(trace):
    _assert_batch_equivalent(trace, CONFIG_BATCH, label=trace.name)


def test_vl_rename_pool_binds():
    """The VL pool's capacity is the one not taken from the config: with
    physical == architectural in every file it alone stalls rename, and
    the array program agrees with the per-config interpreter."""
    vl_chain = next(t for t in _adversarial_traces() if t.name == "vl_chain")
    no_limit = MachineConfig.for_way(4, mem_latency=50).with_updates(
        phys_int_regs=32, phys_media_regs=32, phys_matrix_regs=16,
        phys_acc_regs=4)
    expected = _assert_batch_equivalent(vl_chain, (no_limit,),
                                        label="vl_chain")
    assert expected[0].stall_breakdown["rename_regs"] > 0


def test_same_pool_multi_dst_traces_decline_the_array_program(count_calls):
    """Two destinations in one rename pool break the sliding-window pool
    premise (a full pool pops exactly once per push), so those traces must
    run the per-config interpreter even when the array program is forced —
    bit-identity is unconditional — and resolve to it, so the executed
    backend is what gets recorded."""
    import random

    ints = [RegRef(RegFile.INT, i) for i in range(8)]
    rng = random.Random(7)
    trace = Trace("same_pool", "test")
    for _ in range(50):
        dsts = tuple(rng.sample(ints, 2))
        trace.append(instr("w2", OpClass.IALU,
                           srcs=tuple(rng.sample(ints, 2)), dsts=dsts))
    lowered = lower_trace(trace)
    assert lowered.has_same_pool_multi_dst
    assert not lower_trace(_kernel_trace("motion1", "mom")
                           ).has_same_pool_multi_dst

    for backend in ("auto", "vector"):
        assert resolve_execution(backend, VECTOR_MIN_BATCH, len(lowered),
                                 lowered=lowered) == "lowered"
    with pytest.raises(ValueError, match="two destinations"):
        simulate_lowered(lowered, [MachineConfig.for_way(4)], vector=True)

    vector_runs = count_calls(vector_mod, "_run_vector")
    tight = MachineConfig.for_way(1, mem_latency=12).with_updates(
        phys_int_regs=34, rob_size=16)
    batch = simulate_batch(lowered, [tight], backend="vector",
                           record_timeline=True)
    assert vector_runs == []
    core = OutOfOrderCore(tight)
    want = core.run_lowered(lowered, record_timeline=True)
    assert batch[0] == want
    assert batch[0].timeline == core.timeline


# ----------------------------------------------------------------------
# Hypothesis: random configuration batches (the satellite property test).

_KERNEL_CASES = [("motion1", "scalar"), ("idct", "mdmx"), ("h2v2", "mom"),
                 ("comp", "mmx")]


@st.composite
def random_config(draw) -> MachineConfig:
    """A random machine configuration spanning the model's stall paths."""
    way = draw(st.sampled_from([1, 2, 4, 8]))
    config = MachineConfig.for_way(
        way, mem_latency=draw(st.sampled_from([1, 12, 50])))
    updates = {}
    if draw(st.booleans()):
        updates["rob_size"] = draw(st.sampled_from([8, 32, 128]))
    if draw(st.booleans()):
        size = draw(st.sampled_from([0, 2, 8]))
        updates.update(int_queue_size=size, mem_queue_size=size,
                       media_queue_size=size)
    if draw(st.booleans()):
        updates["phys_media_regs"] = draw(st.sampled_from([33, 40]))
    if draw(st.booleans()):
        updates["media_lanes"] = draw(st.sampled_from([2, 4]))
    if draw(st.booleans()):
        updates["mem_port_width"] = draw(st.sampled_from([1, 4]))
    if draw(st.booleans()):
        updates["num_mem_ports"] = 1
    if updates:
        config = config.with_updates(**updates)
    return config


@st.composite
def config_batch(draw):
    """A batch of 1..6 random configs, sometimes with forced duplicates."""
    batch = draw(st.lists(random_config(), min_size=1, max_size=6))
    if len(batch) > 1 and draw(st.booleans()):
        batch.append(batch[0])  # explicit duplicate
    return batch


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from(_KERNEL_CASES), batch=config_batch())
def test_vector_equals_loop_on_random_config_batches(case, batch):
    """The satellite property: a random config batch through the forced
    array program equals per-config ``run_lowered`` — cycles, stall
    counters, and timelines — including batch-of-1 and duplicates."""
    _assert_batch_equivalent(_kernel_trace(*case), batch,
                             label=f"{case[0]}/{case[1]}")


# ----------------------------------------------------------------------
# Strategy selection and the dispatch layer.

class TestAdaptiveCutover:
    def test_small_batches_loop_large_batches_vectorise(self, count_calls):
        lowered = lower_trace(_kernel_trace("comp", "scalar"))
        vector_runs = count_calls(vector_mod, "_run_vector",
                                  lambda lowered, configs, *a: len(configs))
        few = [MachineConfig.for_way(4)] * 2
        many = [MachineConfig.for_way(4)] * VECTOR_MIN_BATCH
        simulate_batch(lowered, few)
        simulate_batch(lowered, many)
        simulate_batch(lowered, few, backend="vector")
        simulate_batch(lowered, many, backend="lowered")
        # Only the large auto batch and the forced small one vectorise.
        assert vector_runs == [VECTOR_MIN_BATCH, 2]


class TestDispatch:
    def test_resolve_execution(self):
        assert resolve_execution("auto", VECTOR_MIN_BATCH) == "vector"
        assert resolve_execution("auto", VECTOR_MIN_BATCH - 1) == "lowered"
        assert resolve_execution("object", 1000) == "object"
        assert resolve_execution("lowered", 1000) == "lowered"
        assert resolve_execution("vector", 1) == "vector"
        with pytest.raises(ValueError, match="unknown timing backend"):
            resolve_execution("jit", 4)

    def test_auto_respects_the_memory_budget(self, monkeypatch, count_calls):
        from repro.timing import dispatch
        from repro.timing.dispatch import VECTOR_AUTO_CELL_BUDGET

        n_huge = VECTOR_AUTO_CELL_BUDGET // VECTOR_MIN_BATCH + 1
        assert resolve_execution("auto", VECTOR_MIN_BATCH,
                                 n_huge) == "lowered"
        assert resolve_execution("auto", VECTOR_MIN_BATCH,
                                 n_huge - 1) == "vector"
        # an explicit request bypasses the budget
        assert resolve_execution("vector", VECTOR_MIN_BATCH,
                                 n_huge) == "vector"
        # and simulate_batch follows the same rule, which dispatch owns
        # (budget shrunk so the over-budget loop path stays cheap to run)
        lowered = lower_trace(_kernel_trace("comp", "scalar"))
        monkeypatch.setattr(dispatch, "VECTOR_AUTO_CELL_BUDGET",
                            len(lowered) * VECTOR_MIN_BATCH - 1)
        vector_runs = count_calls(vector_mod, "_run_vector")
        configs = [MachineConfig.for_way(4)] * VECTOR_MIN_BATCH
        assert len(simulate_batch(lowered, configs)) == VECTOR_MIN_BATCH
        assert vector_runs == []

    def test_backends_tuple_is_the_contract(self):
        assert BACKENDS == ("auto", "object", "lowered", "vector")

    @pytest.mark.parametrize("backend", ["object", "lowered", "vector"])
    def test_all_backends_agree(self, backend):
        trace = _kernel_trace("addblock", "mdmx")
        configs = [MachineConfig.for_way(1), MachineConfig.for_way(4),
                   MachineConfig.for_way(4, mem_latency=50)]
        got = simulate_batch(trace, configs, backend=backend,
                             record_timeline=True)
        want = simulate_batch(trace, configs, backend="lowered",
                              record_timeline=True)
        assert got == want
        assert [r.timeline for r in got] == [r.timeline for r in want]

    def test_object_backend_requires_a_trace(self):
        lowered = lower_trace(_kernel_trace("comp", "scalar"))
        with pytest.raises(TypeError, match="object backend"):
            simulate_batch(lowered, [MachineConfig.for_way(4)],
                           backend="object")

    def test_lowered_trace_accepted_by_array_backends(self):
        trace = _kernel_trace("comp", "scalar")
        lowered = lower_trace(trace)
        configs = [MachineConfig.for_way(2)] * 2
        assert (simulate_batch(lowered, configs, backend="vector")
                == simulate_batch(trace, configs, backend="lowered"))
