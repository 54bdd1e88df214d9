"""Speed floors: each fast path must stay a set factor ahead of its oracle.

Every check here times both sides in this process with
:func:`time.perf_counter` and asserts a ratio (or a loose absolute rate
with wide slack), so it holds on any machine that runs the suite.  The
equivalence suites pin what these paths compute; these tests pin only that
they stay fast.  End-to-end numbers of what users run live in
``perfbench/``.

* the lowered interpreter: >= 2x the object loop, > 200 k instr/s;
* the vector batch backend: >= 3x the per-config lowered loop at 768
  configurations;
* the column front end: trace construction and the whole cold build
  pipeline >= 3x the object path;
* the NumPy ``Memory`` array helpers: > 10 M lanes/s;
* the sweep engine: pool supervision is noise on a healthy sweep, and a
  trace-cache warm miss builds nothing and is not drastically slower than
  an uncached run.
"""

from __future__ import annotations

import time

import numpy as np

from repro.common.datatypes import S16
from repro.experiments.figure4 import figure4_sweep
from repro.experiments.runner import run_kernel
from repro.frontend.machine import Memory
from repro.kernels.base import ISA_VARIANTS
from repro.kernels.registry import KERNELS
from repro.sweep import SweepEngine
from repro.timing.config import MachineConfig
from repro.timing.core import OutOfOrderCore, simulate_trace
from repro.timing.dispatch import simulate_batch
from repro.trace.container import Trace
from repro.workloads.generators import WorkloadSpec


def _timed(fn):
    """``(result, seconds)`` of one call of ``fn``."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _best_of(fn, rounds: int) -> float:
    return min(_timed(fn)[1] for _ in range(rounds))


# ----------------------------------------------------------------------
# Timing core.

def _reference_trace():
    """``motion1/scalar`` (~4 k instructions) on the 4-way machine."""
    config = MachineConfig.for_way(4)
    trace = run_kernel("motion1", "scalar", config=config).build.trace
    return trace, trace.lower(), config


def test_lowered_speedup_vs_object_loop():
    """``run_lowered()`` must be >= 2x the object loop on the reference
    trace, with an identical result (locally ~3x)."""
    trace, lowered, config = _reference_trace()

    expected = OutOfOrderCore(config).run(trace)
    result = OutOfOrderCore(config).run_lowered(lowered)
    assert result == expected, "lowered backend drifted from the object loop"

    object_best = _best_of(lambda: OutOfOrderCore(config).run(trace), 5)
    lowered_best = _best_of(
        lambda: OutOfOrderCore(config).run_lowered(lowered), 5)
    speedup = object_best / lowered_best
    assert speedup >= 2.0, (
        f"lowered backend is only {speedup:.2f}x the object loop "
        f"({object_best * 1e3:.2f} ms vs {lowered_best * 1e3:.2f} ms)")


def test_simulate_trace_throughput_floor():
    """A deliberately loose floor: the lowered backend must stay well above
    the old object loop's ~240 k instr/s (locally ~800 k instr/s; the slack
    absorbs loaded runners).  The rate is over the mean of the rounds."""
    trace, _, config = _reference_trace()
    rounds = 10
    _, elapsed = _timed(lambda: [simulate_trace(trace, config)
                                 for _ in range(rounds)])
    rate = len(trace) * rounds / elapsed
    assert rate > 200_000, f"timing core regressed to {rate:.0f} instr/s"


def _structural_grid(count):
    """A figure-4-style structural ablation grid: issue widths x short
    memory latencies x per-resource variants, ``count`` configs total."""
    variants = [{}, {"rob_size": 32}, {"rob_size": 128},
                {"phys_int_regs": 48}, {"num_int_alu": 2},
                {"phys_media_regs": 40}, {"num_int_mul": 2},
                {"mem_port_width": 1}]
    grid = []
    while len(grid) < count:
        for updates in variants:
            for way in (2, 4, 8):
                for latency in (1, 2, 4):
                    grid.append(MachineConfig.for_way(
                        way, mem_latency=latency, **updates))
                    if len(grid) == count:
                        return grid
    return grid


def test_vector_batch_speedup_vs_looped_lowered():
    """Over a 768-config structural ablation group the vector backend must
    be >= 3x faster per configuration than looping ``run_lowered()``, with
    bit-identical results.

    The two paths run interleaved on the same lowered trace and each keeps
    its best round, so load drift hits both.  The ratio shrinks with the
    group: below ``VECTOR_MIN_BATCH`` configs the vector path loses, which
    is why ``auto`` keeps small groups on the lowered interpreter.
    """
    lowered = run_kernel("motion1", "scalar").build.trace.lower()
    configs = _structural_grid(768)

    loop_best = vector_best = float("inf")
    for _ in range(2):
        expected, elapsed = _timed(lambda: simulate_batch(
            lowered, configs, backend="lowered"))
        loop_best = min(loop_best, elapsed)
        results, elapsed = _timed(lambda: simulate_batch(
            lowered, configs, backend="vector"))
        vector_best = min(vector_best, elapsed)
        assert results == expected, "vector backend drifted from run_lowered"

    speedup = loop_best / vector_best
    assert speedup >= 3.0, (
        f"vector batch backend is only {speedup:.2f}x the per-config "
        f"lowered loop over {len(configs)} configs "
        f"({loop_best * 1e3:.0f} ms vs {vector_best * 1e3:.0f} ms)")


# ----------------------------------------------------------------------
# Front end.

#: One emission stream per kernel x ISA point of the reference grid.
_GRID = [(kernel, isa) for kernel in KERNELS for isa in ISA_VARIANTS]


def _capture_streams():
    """The grid's real emission streams, as replayable call tuples."""
    streams = []
    for kernel_name, isa in _GRID:
        trace = KERNELS[kernel_name].run_variant(isa).trace
        calls = [(i.opcode, i.opclass, i.srcs, i.dsts, i.ops, i.vlx, i.vly,
                  i.is_vector, i.non_pipelined, i.isa) for i in trace]
        streams.append((trace.name, trace.isa, calls))
    return streams


def _construct(streams, columns: bool):
    """Replay every stream through one emission mode, to cache payloads.

    This is the cold front-end pipeline minus the kernels' functional
    semantics: emit every instruction, lower, serialize the trace.  The
    lowering's id columns ride along so the two modes' lowerings are
    compared too.
    """
    payloads = []
    for name, isa, calls in streams:
        trace = Trace(name=name, isa=isa, columns=columns)
        emit = trace.emit
        for call in calls:
            emit(*call)
        lowered = trace.lower()
        payloads.append((trace.to_payload(), lowered.num_regs,
                         lowered.shapes, lowered.shape_ids, lowered.srcs,
                         lowered.dsts, lowered.opcodes, lowered.opcode_ids))
    return payloads


def test_trace_construction_speedup_vs_object_path():
    """Column-built trace construction must be >= 3x the object path on
    the reference grid's real streams, with identical payloads (locally
    ~5x).  The object path pays one ``DynInstr``, the ``lower_trace`` pass
    and the payload re-interning per instruction; the column path interns
    once at emission."""
    streams = _capture_streams()

    assert _construct(streams, columns=True) == _construct(
        streams, columns=False), "column path drifted from the object path"

    object_best = _best_of(lambda: _construct(streams, columns=False), 5)
    column_best = _best_of(lambda: _construct(streams, columns=True), 5)
    speedup = object_best / column_best
    assert speedup >= 3.0, (
        f"column trace construction only {speedup:.2f}x the object path "
        f"({object_best * 1e3:.1f} ms -> {column_best * 1e3:.1f} ms)")


def test_cold_build_pipeline_speedup():
    """The end-to-end cold build of the grid, functional execution
    included (``run_variant`` + lower + payload), must be >= 3x faster in
    column mode than in object mode (locally ~6x: block emission skips the
    middle loop iterations the object mode replays one by one)."""

    def pipeline(columns: bool) -> None:
        for kernel_name, isa in _GRID:
            result = KERNELS[kernel_name].run_variant(isa, columns=columns)
            result.trace.lower()
            result.trace.to_payload()

    object_best = _best_of(lambda: pipeline(False), 3)
    column_best = _best_of(lambda: pipeline(True), 3)
    speedup = object_best / column_best
    assert speedup >= 3.0, (
        f"cold build pipeline regressed: column mode only {speedup:.2f}x "
        f"the object emission mode")


def test_memory_array_helpers_vectorized():
    """Bulk memory traffic (workload setup, result extraction) must be a
    vectorised pass, not a per-element Python loop (which managed ~1 M
    lanes/s).  The rate is over the mean of the rounds."""
    lanes = 1 << 16
    rng = np.random.default_rng(99)
    data = rng.integers(-(1 << 15), 1 << 15, size=lanes, dtype=np.int64)
    mem = Memory(size=1 << 20)
    addr = mem.alloc_array(data, S16)

    def roundtrip():
        mem.write_array(addr, data, S16)
        return mem.read_array(addr, lanes, S16)

    assert np.array_equal(roundtrip(), data)
    rounds = 50
    _, elapsed = _timed(lambda: [roundtrip() for _ in range(rounds)])
    rate = lanes * 2 * rounds / elapsed  # one write + one read per round
    assert rate > 10_000_000, (
        f"memory array helpers regressed to {rate:.0f} lanes/s")


# ----------------------------------------------------------------------
# Sweep engine.

_KERNELS = ("comp", "h2v2", "addblock")
_SPEC = WorkloadSpec()


def test_sweep_supervision_overhead():
    """Supervised execution must be ~free when nothing goes wrong: with
    ``task_timeout`` set, the per-task deadlines and the timed wait loop
    must neither fire nor cost real time against the plain pool run."""
    sweep = figure4_sweep(kernels=_KERNELS, ways=(1, 4), spec=_SPEC)

    plain, plain_elapsed = _timed(lambda: SweepEngine(jobs=2).run(sweep))
    engine = SweepEngine(jobs=2, task_timeout=300.0)
    results, supervised_elapsed = _timed(lambda: engine.run(sweep))

    assert engine.report.timeouts == 0
    assert engine.report.pool_restarts == 0
    assert not engine.report.failures
    assert [r.sim.cycles for r in results] == [r.sim.cycles for r in plain]
    assert supervised_elapsed < plain_elapsed * 3.0 + 1.0, (
        "deadline bookkeeping should be noise on a healthy sweep "
        f"({supervised_elapsed:.3f}s vs {plain_elapsed:.3f}s)")


def test_sweep_warm_miss_trace_cache(tmp_path):
    """A warm *miss* — a new machine configuration over cached traces —
    misses the result cache on every point but hits the trace cache, so
    it runs zero functional builds.

    Block emission made cold builds cheap enough that reviving cached
    traces no longer reliably beats rebuilding them on a sweep this small;
    zero builds is the functional guarantee, and a loose ceiling catches a
    pathological cache overhead.
    """
    populate = figure4_sweep(kernels=_KERNELS, ways=(1, 4), spec=_SPEC)
    SweepEngine(jobs=1, cache_dir=str(tmp_path)).run(populate)
    miss_sweep = figure4_sweep(kernels=_KERNELS, ways=(2,), spec=_SPEC)

    uncached, uncached_elapsed = _timed(
        lambda: SweepEngine(jobs=1).run(miss_sweep))
    engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
    results, warm_elapsed = _timed(lambda: engine.run(miss_sweep))

    assert engine.report.cached == 0, "a new config must miss the result cache"
    assert engine.report.trace_builds == 0, "warm miss must do zero trace builds"
    assert engine.report.trace_hits == len(results)
    assert [r.sim for r in results] == [r.sim for r in uncached]
    assert warm_elapsed < uncached_elapsed * 4.0, (
        "trace-cache warm miss should not be drastically slower than an "
        f"uncached run ({warm_elapsed:.3f}s vs {uncached_elapsed:.3f}s)")
