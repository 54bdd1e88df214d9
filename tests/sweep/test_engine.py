"""Tests of the sweep engine: parallel/serial/direct equivalence + caching.

The central guarantee: however a point gets executed — serially in-process,
on a worker pool, via the cache, or through a bare ``run_kernel`` call — the
resulting :class:`~repro.timing.results.SimResult` is identical. The tests
here pin it pairwise on small sweeps; ``test_result_paths.py`` checks every
result path of the Figure 4 comp slice against the goldens.
"""

from __future__ import annotations

import json
import os

import pytest

import repro.versions
from repro.experiments.figure4 import run_figure4
from repro.experiments.runner import run_kernel
from repro.sweep import (
    ResultCache,
    SweepEngine,
    SweepPoint,
    SweepSpec,
    point_key,
    resolve_spec,
)
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec

_SPEC = WorkloadSpec(scale=1, seed=7)
_KERNELS = ("comp", "addblock")


def _two_way_sweep(ways=(1, 2)) -> SweepSpec:
    """One kernel on 1- and 2-wide cores: the result store's smallest
    non-trivial sweep."""
    return SweepSpec.make(kernels=["comp"],
                          configs=[MachineConfig.for_way(w) for w in ways],
                          spec=_SPEC)


def small_sweep() -> SweepSpec:
    return SweepSpec.make(
        kernels=_KERNELS,
        configs=[MachineConfig.for_way(1), MachineConfig.for_way(4)],
        spec=_SPEC,
    )


class TestSpecExpansion:
    def test_cartesian_product_size(self):
        sweep = small_sweep()
        points = list(sweep.points())
        assert len(points) == len(sweep) == 2 * 2 * 4

    def test_expansion_is_deterministic(self):
        a = list(small_sweep().points())
        b = list(small_sweep().points())
        assert a == b

    def test_kernels_none_means_all(self):
        sweep = SweepSpec.make(spec=_SPEC)
        assert len(sweep.kernel_names()) == 9

    def test_resolve_spec_defaults_to_kernel_scale(self):
        from repro.kernels.registry import get_kernel

        spec = resolve_spec("comp", None)
        assert spec.scale == get_kernel("comp").default_scale
        assert resolve_spec("comp", _SPEC) is _SPEC

    def test_points_are_resolved(self):
        for point in SweepSpec.make(kernels=["comp"]).points():
            assert point.spec is not None


class TestEquivalence:
    """Parallel engine == serial fallback == direct run_kernel calls."""

    def test_serial_equals_parallel_equals_direct(self):
        sweep = small_sweep()
        points = list(sweep.points())

        serial_engine = SweepEngine(jobs=1)
        serial = serial_engine.run(sweep)

        parallel_engine = SweepEngine(jobs=2)
        parallel = parallel_engine.run(sweep)

        direct = [run_kernel(p.kernel, p.isa, config=p.config, spec=p.spec).sim
                  for p in points]

        assert [r.sim for r in serial] == [r.sim for r in parallel]
        assert [r.sim for r in serial] == direct
        # stats travel with the results and agree too
        assert [r.stats for r in serial] == [r.stats for r in parallel]

    def test_forced_serial_fallback_matches(self, monkeypatch):
        """If the pool cannot start, the engine degrades to identical serial
        results instead of failing."""
        import repro.sweep.engine as engine_mod

        def broken_pool(*args, **kwargs):
            raise OSError("no fork for you")

        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", broken_pool)
        engine = SweepEngine(jobs=4)
        results = engine.run(small_sweep())
        assert engine.last_fallback_reason is not None
        baseline = SweepEngine(jobs=1).run(small_sweep())
        assert [r.sim for r in results] == [r.sim for r in baseline]


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        sweep = small_sweep()
        cold_engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
        cold = cold_engine.run(sweep)
        assert cold_engine.last_simulated == len(sweep)
        assert cold_engine.last_cached == 0
        assert all(not r.cached for r in cold)

        warm_engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
        warm = warm_engine.run(sweep)
        assert warm_engine.last_simulated == 0, "warm re-run must do zero simulations"
        assert warm_engine.last_cached == len(sweep)
        assert all(r.cached for r in warm)
        assert [r.sim for r in cold] == [r.sim for r in warm]
        assert [r.stats for r in cold] == [r.stats for r in warm]
        # and both equal a run with no cache at all
        assert [r.sim for r in warm] == [r.sim for r in
                                         SweepEngine().run(sweep)]

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        sweep = small_sweep()
        v1 = SweepEngine(jobs=1, cache_dir=str(tmp_path))
        v1.run(sweep)
        assert v1.last_simulated == len(sweep)

        still_v1 = SweepEngine(jobs=1, cache_dir=str(tmp_path))
        still_v1.run(sweep)
        assert still_v1.last_simulated == 0

        # The live stamp is read at key time: an engine built before the
        # bump misses too.
        v2 = SweepEngine(jobs=1, cache_dir=str(tmp_path))
        monkeypatch.setattr(repro.versions, "MODEL_VERSION", "v2")
        v2.run(sweep)
        assert v2.last_simulated == len(sweep), "version bump must miss the cache"

    def test_partial_cache(self, tmp_path):
        cfg = MachineConfig.for_way(4)
        a = SweepPoint("comp", "mom", cfg, _SPEC)
        b = SweepPoint("comp", "mmx", cfg, _SPEC)
        SweepEngine(jobs=1, cache_dir=str(tmp_path)).run([a])
        engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
        results = engine.run([a, b])
        assert engine.last_cached == 1
        assert engine.last_simulated == 1
        assert results[0].cached and not results[1].cached

    def test_key_is_stable_and_sensitive(self, monkeypatch):
        cfg = MachineConfig.for_way(4)
        point = SweepPoint("comp", "mom", cfg, _SPEC)
        assert point_key(point) == point_key(point)
        assert point_key(point) != point_key(
            SweepPoint("comp", "mmx", cfg, _SPEC))
        assert point_key(point) != point_key(
            SweepPoint("comp", "mom", cfg.with_updates(mem_latency=12), _SPEC))
        assert point_key(point) != point_key(
            SweepPoint("comp", "mom", cfg, WorkloadSpec(scale=1, seed=8)))
        key = point_key(point)
        monkeypatch.setattr(repro.versions, "MODEL_VERSION", "other")
        assert point_key(point) != key

    def test_cache_entries_are_json_on_disk(self, tmp_path):
        cfg = MachineConfig.for_way(4)
        point = SweepPoint("comp", "mom", cfg, _SPEC)
        SweepEngine(jobs=1, cache_dir=str(tmp_path)).run([point])
        (segment,) = os.listdir(tmp_path / "log")
        assert segment.endswith(f"-{os.getpid()}.jsonl")
        (line,) = (tmp_path / "log" / segment).read_text().splitlines()
        entry = json.loads(line)
        assert entry["key"] == point_key(point)
        assert entry["kernel"] == "comp"
        assert entry["isa"] == "mom"
        assert entry["sim"]["cycles"] > 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cfg = MachineConfig.for_way(4)
        point = SweepPoint("comp", "mom", cfg, _SPEC)
        engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
        cold = engine.run([point])
        (segment,) = (tmp_path / "log").iterdir()
        segment.write_text("{not json\n")
        again = SweepEngine(jobs=1, cache_dir=str(tmp_path))
        results = again.run([point])
        assert again.last_simulated == 1
        assert results[0].sim == cold[0].sim

    def test_warm_rerun_simulates_nothing(self, tmp_path):
        sweep = _two_way_sweep()
        SweepEngine(cache_dir=str(tmp_path)).run(sweep)
        engine = SweepEngine(cache_dir=str(tmp_path))
        assert isinstance(engine.cache, ResultCache)
        engine.run(sweep)
        assert engine.last_cached == len(sweep)
        assert engine.last_simulated == 0

    def test_version_bump_resimulates(self, tmp_path, monkeypatch):
        sweep = _two_way_sweep(ways=(1,))
        SweepEngine(cache_dir=str(tmp_path)).run(sweep)
        monkeypatch.setattr(repro.versions, "MODEL_VERSION", "bumped")
        engine = SweepEngine(cache_dir=str(tmp_path))
        engine.run(sweep)
        assert engine.last_simulated == len(sweep)

    def test_warm_results_equal_cold(self, tmp_path):
        sweep = _two_way_sweep(ways=(1,))
        cold = SweepEngine().run(sweep)
        SweepEngine(cache_dir=str(tmp_path)).run(sweep)
        warm = SweepEngine(cache_dir=str(tmp_path)).run(sweep)
        assert [r.sim for r in warm] == [r.sim for r in cold]


class TestTraceBatching:
    """Points sharing a trace are simulated off one build and one lowering —
    the warm-up guarantee: each distinct trace is built exactly once per
    sweep, in any execution mode."""

    def _multi_config_sweep(self):
        return SweepSpec.make(
            kernels=_KERNELS,
            configs=[MachineConfig.for_way(w) for w in (1, 2, 4)],
            spec=_SPEC,
        )

    def test_serial_sweep_builds_each_trace_once(self, build_counter,
                                                 lowering_counter):
        sweep = self._multi_config_sweep()
        distinct_traces = len(_KERNELS) * 4  # kernels x ISAs
        engine = SweepEngine(jobs=1)
        results = engine.run(sweep)
        assert len(results) == distinct_traces * 3
        assert len(build_counter) == distinct_traces
        assert sorted(build_counter) == sorted(set(build_counter))
        # one lowering per distinct trace, not per point
        assert len(lowering_counter) == distinct_traces
        assert engine.last_trace_builds == distinct_traces

    def test_cold_parallel_sweep_builds_each_trace_once(self, tmp_path):
        """Under a pool each trace group is one task, so even a completely
        cold cache sees exactly one build (= one on-disk entry write) per
        distinct trace — no duplicate concurrent builds."""
        sweep = self._multi_config_sweep()
        distinct_traces = len(_KERNELS) * 4
        engine = SweepEngine(jobs=4, cache_dir=str(tmp_path))
        results = engine.run(sweep)
        assert len(results) == distinct_traces * 3
        assert engine.last_trace_builds == distinct_traces
        # and the batched results are bit-identical to unbatched direct runs
        direct = [run_kernel(r.point.kernel, r.point.isa,
                             config=r.point.config, spec=r.point.spec).sim
                  for r in results]
        assert [r.sim for r in results] == direct

    def test_batched_results_match_direct_runs(self):
        sweep = self._multi_config_sweep()
        results = SweepEngine(jobs=1).run(sweep)
        for r in results:
            direct = run_kernel(r.point.kernel, r.point.isa,
                                config=r.point.config, spec=r.point.spec)
            assert r.sim == direct.sim
            assert r.stats == direct.stats

    def test_cold_groups_are_never_split(self, tmp_path):
        """An uncached group stays one task — splitting it would duplicate
        the front-end build."""
        configs = [MachineConfig.for_way(w) for w in (1, 2, 4, 8)]
        sweep = SweepSpec.make(kernels=["comp"], isas=("mom",),
                               configs=configs, spec=_SPEC)
        engine = SweepEngine(jobs=4, cache_dir=str(tmp_path))
        engine.run(sweep)
        if engine.last_fallback_reason is None:
            assert engine.last_pool_tasks == 1
        assert engine.last_trace_builds == 1


class TestFigure4ThroughEngine:
    """Acceptance: the Figure 4 sweep via the engine with jobs=4 matches the
    golden (seed sequential) cycle counts, and a warm re-run simulates
    nothing."""

    def test_parallel_figure4_matches_golden_snapshot(self, tmp_path):
        golden_path = os.path.join(os.path.dirname(__file__), "..", "golden",
                                   "way4_lat1.json")
        with open(golden_path) as f:
            golden = json.load(f)["results"]

        engine = SweepEngine(jobs=4, cache_dir=str(tmp_path))
        results = run_figure4(kernels=["comp", "h2v2"], ways=(4,),
                              engine=engine)
        for kernel, per_isa in results.items():
            for isa, per_way in per_isa.items():
                assert per_way[4].cycles == golden[f"{kernel}/{isa}"]["cycles"]

        warm = SweepEngine(jobs=4, cache_dir=str(tmp_path))
        run_figure4(kernels=["comp", "h2v2"], ways=(4,), engine=warm)
        assert warm.last_simulated == 0


class TestBackendRouting:
    """Every simulated trace group goes through the timing package's batch
    dispatch, and the engine records each group's (size, executed
    backend): the group size alone picks the backend."""

    def _figure4_grid(self):
        """The Figure 4 grid as `repro sweep` would expand it: every ISA of
        each kernel across the four issue widths at 1-cycle memory."""
        from repro.experiments.figure4 import figure4_sweep

        return figure4_sweep(kernels=["comp"], ways=(1, 2, 4, 8), spec=_SPEC)

    def test_warm_figure4_grid_routes_through_batch_backend_serially(
            self, tmp_path, count_calls, monkeypatch):
        """Acceptance: a warm (trace-cached) figure-4 grid sweep simulates
        every group through the dispatch's lowered loop on the serial
        path, and never loads the vector backend for it."""
        from repro.timing import dispatch

        sweep = self._figure4_grid()
        SweepEngine(cache_dir=str(tmp_path)).run(sweep)  # warm the traces

        # simulate_batch calls the loop by its module-global name.
        batches = count_calls(
            dispatch, "simulate_lowered",
            lambda lowered, configs, vector=False, **kw: (len(configs),
                                                          vector))
        # A model bump misses every result but no trace.
        monkeypatch.setattr(repro.versions, "MODEL_VERSION", "v2")
        engine = SweepEngine(cache_dir=str(tmp_path))
        results = engine.run(sweep)
        assert engine.last_trace_builds == 0, "trace cache must be warm"
        groups = 4  # one kernel x four ISAs
        assert len(results) == groups * 4
        # the engine's own record: every group went through the dispatch
        assert sorted(engine.last_batches) == [(4, "lowered")] * groups
        # and the dispatch loop itself ran every group, none vectorised
        assert batches == [(4, False)] * groups

    def test_warm_figure4_grid_routes_through_batch_backend_with_jobs(
            self, tmp_path, monkeypatch):
        """Acceptance: same grid under --jobs — each pool task returns its
        group's executed-backend record to the parent."""
        sweep = self._figure4_grid()
        SweepEngine(cache_dir=str(tmp_path)).run(sweep)

        monkeypatch.setattr(repro.versions, "MODEL_VERSION", "v2")
        engine = SweepEngine(jobs=2, cache_dir=str(tmp_path))
        results = engine.run(sweep)
        assert len(results) == 16
        assert engine.last_trace_builds == 0
        assert len(engine.last_batches) >= 4
        assert all(mode in ("lowered", "vector")
                   for _n, mode in engine.last_batches)
        assert sum(n for n, _mode in engine.last_batches) == 16
        baseline = SweepEngine().run(sweep)
        assert [r.sim for r in results] == [r.sim for r in baseline]

    def test_auto_uses_vector_for_large_groups(self):
        from repro.timing.vector import VECTOR_MIN_BATCH

        configs = [MachineConfig.for_way(4, mem_latency=lat)
                   for lat in range(1, VECTOR_MIN_BATCH + 1)]
        sweep = SweepSpec.make(kernels=["comp"], isas=("mom",),
                               configs=configs, spec=_SPEC)
        engine = SweepEngine()
        engine.run(sweep)
        assert engine.last_batches == [(VECTOR_MIN_BATCH, "vector")]

    def test_declined_vector_group_records_the_lowered_loop(
            self, count_calls):
        """idct/mom writes two matrix registers in one row
        (``mom_transpose_pair``), which the array program declines: its
        64-config group runs the lowered loop and is recorded as such."""
        from repro.timing import vector
        from repro.timing.vector import VECTOR_MIN_BATCH

        vector_runs = count_calls(vector, "_run_vector")
        configs = [MachineConfig.for_way(4, mem_latency=lat)
                   for lat in range(1, VECTOR_MIN_BATCH + 1)]
        sweep = SweepSpec.make(kernels=["idct"], isas=("mom",),
                               configs=configs, spec=_SPEC)
        engine = SweepEngine()
        engine.run(sweep)
        assert engine.last_batches == [(VECTOR_MIN_BATCH, "lowered")]
        assert vector_runs == []

    def test_backend_is_not_an_engine_option(self):
        with pytest.raises(TypeError):
            SweepEngine(backend="vector")

    @pytest.mark.parametrize("call", [
        lambda: SweepEngine(supervision=None),
        lambda: SweepEngine(resume_failed="skip"),
        lambda: SweepEngine().run([], keep_builds=True),
        lambda: SweepEngine().run([], journal="j.jsonl"),
        lambda: run_figure4(jobs=2),
    ], ids=["supervision", "resume_failed", "keep_builds", "run-journal",
            "driver-jobs"])
    def test_removed_options_are_gone(self, call):
        """One way to configure a run: the engine's constructor."""
        with pytest.raises(TypeError):
            call()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_nonpositive_jobs_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            SweepEngine(jobs=jobs)


class TestVerification:
    """One verification rule and one version rule: every build is checked
    against its golden reference, and every store is keyed by the live
    versions — no caller can switch either off."""

    @pytest.mark.parametrize("call", [
        lambda: SweepEngine(check=False),
        lambda: SweepEngine(version="x"),
        lambda: SweepEngine(trace_cache=False),
        lambda: ResultCache("unused", version="x"),
        lambda: point_key(SweepPoint("comp", "mom", MachineConfig()),
                          version="x"),
        lambda: run_kernel("comp", "mom", check=False),
    ], ids=["engine-check", "engine-version", "engine-trace_cache",
            "cache-version", "point_key-version", "run_kernel-check"])
    def test_knobs_are_gone(self, call):
        with pytest.raises(TypeError):
            call()

    def test_wrong_builds_yield_only_failures_on_every_path(
            self, tmp_path, monkeypatch):
        """A build that fails its golden check never yields numbers:
        serial, pooled, over a cache, or resumed from a journal."""
        from repro.kernels.base import KernelBuildResult

        monkeypatch.setattr(KernelBuildResult, "correct",
                            property(lambda self: False))
        sweep = SweepSpec.make(kernels=["comp"], isas=("mmx", "mom"),
                               configs=[MachineConfig.for_way(1),
                                        MachineConfig.for_way(4)],
                               spec=_SPEC)
        cache_dir = str(tmp_path / "cache")
        journal = str(tmp_path / "sweep.jsonl")
        engines = [SweepEngine(), SweepEngine(jobs=2),
                   SweepEngine(cache_dir=cache_dir),
                   SweepEngine(cache_dir=cache_dir),  # the cached re-run
                   SweepEngine(journal=journal),
                   SweepEngine(journal=journal)]      # the resume
        for engine in engines:
            results = engine.run(sweep)
            assert len(results) == len(sweep)
            assert all(not r.ok and r.sim is None and r.stats is None
                       and r.failure.error_type == "AssertionError"
                       for r in results)
            assert engine.last_simulated == 0
            assert engine.last_cached == engine.last_journaled == 0
        assert not os.path.exists(cache_dir), "a failed build was stored"


class TestColumnFastPathAccounting:
    """PR 5 regression: the column emission fast path is what the engine's
    builds run through, and the build-counter / zero-build guarantees of
    the trace cache hold for it unchanged."""

    def test_cold_build_goes_through_columns_and_fires_hook(self, tmp_path,
                                                            build_counter):
        from repro.sweep.tracecache import TraceCache

        engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
        engine.run(small_sweep())
        distinct = len(_KERNELS) * 4
        assert len(build_counter) == distinct, \
            "every column-path build must be counted"
        assert engine.last_trace_builds == distinct
        # the cache entries written from columns revive as full traces
        cache = TraceCache(os.path.join(str(tmp_path), "traces"))
        point = SweepPoint("comp", "mmx", MachineConfig.for_way(4), _SPEC)
        revived = cache.get(point)
        assert revived is not None
        direct = run_kernel("comp", "mmx", config=MachineConfig.for_way(4),
                            spec=_SPEC)
        assert revived.to_payload() == direct.build.trace.to_payload()

    def test_warm_sweep_does_zero_builds_through_new_path(self, tmp_path,
                                                          build_counter):
        SweepEngine(jobs=1, cache_dir=str(tmp_path)).run(small_sweep())
        # warm *miss*: a configuration the result cache has not seen, so
        # every point simulates — off cached traces, zero front-end builds
        miss = SweepSpec.make(kernels=_KERNELS,
                              configs=[MachineConfig.for_way(2)], spec=_SPEC)
        build_counter.clear()
        engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
        results = engine.run(miss)
        assert engine.last_cached == 0
        assert engine.last_simulated == len(results)
        assert build_counter == [], \
            "warm sweeps must do zero front-end builds"
        assert engine.last_trace_builds == 0
