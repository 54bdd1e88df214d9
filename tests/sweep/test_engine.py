"""Tests of the sweep engine: parallel/serial/direct equivalence + caching.

The central guarantee: however a point gets executed — serially in-process,
on a worker pool, via the cache, or through a bare ``run_kernel`` call — the
resulting :class:`~repro.timing.results.SimResult` is identical.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.runner import run_kernel
from repro.sweep import (
    PointResult,
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

    def test_keep_builds_serial_path(self):
        engine = SweepEngine(jobs=4)
        results = engine.run(
            [SweepPoint("comp", "mom", MachineConfig.for_way(4), _SPEC)],
            keep_builds=True,
        )
        assert results[0].build is not None
        assert results[0].correct
        assert results[0].sim.instructions == len(results[0].build.trace)


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

    def test_version_bump_invalidates(self, tmp_path):
        sweep = small_sweep()
        v1 = SweepEngine(jobs=1, cache_dir=str(tmp_path), version="v1")
        v1.run(sweep)
        assert v1.last_simulated == len(sweep)

        still_v1 = SweepEngine(jobs=1, cache_dir=str(tmp_path), version="v1")
        still_v1.run(sweep)
        assert still_v1.last_simulated == 0

        v2 = SweepEngine(jobs=1, cache_dir=str(tmp_path), version="v2")
        v2.run(sweep)
        assert v2.last_simulated == len(sweep), "version bump must miss the cache"

    def test_builder_version_bump_misses_store_journal_and_job_id(
            self, tmp_path, monkeypatch):
        """A stream-changing edit bumps BUILDER_VERSION; nothing produced
        under the old version may be served after the bump."""
        from repro.frontend import builders
        from repro.sweep.service import job_id_for, normalize_submission

        sweep = small_sweep()
        journal = str(tmp_path / "sweep.jsonl")
        SweepEngine(cache_dir=str(tmp_path / "cache")).run(sweep)
        SweepEngine(journal=journal).run(sweep)
        submission = normalize_submission({"kernels": ["comp"], "scale": 1})
        job_id = job_id_for(submission)

        monkeypatch.setattr(builders, "BUILDER_VERSION", "bumped")
        cache = ResultCache(str(tmp_path / "cache"))
        assert all(cache.get(point) is None for point in sweep.points())
        assert cache.hits == 0 and cache.misses == len(sweep)
        resumed = SweepEngine(journal=journal)
        resumed.run(sweep)
        assert resumed.last_journaled == 0
        assert resumed.last_simulated == len(sweep)
        assert job_id_for(submission) != job_id

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

    def test_key_is_stable_and_sensitive(self):
        cfg = MachineConfig.for_way(4)
        point = SweepPoint("comp", "mom", cfg, _SPEC)
        assert point_key(point) == point_key(point)
        assert point_key(point) != point_key(
            SweepPoint("comp", "mmx", cfg, _SPEC))
        assert point_key(point) != point_key(
            SweepPoint("comp", "mom", cfg.with_updates(mem_latency=12), _SPEC))
        assert point_key(point) != point_key(
            SweepPoint("comp", "mom", cfg, WorkloadSpec(scale=1, seed=8)))
        assert point_key(point) != point_key(point, version="other")

    def test_cache_entries_are_json_on_disk(self, tmp_path):
        cfg = MachineConfig.for_way(4)
        point = SweepPoint("comp", "mom", cfg, _SPEC)
        SweepEngine(jobs=1, cache_dir=str(tmp_path)).run([point])
        cache = ResultCache(str(tmp_path))
        key = cache.key_for(point)
        path = os.path.join(str(tmp_path), key[:2], key + ".json")
        assert os.path.exists(path)
        with open(path) as f:
            entry = json.load(f)
        assert entry["kernel"] == "comp"
        assert entry["isa"] == "mom"
        assert entry["sim"]["cycles"] > 0

    def test_unchecked_results_never_enter_the_cache(self, tmp_path):
        """check=False runs skip golden-reference verification, so their
        results must not be served later to engines that promise checking."""
        cfg = MachineConfig.for_way(4)
        point = SweepPoint("comp", "mom", cfg, _SPEC)
        unchecked = SweepEngine(jobs=1, cache_dir=str(tmp_path), check=False)
        results = unchecked.run([point])
        assert results[0].checked is False

        checking = SweepEngine(jobs=1, cache_dir=str(tmp_path))
        verified = checking.run([point])
        assert checking.last_cached == 0, "unchecked result leaked into cache"
        assert checking.last_simulated == 1
        assert verified[0].checked and verified[0].correct

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cfg = MachineConfig.for_way(4)
        point = SweepPoint("comp", "mom", cfg, _SPEC)
        engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
        engine.run([point])
        key = engine.cache.key_for(point)
        path = os.path.join(str(tmp_path), key[:2], key + ".json")
        with open(path, "w") as f:
            f.write("{not json")
        again = SweepEngine(jobs=1, cache_dir=str(tmp_path))
        results = again.run([point])
        assert again.last_simulated == 1
        assert results[0].sim.cycles > 0


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

    @pytest.fixture
    def build_counter(self):
        from repro.kernels.base import add_build_hook, remove_build_hook

        counts = []
        hook = add_build_hook(lambda kernel, isa: counts.append((kernel, isa)))
        yield counts
        remove_build_hook(hook)

    @pytest.fixture
    def lowering_counter(self):
        from repro.timing.lowered import (add_lowering_hook,
                                          remove_lowering_hook)

        counts = []
        hook = add_lowering_hook(lambda name, isa, n: counts.append((name, isa)))
        yield counts
        remove_lowering_hook(hook)

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

    def test_unchecked_batched_results_stay_unchecked(self):
        engine = SweepEngine(jobs=1, check=False)
        results = engine.run(self._multi_config_sweep())
        assert all(not r.checked for r in results)

    def test_keep_builds_still_publishes_verified_traces(self, tmp_path):
        """keep_builds bypasses cache *reads* but a checked build's trace
        is still written for later sweeps to hit."""
        point = SweepPoint("comp", "mom", MachineConfig.for_way(4), _SPEC)
        engine = SweepEngine(cache_dir=str(tmp_path))
        engine.run([point], keep_builds=True)
        assert engine.trace_cache.get(point) is not None

        warm_miss = SweepEngine(cache_dir=str(tmp_path))
        results = warm_miss.run(
            [SweepPoint("comp", "mom", MachineConfig.for_way(2), _SPEC)])
        assert warm_miss.last_trace_builds == 0
        assert results[0].trace_cached

    def test_warm_groups_split_to_fill_the_pool(self, tmp_path):
        """A config-heavy sweep over few distinct traces must not collapse
        to one pool task per trace once the trace cache is warm."""
        configs = [MachineConfig.for_way(4, mem_latency=lat)
                   for lat in (1, 2, 3, 5, 8, 12, 20, 50)]
        sweep = SweepSpec.make(kernels=["comp"], isas=("mom",),
                               configs=configs, spec=_SPEC)
        SweepEngine(cache_dir=str(tmp_path)).run(sweep)  # warm the traces

        engine = SweepEngine(jobs=4, cache_dir=str(tmp_path), version="v2")
        results = engine.run(sweep)
        if engine.last_fallback_reason is None:
            assert engine.last_pool_tasks == 4, (
                "one 8-point warm group should split into jobs-many tasks")
        assert engine.last_trace_builds == 0
        baseline = SweepEngine(version="v3").run(sweep)
        assert [r.sim for r in results] == [r.sim for r in baseline]

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
        from repro.experiments.figure4 import run_figure4

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
    dispatch, the engine records each group's (size, executed backend),
    and ``backend=`` selects the execution without changing a single
    number."""

    def _figure4_grid(self):
        """The Figure 4 grid as `repro sweep` would expand it: every ISA of
        each kernel across the four issue widths at 1-cycle memory."""
        from repro.experiments.figure4 import figure4_sweep

        return figure4_sweep(kernels=["comp"], ways=(1, 2, 4, 8), spec=_SPEC)

    @pytest.fixture
    def batch_hook(self):
        from repro.timing.vector import add_batch_hook, remove_batch_hook

        calls = []
        hook = add_batch_hook(
            lambda name, isa, n, mode: calls.append((name, isa, n, mode)))
        yield calls
        remove_batch_hook(hook)

    def test_warm_figure4_grid_routes_through_batch_backend_serially(
            self, tmp_path, batch_hook):
        """Acceptance: a warm (trace-cached) figure-4 grid sweep simulates
        every group through run_lowered_batch on the serial path."""
        sweep = self._figure4_grid()
        SweepEngine(trace_cache=str(tmp_path)).run(sweep)  # warm the traces

        batch_hook.clear()
        engine = SweepEngine(trace_cache=str(tmp_path))
        results = engine.run(sweep)
        assert engine.last_trace_builds == 0, "trace cache must be warm"
        groups = 4  # one kernel x four ISAs
        assert len(results) == groups * 4
        # the engine's own record: every group went through the dispatch
        assert sorted(engine.last_batches) == [(4, "lowered")] * groups
        # and the batch backend itself observed every group
        assert sorted(n for _k, _i, n, _m in batch_hook) == [4] * groups
        assert {m for _k, _i, _n, m in batch_hook} == {"lowered"}

    def test_warm_figure4_grid_routes_through_batch_backend_with_jobs(
            self, tmp_path):
        """Acceptance: same grid under --jobs — each pool task returns its
        group's executed-backend record to the parent."""
        sweep = self._figure4_grid()
        SweepEngine(trace_cache=str(tmp_path)).run(sweep)

        engine = SweepEngine(jobs=2, trace_cache=str(tmp_path))
        results = engine.run(sweep)
        assert len(results) == 16
        assert engine.last_trace_builds == 0
        assert len(engine.last_batches) >= 4
        assert all(mode in ("lowered", "vector")
                   for _n, mode in engine.last_batches)
        assert sum(n for n, _mode in engine.last_batches) == 16
        baseline = SweepEngine().run(sweep)
        assert [r.sim for r in results] == [r.sim for r in baseline]

    def test_backend_vector_forces_the_array_program(self, batch_hook):
        sweep = self._figure4_grid()
        engine = SweepEngine(backend="vector")
        results = engine.run(sweep)
        assert {mode for _n, mode in engine.last_batches} == {"vector"}
        assert {m for _k, _i, _n, m in batch_hook} == {"vector"}
        baseline = SweepEngine(backend="lowered").run(sweep)
        assert [r.sim for r in results] == [r.sim for r in baseline]

    def test_backend_object_matches_and_skips_the_batch_module(
            self, batch_hook):
        points = [SweepPoint("comp", "mom", MachineConfig.for_way(w), _SPEC)
                  for w in (1, 4)]
        engine = SweepEngine(backend="object")
        results = engine.run(points)
        assert engine.last_batches == [(2, "object")]
        assert batch_hook == []  # object backend never enters vector.py
        baseline = SweepEngine().run(points)
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

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown timing backend"):
            SweepEngine(backend="fpga")

    def test_backend_is_not_part_of_the_cache_key(self, tmp_path):
        """Backends are bit-identical, so a result cached by one backend
        must be served to every other."""
        point = SweepPoint("comp", "mom", MachineConfig.for_way(4), _SPEC)
        SweepEngine(cache_dir=str(tmp_path), backend="vector").run([point])
        warm = SweepEngine(cache_dir=str(tmp_path), backend="object")
        warm.run([point])
        assert warm.last_cached == 1
        assert warm.last_simulated == 0


class TestColumnFastPathAccounting:
    """PR 5 regression: the column emission fast path is what the engine's
    builds run through, and the build-counter / zero-build guarantees of
    the trace cache hold for it unchanged."""

    def test_cold_build_goes_through_columns_and_fires_hook(self, tmp_path):
        from repro.kernels.base import add_build_hook, remove_build_hook
        from repro.sweep.tracecache import TraceCache

        counts = []
        hook = add_build_hook(lambda kernel, isa: counts.append((kernel, isa)))
        try:
            engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
            engine.run(small_sweep())
        finally:
            remove_build_hook(hook)
        distinct = len(_KERNELS) * 4
        assert len(counts) == distinct, \
            "column-path builds must fire the build hook"
        assert engine.last_trace_builds == distinct
        # the cache entries written from columns revive as full traces
        cache = TraceCache(os.path.join(str(tmp_path), "traces"))
        point = SweepPoint("comp", "mmx", MachineConfig.for_way(4), _SPEC)
        revived = cache.get(point)
        assert revived is not None
        direct = run_kernel("comp", "mmx", config=MachineConfig.for_way(4),
                            spec=_SPEC)
        assert revived.to_payload() == direct.build.trace.to_payload()

    def test_warm_sweep_does_zero_builds_through_new_path(self, tmp_path):
        from repro.kernels.base import add_build_hook, remove_build_hook

        SweepEngine(jobs=1, cache_dir=str(tmp_path)).run(small_sweep())
        # warm *miss*: a configuration the result cache has not seen, so
        # every point simulates — off cached traces, zero front-end builds
        miss = SweepSpec.make(kernels=_KERNELS,
                              configs=[MachineConfig.for_way(2)], spec=_SPEC)
        counts = []
        hook = add_build_hook(lambda kernel, isa: counts.append((kernel, isa)))
        try:
            engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
            results = engine.run(miss)
        finally:
            remove_build_hook(hook)
        assert engine.last_cached == 0
        assert engine.last_simulated == len(results)
        assert counts == [], "warm sweeps must do zero front-end builds"
        assert engine.last_trace_builds == 0
