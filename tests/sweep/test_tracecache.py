"""Tests of the shared on-disk trace cache.

The central guarantees: a cache-hit trace is *instruction-for-instruction*
equal to a cold build, corrupt entries fall back to a rebuild, and a sweep
over already-cached traces performs zero front-end builds (asserted through
the ``build_counter`` fixture, which counts ``Kernel.run_variant`` calls).
"""

from __future__ import annotations

import json

import pytest

import repro.timing.core
from repro.common.atomicio import stamp_checksum
from repro.frontend import builders
from repro.frontend.builders import BUILDER_VERSION
from repro.sweep import (
    SweepEngine,
    SweepPoint,
    SweepSpec,
    TraceCache,
    trace_key,
)
from repro.timing.config import MachineConfig
from repro.timing.core import simulate_trace
from repro.workloads.generators import WorkloadSpec

_SPEC = WorkloadSpec(scale=1, seed=7)
_CFG = MachineConfig.for_way(4)


def _build_trace(kernel="comp", isa="mom", spec=_SPEC):
    from repro.kernels.registry import get_kernel

    return get_kernel(kernel).run_variant(isa, spec=spec).trace


class TestPayloadRoundTrip:
    @pytest.mark.parametrize("isa", ["scalar", "mmx", "mdmx", "mom"])
    def test_round_trip_is_instruction_exact(self, isa):
        from repro.trace.container import Trace

        trace = _build_trace(isa=isa)
        clone = Trace.from_payload(trace.to_payload())
        assert clone.name == trace.name
        assert clone.isa == trace.isa
        assert clone.instructions == trace.instructions

    def test_payload_survives_json(self):
        from repro.trace.container import Trace

        trace = _build_trace()
        payload = json.loads(json.dumps(trace.to_payload()))
        assert Trace.from_payload(payload).instructions == trace.instructions

    def test_unknown_format_rejected(self):
        from repro.trace.container import Trace

        payload = _build_trace().to_payload()
        payload["format"] = 99
        with pytest.raises(ValueError):
            Trace.from_payload(payload)


class TestTraceCache:
    def test_miss_then_hit_equal_trace(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        point = SweepPoint("comp", "mom", _CFG, _SPEC)
        assert cache.get(point) is None
        assert cache.misses == 1

        trace = _build_trace()
        cache.put(point, trace)
        cached = cache.get(point)
        assert cached is not None and cache.hits == 1
        assert cached.instructions == trace.instructions

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        point = SweepPoint("comp", "mom", _CFG, _SPEC)
        cache.put(point, _build_trace())
        with open(cache.path_for(point), "w") as f:
            f.write("{definitely not json")
        assert cache.get(point) is None

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        point = SweepPoint("comp", "mom", _CFG, _SPEC)
        cache.put(point, _build_trace())
        path = cache.path_for(point)
        with open(path) as f:
            content = f.read()
        with open(path, "w") as f:
            f.write(content[: len(content) // 2])
        assert cache.get(point) is None

    def test_key_sensitivity(self, monkeypatch):
        base = trace_key("comp", "mom", _SPEC)
        assert base == trace_key("comp", "mom", _SPEC)
        assert base != trace_key("comp", "mmx", _SPEC)
        assert base != trace_key("h2v2", "mom", _SPEC)
        assert base != trace_key("comp", "mom", WorkloadSpec(scale=2, seed=7))
        assert base != trace_key("comp", "mom", WorkloadSpec(scale=1, seed=8))
        monkeypatch.setattr(builders, "BUILDER_VERSION", "other")
        assert base != trace_key("comp", "mom", _SPEC)

    def test_key_independent_of_config(self):
        cache = TraceCache("unused")
        a = SweepPoint("comp", "mom", MachineConfig.for_way(1), _SPEC)
        b = SweepPoint("comp", "mom", MachineConfig.for_way(8), _SPEC)
        assert cache.key_for(a) == cache.key_for(b)

    def test_builder_version_stamped_in_entry(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        point = SweepPoint("comp", "mom", _CFG, _SPEC)
        cache.put(point, _build_trace())
        with open(cache.path_for(point)) as f:
            entry = json.load(f)
        assert entry["builder_version"] == BUILDER_VERSION
        assert entry["kernel"] == "comp" and entry["isa"] == "mom"


class TestLoweredPayloadInCache:
    """Entries embed the flat-array lowering; a hit revives it for free."""

    def test_entry_embeds_live_lowered_payload(self, tmp_path):
        from repro.timing.lowered import LOWERING_VERSION

        cache = TraceCache(str(tmp_path))
        point = SweepPoint("comp", "mom", _CFG, _SPEC)
        cache.put(point, _build_trace())
        with open(cache.path_for(point)) as f:
            entry = json.load(f)
        assert entry["lowered"]["lowering_version"] == LOWERING_VERSION
        assert entry["lowered"]["num_instructions"] == len(entry["trace"]["instrs"])

    def test_hit_revives_the_lowering_without_relowering(self, tmp_path,
                                                         lowering_counter):
        cache = TraceCache(str(tmp_path))
        point = SweepPoint("comp", "mom", _CFG, _SPEC)
        cache.put(point, _build_trace())

        lowering_counter.clear()
        trace = cache.get(point)
        lowered = trace.lower()
        assert lowering_counter == [], "cache hit must not re-lower"
        assert lowered.num_instructions == len(trace)

    def test_stale_lowering_version_falls_back_to_relowering(self, tmp_path,
                                                             lowering_counter):
        cache = TraceCache(str(tmp_path))
        point = SweepPoint("comp", "mom", _CFG, _SPEC)
        cache.put(point, _build_trace())
        path = cache.path_for(point)
        with open(path) as f:
            entry = json.load(f)
        entry["lowered"]["lowering_version"] = "not-the-live-version"
        with open(path, "w") as f:
            json.dump(stamp_checksum(entry), f)

        lowering_counter.clear()
        trace = cache.get(point)
        assert trace is not None, "stale lowering must not evict the trace"
        trace.lower()
        assert lowering_counter == [("comp", "mom")]

    def test_corrupt_lowered_payload_is_ignored(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        point = SweepPoint("comp", "mom", _CFG, _SPEC)
        cache.put(point, _build_trace())
        path = cache.path_for(point)
        with open(path) as f:
            entry = json.load(f)
        entry["lowered"]["pool"] = "garbage"
        with open(path, "w") as f:
            json.dump(stamp_checksum(entry), f)

        trace = cache.get(point)
        assert trace is not None
        assert (simulate_trace(trace, _CFG)
                == simulate_trace(_build_trace(), _CFG))

    def test_truncated_lowered_payload_never_simulates_short(self, tmp_path):
        """Bitrot that truncates the lowered row sequence while keeping the
        claimed instruction count (still valid JSON) must fall back to
        re-lowering the trace — never simulate half the instructions."""
        cache = TraceCache(str(tmp_path))
        point = SweepPoint("comp", "mom", _CFG, _SPEC)
        cache.put(point, _build_trace())
        path = cache.path_for(point)
        with open(path) as f:
            entry = json.load(f)
        instrs = entry["lowered"]["instrs"]
        entry["lowered"]["instrs"] = instrs[: len(instrs) // 2]
        with open(path, "w") as f:
            json.dump(stamp_checksum(entry), f)

        trace = cache.get(point)
        assert trace is not None
        assert (simulate_trace(trace, _CFG)
                == simulate_trace(_build_trace(), _CFG))

    def test_missing_lowered_key_is_tolerated(self, tmp_path):
        """Entries written before the lowering backend still hit."""
        cache = TraceCache(str(tmp_path))
        point = SweepPoint("comp", "mom", _CFG, _SPEC)
        cache.put(point, _build_trace())
        path = cache.path_for(point)
        with open(path) as f:
            entry = json.load(f)
        del entry["lowered"]
        with open(path, "w") as f:
            json.dump(stamp_checksum(entry), f)
        assert cache.get(point) is not None


class TestEngineIntegration:
    def _sweep(self, config=_CFG):
        return SweepSpec.make(kernels=["comp", "addblock"], configs=[config],
                              spec=_SPEC)

    def test_cold_run_populates_then_warm_miss_does_zero_builds(
            self, tmp_path, build_counter):
        cold = SweepEngine(cache_dir=str(tmp_path))
        cold_results = cold.run(self._sweep())
        assert cold.last_trace_builds == len(cold_results)
        assert cold.last_trace_hits == 0
        assert len(build_counter) == len(cold_results)

        # Same kernels/workload on a *different* machine configuration: the
        # result cache misses every point, the trace cache serves every trace.
        build_counter.clear()
        warm_miss = SweepEngine(cache_dir=str(tmp_path))
        results = warm_miss.run(self._sweep(MachineConfig.for_way(1)))
        assert warm_miss.last_simulated == len(results)
        assert warm_miss.last_cached == 0
        assert warm_miss.last_trace_hits == len(results)
        assert warm_miss.last_trace_builds == 0
        assert build_counter == [], "warm miss must perform zero trace builds"
        assert all(r.trace_cached and not r.cached for r in results)

        # And the numbers equal an uncached fresh run.
        fresh = SweepEngine().run(self._sweep(MachineConfig.for_way(1)))
        assert [r.sim for r in results] == [r.sim for r in fresh]
        assert [r.stats for r in results] == [r.stats for r in fresh]

    def test_warm_rerun_does_zero_builds_and_zero_simulations(
            self, tmp_path, build_counter):
        SweepEngine(cache_dir=str(tmp_path)).run(self._sweep())
        build_counter.clear()
        warm = SweepEngine(cache_dir=str(tmp_path))
        results = warm.run(self._sweep())
        assert warm.last_simulated == 0
        assert warm.last_cached == len(results)
        assert build_counter == []

    def test_corrupt_trace_entry_falls_back_to_rebuild(self, tmp_path,
                                                       build_counter,
                                                       monkeypatch):
        point = SweepPoint("comp", "mom", _CFG, _SPEC)
        engine = SweepEngine(cache_dir=str(tmp_path))
        engine.run([point])
        with open(engine.trace_cache.path_for(point), "w") as f:
            f.write("garbage")

        build_counter.clear()
        monkeypatch.setattr(repro.timing.core, "MODEL_VERSION", "v2")
        again = SweepEngine(cache_dir=str(tmp_path))
        results = again.run([point])
        assert again.last_trace_builds == 1
        assert build_counter == [("comp", "mom")]
        assert results[0].sim.cycles > 0

    def test_trace_cached_results_are_checked_by_provenance(
            self, tmp_path, build_counter):
        """Only verified builds enter the trace cache, so a result simulated
        off a cached trace needs no build and equals a verified fresh run."""
        engine = SweepEngine(cache_dir=str(tmp_path))
        engine.run(self._sweep())
        build_counter.clear()
        warm_miss = SweepEngine(cache_dir=str(tmp_path))
        results = warm_miss.run(self._sweep(MachineConfig.for_way(2)))
        assert build_counter == []
        assert all(r.ok and r.trace_cached for r in results)
        fresh = SweepEngine().run(self._sweep(MachineConfig.for_way(2)))
        assert [r.sim for r in results] == [r.sim for r in fresh]

    def test_parallel_workers_share_the_trace_cache(self, tmp_path,
                                                    monkeypatch):
        """jobs>1 workers read (and write) the same on-disk trace store."""
        sweep = self._sweep()
        SweepEngine(cache_dir=str(tmp_path)).run(sweep)
        monkeypatch.setattr(repro.timing.core, "MODEL_VERSION", "v2")
        parallel = SweepEngine(jobs=2, cache_dir=str(tmp_path))
        results = parallel.run(sweep)
        if parallel.last_fallback_reason is None:
            assert parallel.last_trace_hits == len(results)
            assert parallel.last_trace_builds == 0
        serial = SweepEngine().run(sweep)
        assert [r.sim for r in results] == [r.sim for r in serial]
