"""Tests for the single-kernel experiment runner."""

from __future__ import annotations

import pytest

from repro.experiments.runner import run_kernel, run_kernel_all_isas
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec


class TestRunKernel:
    def test_returns_consistent_result(self):
        result = run_kernel("comp", "mom", spec=WorkloadSpec(scale=1))
        assert result.kernel == "comp"
        assert result.isa == "mom"
        assert result.build.correct
        assert result.cycles > 0
        assert result.sim.instructions == len(result.build.trace)
        assert result.stats.num_instructions == len(result.build.trace)

    def test_default_config_is_4way(self):
        result = run_kernel("h2v2", "mmx", spec=WorkloadSpec(scale=1))
        assert result.sim.issue_width == 4
        assert result.sim.mem_latency == 1

    def test_explicit_config(self):
        cfg = MachineConfig.for_way(2, mem_latency=12)
        result = run_kernel("h2v2", "scalar", config=cfg, spec=WorkloadSpec(scale=1))
        assert result.sim.issue_width == 2
        assert result.sim.mem_latency == 12

    def test_unknown_kernel(self):
        with pytest.raises(KeyError):
            run_kernel("nosuchkernel", "mmx")

    def test_unknown_isa(self):
        with pytest.raises(ValueError):
            run_kernel("comp", "sse9")

    def test_deterministic_across_calls(self):
        a = run_kernel("addblock", "mom", spec=WorkloadSpec(scale=1, seed=42))
        b = run_kernel("addblock", "mom", spec=WorkloadSpec(scale=1, seed=42))
        assert a.cycles == b.cycles
        assert len(a.build.trace) == len(b.build.trace)


class TestRunAllIsas:
    def test_shared_workload_and_all_variants(self):
        runs = run_kernel_all_isas("comp", spec=WorkloadSpec(scale=1))
        assert set(runs) == {"scalar", "mmx", "mdmx", "mom"}
        assert all(r.build.correct for r in runs.values())
        # all variants simulated on identical data: identical references
        refs = [r.build.reference.tobytes() for r in runs.values()]
        assert len(set(refs)) == 1
