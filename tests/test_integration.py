"""End-to-end integration tests across the whole stack.

These exercise the public API exactly as the examples and the paper-shape
checks do: generate a workload, build all ISA variants, simulate them and
derive the paper's metrics — asserting the cross-cutting invariants that no
single-module test can see.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.analysis.metrics import compute_metrics
from repro.experiments.runner import run_kernel_all_isas
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec


class TestPublicApi:
    def test_top_level_exports(self):
        assert hasattr(repro, "MachineConfig")
        assert hasattr(repro, "simulate_trace")
        assert hasattr(repro, "run_kernel")
        assert sorted(repro.kernel_names()) == sorted(repro.KERNELS)
        assert len(repro.kernel_names()) == 9

    def test_quickstart_flow(self):
        """The README quickstart sequence works end to end."""
        run = repro.run_kernel("motion1", "mom",
                               config=repro.MachineConfig.for_way(4),
                               spec=WorkloadSpec(scale=1))
        assert run.build.correct
        assert run.cycles > 0


class TestCrossIsaInvariants:
    @pytest.fixture(scope="class")
    def runs(self):
        return {
            name: run_kernel_all_isas(name, config=MachineConfig.for_way(4),
                                      spec=WorkloadSpec(scale=1, seed=23))
            for name in ("motion1", "addblock", "ltpsfilt")
        }

    def test_mom_never_slower_than_scalar(self, runs):
        for name, per_isa in runs.items():
            assert per_isa["mom"].cycles < per_isa["scalar"].cycles, name

    def test_all_simd_isas_reduce_instruction_count(self, runs):
        for name, per_isa in runs.items():
            scalar_count = len(per_isa["scalar"].build.trace)
            for isa in ("mmx", "mdmx", "mom"):
                assert len(per_isa[isa].build.trace) < scalar_count

    def test_metrics_pipeline(self, runs):
        for name, per_isa in runs.items():
            baseline = per_isa["scalar"].sim
            for isa in ("mmx", "mdmx", "mom"):
                metrics = compute_metrics(per_isa[isa].sim, per_isa[isa].stats, baseline)
                assert metrics.kernel == name
                assert metrics.speedup > 0
                assert metrics.opi >= 1.0

    def test_operations_roughly_conserved(self, runs):
        """The SIMD variants do not silently skip work: their elemental
        operation counts are within a small factor of the scalar count."""
        for name, per_isa in runs.items():
            scalar_ops = per_isa["scalar"].sim.operations
            for isa in ("mmx", "mdmx", "mom"):
                ops = per_isa[isa].sim.operations
                assert ops > scalar_ops * 0.2, f"{name}/{isa}"
                assert ops < scalar_ops * 4.0, f"{name}/{isa}"


class TestDeterminism:
    def test_same_seed_same_cycles(self):
        a = repro.run_kernel("idct", "mom", spec=WorkloadSpec(scale=1, seed=77))
        b = repro.run_kernel("idct", "mom", spec=WorkloadSpec(scale=1, seed=77))
        assert a.cycles == b.cycles
        assert a.sim.operations == b.sim.operations

    def test_timing_independent_of_data_values(self):
        """The kernels are control-flow data independent, so two different
        seeds at the same scale produce identical instruction counts."""
        a = repro.run_kernel("comp", "mmx", spec=WorkloadSpec(scale=2, seed=1))
        b = repro.run_kernel("comp", "mmx", spec=WorkloadSpec(scale=2, seed=2))
        assert len(a.build.trace) == len(b.build.trace)
        assert a.cycles == b.cycles


class TestScaling:
    def test_cycles_scale_with_workload(self):
        small = repro.run_kernel("comp", "mom", spec=WorkloadSpec(scale=1))
        large = repro.run_kernel("comp", "mom", spec=WorkloadSpec(scale=4))
        assert large.cycles > small.cycles
        assert large.sim.operations > small.sim.operations

    def test_wider_machine_never_slower(self):
        spec = WorkloadSpec(scale=2)
        for isa in ("scalar", "mmx", "mom"):
            narrow = repro.run_kernel("addblock", isa,
                                      config=MachineConfig.for_way(1), spec=spec)
            wide = repro.run_kernel("addblock", isa,
                                    config=MachineConfig.for_way(8), spec=spec)
            assert wide.cycles <= narrow.cycles
