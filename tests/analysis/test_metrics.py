"""Tests for the paper's metrics and the speed-up decomposition identity."""

from __future__ import annotations

import pytest

from repro.analysis.metrics import compute_metrics, speedup_decomposition
from repro.experiments.runner import run_kernel_all_isas
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec


@pytest.fixture(scope="module")
def comp_runs():
    """All four ISA runs of the `comp` kernel on the 4-way core."""
    return run_kernel_all_isas("comp", config=MachineConfig.for_way(4),
                               spec=WorkloadSpec(scale=2, seed=9))


@pytest.fixture(scope="module")
def comp_metrics(comp_runs):
    baseline = comp_runs["scalar"].sim
    return {
        isa: compute_metrics(run.sim, run.stats, baseline)
        for isa, run in comp_runs.items()
    }


class TestMetricValues:
    def test_scalar_baseline_identities(self, comp_metrics):
        scalar = comp_metrics["scalar"]
        assert scalar.speedup == pytest.approx(1.0)
        assert scalar.r == pytest.approx(1.0)
        assert scalar.opi == pytest.approx(1.0)
        assert scalar.f == pytest.approx(0.0)

    def test_simd_metrics_in_plausible_bands(self, comp_metrics):
        for isa in ("mmx", "mdmx", "mom"):
            m = comp_metrics[isa]
            assert m.speedup > 1.0
            assert m.opi > 1.0
            assert m.r > 0.5
            assert 0.0 < m.f <= 1.0
            assert m.ipc > 0.0

    def test_mom_has_highest_opi_and_r(self, comp_metrics):
        assert comp_metrics["mom"].opi > comp_metrics["mmx"].opi
        assert comp_metrics["mom"].r >= comp_metrics["mmx"].r * 0.9



class TestDecompositionIdentity:
    def test_speedup_equals_r_ipc_opi_over_baseline(self, comp_metrics):
        """The paper's identity S = R * IPC * OPI / IPC_alpha holds exactly
        (it is an algebraic identity on the measured quantities)."""
        baseline = comp_metrics["scalar"]
        for isa in ("mmx", "mdmx", "mom"):
            m = comp_metrics[isa]
            predicted = speedup_decomposition(m, baseline)
            assert predicted == pytest.approx(m.speedup, rel=1e-9)

    def test_zero_baseline_guard(self, comp_metrics):
        broken = comp_metrics["scalar"]
        zero = type(broken)(kernel="x", isa="scalar", ipc=0.0, opi=1.0, r=1.0,
                            speedup=1.0, f=0.0, vlx=1.0, vly=1.0, cycles=0,
                            instructions=0, operations=0)
        assert speedup_decomposition(comp_metrics["mom"], zero) == 0.0
