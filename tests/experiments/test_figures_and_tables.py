"""Integration tests of the experiment drivers (small-scale sweeps).

These check the *shape* claims of the paper on reduced workloads and reduced
sweeps so they run in seconds; ``test_paper_shapes.py`` checks them on every
kernel on the default workload over the full sweeps, and
``python -m repro figure4|figure5|tables`` prints the regenerated tables.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import (
    format_breakdown_table,
    format_latency_table,
    format_speedup_table,
)
from repro.experiments.ablations import (
    run_lane_ablation,
    run_rob_ablation,
    run_trace_length_sensitivity,
)
from repro.experiments.figure4 import figure4_speedups, run_figure4
from repro.experiments.figure5 import figure5_cycles, figure5_slowdowns, run_figure5
from repro.experiments.tables import TABLE_NUMBERS, run_breakdown_tables
from repro.workloads.generators import WorkloadSpec

_SPEC = WorkloadSpec(scale=1, seed=2)
_KERNELS = ("comp", "ltppar")


@pytest.fixture(scope="module")
def figure4_results():
    return run_figure4(kernels=_KERNELS, ways=(1, 4), spec=_SPEC)


@pytest.fixture(scope="module")
def figure5_results():
    return run_figure5(kernels=_KERNELS, latencies=(1, 50), spec=_SPEC)


class TestFigure4:
    def test_structure(self, figure4_results):
        assert set(figure4_results) == set(_KERNELS)
        for per_isa in figure4_results.values():
            assert set(per_isa) == {"scalar", "mmx", "mdmx", "mom"}
            for runs in per_isa.values():
                assert set(runs) == {1, 4}

    def test_simd_isas_beat_scalar(self, figure4_results):
        speedups = figure4_speedups(figure4_results)
        for kernel, per_isa in speedups.items():
            for isa in ("mmx", "mdmx", "mom"):
                for way, value in per_isa[isa].items():
                    assert value > 1.0, f"{kernel}/{isa}/way{way}"

    def test_mom_beats_mmx_at_low_issue_width(self, figure4_results):
        speedups = figure4_speedups(figure4_results)
        for kernel in _KERNELS:
            assert speedups[kernel]["mom"][1] > speedups[kernel]["mmx"][1]

    def test_mom_relative_advantage_shrinks_with_width(self, figure4_results):
        """The paper: MOM achieves higher *relative* performance at low issue
        rates; wider cores let MMX/MDMX recover some of the gap."""
        speedups = figure4_speedups(figure4_results)
        for kernel in _KERNELS:
            ratio_way1 = speedups[kernel]["mom"][1] / speedups[kernel]["mmx"][1]
            ratio_way4 = speedups[kernel]["mom"][4] / speedups[kernel]["mmx"][4]
            assert ratio_way4 <= ratio_way1 * 1.25

    def test_report_formatting(self, figure4_results):
        text = format_speedup_table(figure4_speedups(figure4_results), ways=(1, 4))
        assert "comp" in text and "MOM" in text

    def test_speedups_tolerate_missing_isa_variants(self, figure4_results):
        """A partially-populated sweep (missing ISA, missing width, or no
        scalar baseline) reduces to whatever is computable — no KeyError."""
        partial = {
            kernel: {isa: dict(runs) for isa, runs in per_isa.items()}
            for kernel, per_isa in figure4_results.items()
        }
        del partial["comp"]["mdmx"]          # missing ISA variant
        del partial["comp"]["mom"][4]        # missing width
        del partial["ltppar"]["scalar"]      # no baseline at all
        speedups = figure4_speedups(partial)
        assert "mdmx" not in speedups["comp"]
        assert set(speedups["comp"]["mom"]) == {1}
        assert speedups["comp"]["mmx"][1] > 1.0
        assert speedups["ltppar"] == {}      # nothing computable without scalar


class TestFigure5:
    def test_cycles_increase_with_latency(self, figure5_results):
        cycles = figure5_cycles(figure5_results)
        for kernel, per_isa in cycles.items():
            for isa, by_lat in per_isa.items():
                assert by_lat[50] >= by_lat[1], f"{kernel}/{isa}"

    def test_mom_is_most_latency_tolerant(self, figure5_results):
        slowdowns = figure5_slowdowns(figure5_results)
        for kernel, per_isa in slowdowns.items():
            assert per_isa["mom"] <= per_isa["scalar"], kernel
            assert per_isa["mom"] <= per_isa["mmx"] + 0.15, kernel

    def test_report_formatting(self, figure5_results):
        text = format_latency_table(figure5_cycles(figure5_results),
                                    latencies=(1, 50))
        assert "lat 50" in text


class TestBreakdownTables:
    def test_single_kernel_breakdown(self):
        table = run_breakdown_tables(kernels=["comp"], spec=_SPEC)["comp"]
        assert set(table) == {"scalar", "mmx", "mdmx", "mom"}
        assert table["scalar"].speedup == pytest.approx(1.0)
        assert table["mom"].opi > table["mmx"].opi
        text = format_breakdown_table("comp", table)
        assert "MOM" in text

    def test_full_table_driver_subset(self):
        tables = run_breakdown_tables(kernels=["h2v2"], spec=_SPEC)
        assert "h2v2" in tables

    def test_table_numbers_cover_all_kernels(self):
        assert sorted(TABLE_NUMBERS.values()) == list(range(1, 10))


class TestAblations:
    def test_lane_ablation_more_lanes_never_slower(self):
        results = run_lane_ablation("comp", lanes=(1, 4), spec=_SPEC)
        assert results[4].cycles <= results[1].cycles

    def test_rob_ablation_structure(self):
        results = run_rob_ablation("h2v2", rob_sizes=(16, 64), spec=_SPEC)
        assert set(results) == {16, 64}
        for per_isa in results.values():
            assert set(per_isa) == {"scalar", "mmx", "mdmx", "mom"}
        # a larger window never hurts
        for isa in ("scalar", "mmx", "mdmx", "mom"):
            assert results[64][isa].cycles <= results[16][isa].cycles * 1.05

    def test_trace_length_sensitivity_metrics_stable(self):
        results = run_trace_length_sensitivity("comp", scales=(1, 3))
        opi = {}
        for scale, runs in results.items():
            stats = runs["mom"].stats
            opi[scale] = stats.operations_per_instruction
        # per-iteration behaviour dominates: OPI stable within 25%
        assert abs(opi[1] - opi[3]) / opi[3] < 0.25
