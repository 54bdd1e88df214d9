"""The paper's qualitative claims on the default workload, over full sweeps.

``test_figures_and_tables.py`` checks the same shapes on reduced workloads
and sweeps; this file runs every kernel on ``WorkloadSpec()`` (scale 4,
seed 1999) through the full sweeps the figures print
(``python -m repro figure4|figure5|tables`` prints the tables themselves):

* Figure 4 (speed-up over scalar vs issue width 1/2/4/8): every multimedia
  ISA beats scalar, MOM beats MMX at 1-way, and MOM's relative advantage
  does not grow with the width;
* Figure 5 (cycles vs memory latency 1/12/50 on the 4-way core): cycles
  grow with the latency and MOM slows down least;
* Tables 1-9 (IPC / OPI / R / S / VLx / VLy on the 4-way core, 1-cycle
  memory): MOM has the highest OPI and no more IPC than MMX, scalar has
  OPI = S = 1, and S = R * IPC * OPI / IPC_alpha holds;
* the section 4.4 ablations: extra MOM lanes buy speed without extra issue
  width, MOM needs a smaller window than MMX, and the speed-up over scalar
  is stable in the workload scale.
"""

from __future__ import annotations

import pytest

from repro.analysis.metrics import speedup_decomposition
from repro.experiments.ablations import (
    run_lane_ablation,
    run_rob_ablation,
    run_trace_length_sensitivity,
)
from repro.experiments.figure4 import figure4_speedups, run_figure4
from repro.experiments.figure5 import figure5_cycles, figure5_slowdowns, run_figure5
from repro.experiments.tables import run_breakdown_tables
from repro.kernels.registry import kernel_names
from repro.workloads.generators import WorkloadSpec

WAYS = (1, 2, 4, 8)
LATENCIES = (1, 12, 50)


@pytest.mark.parametrize("kernel_name", kernel_names())
def test_figure4_kernel(kernel_name):
    results = run_figure4(kernels=[kernel_name], ways=WAYS,
                          spec=WorkloadSpec())
    speedups = figure4_speedups(results)[kernel_name]

    for isa in ("mmx", "mdmx", "mom"):
        for way in WAYS:
            assert speedups[isa][way] > 1.0, f"{isa} does not beat scalar at way {way}"
    assert speedups["mom"][1] > speedups["mmx"][1]
    ratio_way1 = speedups["mom"][1] / speedups["mmx"][1]
    ratio_way8 = speedups["mom"][8] / speedups["mmx"][8]
    assert ratio_way8 <= ratio_way1 * 1.25, "MOM advantage should not grow with width"


@pytest.mark.parametrize("kernel_name", kernel_names())
def test_figure5_kernel(kernel_name):
    results = run_figure5(kernels=[kernel_name], latencies=LATENCIES,
                          spec=WorkloadSpec())
    cycles = figure5_cycles(results)[kernel_name]
    slowdowns = figure5_slowdowns(results)[kernel_name]

    for by_lat in cycles.values():
        # Allow a couple of cycles of jitter: the interval scheduler's greedy
        # resource allocation is not strictly monotone in the latency.
        assert by_lat[12] >= by_lat[1] - 3
        assert by_lat[50] >= by_lat[12] - 3
        assert by_lat[50] >= by_lat[1]
    assert slowdowns["mom"] <= slowdowns["scalar"], \
        "MOM should tolerate memory latency better than scalar code"
    assert slowdowns["mom"] <= slowdowns["mmx"] + 0.15, \
        "MOM should tolerate memory latency at least as well as MMX"


@pytest.mark.parametrize("kernel_name", kernel_names())
def test_breakdown_table(kernel_name):
    table = run_breakdown_tables(kernels=[kernel_name], way=4, mem_latency=1,
                                 spec=WorkloadSpec())[kernel_name]

    scalar, mom = table["scalar"], table["mom"]
    assert scalar.speedup == pytest.approx(1.0)
    assert scalar.opi == pytest.approx(1.0)
    assert mom.opi > table["mmx"].opi
    assert mom.opi > table["mdmx"].opi
    assert mom.ipc <= table["mmx"].ipc + 0.25, "MOM needs far fewer instructions per cycle"
    assert mom.vly > 1.0
    for isa in ("mmx", "mdmx", "mom"):
        predicted = speedup_decomposition(table[isa], scalar)
        assert predicted == pytest.approx(table[isa].speedup, rel=1e-6)


@pytest.mark.parametrize("kernel_name", ("motion1", "idct", "comp"))
def test_lane_replication_ablation(kernel_name):
    results = run_lane_ablation(kernel_name, lanes=(1, 2, 4), way=4,
                                spec=WorkloadSpec())
    cycles = {lanes: run.cycles for lanes, run in results.items()}
    assert cycles[2] <= cycles[1]
    assert cycles[4] <= cycles[2]
    # the paper's claim: extra lanes buy real speed-up without extra issue width
    assert cycles[4] < cycles[1], "lane replication should speed MOM up"


@pytest.mark.parametrize("kernel_name", ("motion2", "ltpsfilt"))
def test_window_size_ablation(kernel_name):
    results = run_rob_ablation(kernel_name, rob_sizes=(16, 32, 64, 128), way=4,
                               spec=WorkloadSpec())
    # relative loss when shrinking the window from 128 to 16 entries
    losses = {isa: results[16][isa].cycles / results[128][isa].cycles
              for isa in ("scalar", "mmx", "mdmx", "mom")}
    assert losses["mom"] <= losses["mmx"] + 0.35, \
        "MOM should depend less on a large instruction window than MMX"


@pytest.mark.parametrize("kernel_name", ("comp", "ltppar"))
def test_trace_length_sensitivity(kernel_name):
    results = run_trace_length_sensitivity(kernel_name, scales=(1, 2, 4))
    # speed-up of MOM over scalar must be stable in the workload scale
    speedups = {scale: runs["scalar"].cycles / runs["mom"].cycles
                for scale, runs in results.items()}
    values = list(speedups.values())
    assert max(values) / min(values) < 1.6, \
        f"speed-up should be scale-stable, got {speedups}"
