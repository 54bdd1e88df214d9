"""Tests for machine configurations."""

from __future__ import annotations

import pytest

from repro.isa.opclasses import OpClass
from repro.timing.config import FIGURE5_LATENCIES, MachineConfig, WAY_CONFIGS


class TestForWay:
    @pytest.mark.parametrize("way", [1, 2, 4, 8])
    def test_widths_scale(self, way):
        cfg = MachineConfig.for_way(way)
        assert cfg.fetch_width == cfg.issue_width == cfg.commit_width == way
        assert cfg.num_int_alu == way
        assert cfg.num_media_fu == way
        assert cfg.rob_size >= 16 * way
        assert cfg.num_mem_ports >= 1

    def test_physical_registers_exceed_architectural(self):
        for way in (1, 2, 4, 8):
            cfg = MachineConfig.for_way(way)
            assert cfg.phys_int_regs > cfg.arch_int_regs
            assert cfg.phys_media_regs > cfg.arch_media_regs
            assert cfg.phys_matrix_regs > cfg.arch_matrix_regs
            assert cfg.phys_acc_regs > cfg.arch_acc_regs

    def test_invalid_way(self):
        with pytest.raises(ValueError, match="way"):
            MachineConfig.for_way(0)

    @pytest.mark.parametrize("latency", [0, -5])
    def test_nonphysical_mem_latency_rejected(self, latency):
        with pytest.raises(ValueError, match="mem_latency must be >= 1"):
            MachineConfig.for_way(4, mem_latency=latency)
        with pytest.raises(ValueError, match="mem_latency"):
            MachineConfig(mem_latency=latency)

    @pytest.mark.parametrize("latency", [0, -1])
    def test_nonphysical_opclass_latency_rejected(self, latency):
        latencies = dict(MachineConfig().latencies)
        latencies[OpClass.IMUL] = latency
        with pytest.raises(ValueError, match=r"latencies\[imul\] must be >= 1"):
            MachineConfig(latencies=latencies)
        with pytest.raises(ValueError, match="latencies"):
            MachineConfig().with_updates(latencies=latencies)

    def test_mem_latency_passthrough(self):
        cfg = MachineConfig.for_way(4, mem_latency=50)
        assert cfg.mem_latency == 50
        assert cfg.latency_of(OpClass.LOAD) == 50
        assert cfg.latency_of(OpClass.MEDIA_LOAD) == 50

    def test_overrides(self):
        cfg = MachineConfig.for_way(4, media_lanes=2, rob_size=17)
        assert cfg.media_lanes == 2
        assert cfg.rob_size == 17

    def test_with_updates_returns_new_instance(self):
        cfg = MachineConfig.for_way(4)
        cfg2 = cfg.with_updates(mem_latency=12)
        assert cfg.mem_latency == 1 and cfg2.mem_latency == 12


class TestLatencyOf:
    def test_store_is_short(self):
        cfg = MachineConfig.for_way(4, mem_latency=50)
        assert cfg.latency_of(OpClass.STORE) == 1
        assert cfg.latency_of(OpClass.MEDIA_STORE) == 1

    def test_compute_classes_use_table(self):
        cfg = MachineConfig.for_way(4)
        assert cfg.latency_of(OpClass.IALU) == 1
        assert cfg.latency_of(OpClass.IMUL) > 1
        assert cfg.latency_of(OpClass.MEDIA_MUL) >= 1


class TestPresets:
    def test_way_configs_cover_figure4(self):
        assert sorted(WAY_CONFIGS) == [1, 2, 4, 8]
        for way, cfg in WAY_CONFIGS.items():
            assert cfg.issue_width == way

    def test_figure5_latencies(self):
        assert FIGURE5_LATENCIES == (1, 12, 50)
