"""Tests for machine configurations."""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.opclasses import OpClass
from repro.kernels.registry import get_kernel
from repro.timing.config import (FIGURE5_LATENCIES, MAX_MEM_LATENCY, MAX_WAY,
                                 MachineConfig, WAY_CONFIGS)
from repro.timing.dispatch import simulate_batch
from repro.workloads.generators import WorkloadSpec

#: The validation contract, restated independently of ``MachineConfig``:
#: each field's smallest meaningful value.  Counts of hardware need one;
#: a queue size of 0 means unbounded and the reduction latency is extra.
_LOWER_BOUNDS = {
    **{name: 1 for name in (
        "fetch_width", "issue_width", "commit_width", "rob_size",
        "num_int_alu", "num_int_mul", "num_mem_ports", "num_media_fu",
        "media_lanes", "mem_port_width", "mem_latency", "arch_int_regs",
        "arch_media_regs", "arch_matrix_regs", "arch_acc_regs")},
    "int_queue_size": 0, "mem_queue_size": 0, "media_queue_size": 0,
    "mom_reduction_latency": 0,
}
_REG_FILES = ("int", "media", "matrix", "acc")
#: Fields the fast backends size per-run state by: none may exceed its
#: value on the widest machine.
_UPPER_BOUNDS = {
    name: getattr(MachineConfig.for_way(MAX_WAY), name) for name in (
        "fetch_width", "issue_width", "commit_width", "rob_size",
        "int_queue_size", "mem_queue_size", "media_queue_size",
        "phys_int_regs", "phys_media_regs", "phys_matrix_regs",
        "phys_acc_regs")}


def _violations(config_fields):
    """Fields of a would-be config that break the contract."""
    bad = [name for name, low in _LOWER_BOUNDS.items()
           if config_fields[name] < low]
    bad += [f"phys_{regs}_regs" for regs in _REG_FILES
            if config_fields[f"phys_{regs}_regs"]
            < config_fields[f"arch_{regs}_regs"]]
    bad += [name for name, high in _UPPER_BOUNDS.items()
            if config_fields[name] > high]
    return bad


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

    def test_way_and_mem_latency_are_bounded_above(self):
        assert MachineConfig.for_way(MAX_WAY).issue_width == MAX_WAY
        assert MachineConfig(mem_latency=MAX_MEM_LATENCY).mem_latency \
            == MAX_MEM_LATENCY
        with pytest.raises(ValueError, match=f"way .* must be <= {MAX_WAY}"):
            MachineConfig.for_way(MAX_WAY + 1)
        with pytest.raises(ValueError,
                           match=f"mem_latency must be <= {MAX_MEM_LATENCY}"):
            MachineConfig.for_way(4, mem_latency=MAX_MEM_LATENCY + 1)
        with pytest.raises(ValueError, match="mem_latency"):
            MachineConfig().with_updates(mem_latency=10 ** 9)

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


class TestValidation:
    @pytest.mark.parametrize("field", sorted(_LOWER_BOUNDS))
    def test_each_field_rejected_below_its_bound(self, field):
        low = _LOWER_BOUNDS[field]
        with pytest.raises(ValueError, match=f"{field} must be >= {low}"):
            MachineConfig.for_way(4).with_updates(**{field: low - 1})
        assert getattr(MachineConfig.for_way(4).with_updates(**{field: low}),
                       field) == low

    @pytest.mark.parametrize("field", sorted(_UPPER_BOUNDS))
    def test_each_padded_field_rejected_above_the_widest_machine(self,
                                                                 field):
        """A 10^6-entry ROB would cost megabytes of pre-padded history for
        a few dozen cycles; no field may outgrow ``for_way(MAX_WAY)``."""
        high = _UPPER_BOUNDS[field]
        for value in (high + 1, 10 ** 6):
            with pytest.raises(ValueError,
                               match=f"{field} must be <= {high}, "
                                     f"got {value}"):
                MachineConfig.for_way(4).with_updates(**{field: value})
        assert getattr(MachineConfig.for_way(4).with_updates(
            **{field: high}), field) == high

    @pytest.mark.parametrize("regs", _REG_FILES)
    def test_fewer_physical_than_architectural_registers_rejected(self,
                                                                  regs):
        arch = getattr(MachineConfig(), f"arch_{regs}_regs")
        with pytest.raises(ValueError, match=f"phys_{regs}_regs must be >= "
                                             f"arch_{regs}_regs"):
            MachineConfig.for_way(4).with_updates(
                **{f"phys_{regs}_regs": arch - 1})
        # equal counts are legal: no rename limit
        MachineConfig.for_way(4).with_updates(**{f"phys_{regs}_regs": arch})


@lru_cache(maxsize=None)
def _trace(kernel, isa):
    return get_kernel(kernel).run_variant(
        isa, spec=WorkloadSpec(scale=1, seed=7)).trace


@st.composite
def _config_fields(draw):
    """Every field of a ``for_way`` machine, some redrawn around (and
    across) their bounds."""
    fields = dict(vars(MachineConfig.for_way(draw(st.sampled_from([1, 4])))))
    for name in draw(st.sets(st.sampled_from(sorted(_LOWER_BOUNDS)),
                             max_size=4)):
        low = _LOWER_BOUNDS[name]
        fields[name] = draw(st.integers(low - 2, low + 5))
    for regs in draw(st.sets(st.sampled_from(_REG_FILES), max_size=2)):
        arch = fields[f"arch_{regs}_regs"]
        fields[f"phys_{regs}_regs"] = draw(st.integers(arch - 2, arch + 6))
    return fields


@settings(max_examples=60, deadline=None)
@given(fields=_config_fields(),
       case=st.sampled_from([("comp", "mom"), ("ltppar", "mom"),
                             ("idct", "mdmx"), ("h2v2", "scalar")]))
def test_valid_configs_agree_across_backends_invalid_ones_name_a_field(
        fields, case):
    bad = _violations(fields)
    if bad:
        with pytest.raises(ValueError) as excinfo:
            MachineConfig(**fields)
        assert any(name in str(excinfo.value) for name in bad)
        return
    config = MachineConfig(**fields)
    trace = _trace(*case)
    want = simulate_batch(trace, [config], backend="object")
    for backend in ("lowered", "vector"):
        assert simulate_batch(trace, [config], backend=backend) == want, \
            backend


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
