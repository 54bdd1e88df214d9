"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.frontend.builders import make_builder
from repro.frontend.machine import FunctionalMachine
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec


@pytest.fixture
def machine() -> FunctionalMachine:
    """A fresh functional machine."""
    return FunctionalMachine()


@pytest.fixture
def scalar_builder(machine):
    return make_builder("scalar", machine, name="test")


@pytest.fixture
def mmx_builder(machine):
    return make_builder("mmx", machine, name="test")


@pytest.fixture
def mdmx_builder(machine):
    return make_builder("mdmx", machine, name="test")


@pytest.fixture
def mom_builder(machine):
    return make_builder("mom", machine, name="test")


@pytest.fixture
def way4_config() -> MachineConfig:
    return MachineConfig.for_way(4)


@pytest.fixture
def tiny_spec() -> WorkloadSpec:
    """Smallest workload used for cross-variant correctness tests."""
    return WorkloadSpec(scale=1, seed=7)


@pytest.fixture(scope="session")
def lowered_fields():
    """``lowered_fields(lowered)``: every field of a
    :class:`~repro.timing.lowered.LoweredTrace` as a tuple, for
    structural equality of two lowerings."""
    names = ("name", "isa", "num_instructions", "total_ops", "num_regs",
             "shapes", "shape_ids", "srcs", "dsts", "opcodes", "opcode_ids")

    def fields(lowered) -> tuple:
        return tuple(getattr(lowered, name) for name in names)

    return fields
