"""Trace-driven out-of-order timing model.

This package plays the role of the paper's Jinks simulator: an out-of-order
superscalar core (MIPS R10K-like) extended with a multimedia register file
and dedicated multimedia/vector functional units, fed by dynamic instruction
traces and an idealized fixed-latency memory system.

The model is an *interval-style* out-of-order approximation: instructions are
processed in program order and their rename / issue / complete / commit times
are computed subject to dataflow dependences and resource constraints
(fetch-rename-commit bandwidth, ROB and issue-queue capacity, physical
registers, functional units and memory ports).  Vector and matrix
instructions occupy their functional unit / memory port for
``ceil(VL / lanes)`` cycles and deliver their result when the last element
completes.
"""

from repro._lazy import lazy_exports
from repro.timing.config import MachineConfig
from repro.timing.dispatch import (BACKENDS, VECTOR_MIN_BATCH,
                                   resolve_execution, simulate_batch)
from repro.timing.results import SimResult

__all__ = [
    "BACKENDS",
    "LoweredTrace",
    "MachineConfig",
    "VECTOR_MIN_BATCH",
    "OutOfOrderCore",
    "lower_trace",
    "resolve_execution",
    "simulate_batch",
    "simulate_trace",
    "SimResult",
]

# The modules above import no NumPy; the backends' names load on first use.
__getattr__ = lazy_exports(__name__, {
    "repro.timing.core": ["OutOfOrderCore", "simulate_trace"],
    "repro.timing.lowered": ["LoweredTrace", "lower_trace"],
})
