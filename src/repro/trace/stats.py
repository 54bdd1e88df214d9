"""Static trace statistics.

These are the instruction-stream quantities the paper's tables are built
from (everything except IPC, which needs the timing model): instruction
count, elemental operation count, fraction of vector instructions F and the
average vector lengths VLx and VLy of the vector instructions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.isa.opclasses import OpClass

if TYPE_CHECKING:
    from repro.trace.container import Trace


@dataclass
class TraceStats:
    """Aggregate statistics of one trace."""

    num_instructions: int = 0
    num_operations: int = 0
    num_vector_instructions: int = 0
    num_memory_instructions: int = 0
    num_loads: int = 0
    num_stores: int = 0
    num_branches: int = 0
    sum_vlx: int = 0
    sum_vly: int = 0
    opcode_histogram: Counter = field(default_factory=Counter)
    opclass_histogram: Counter = field(default_factory=Counter)

    @property
    def operations_per_instruction(self) -> float:
        """OPI — average elemental operations per instruction."""
        if self.num_instructions == 0:
            return 0.0
        return self.num_operations / self.num_instructions

    @property
    def vector_fraction(self) -> float:
        """F — fraction of instructions that are vector (SIMD) instructions."""
        if self.num_instructions == 0:
            return 0.0
        return self.num_vector_instructions / self.num_instructions

    @property
    def avg_vlx(self) -> float:
        """Average sub-word lane count over vector instructions."""
        if self.num_vector_instructions == 0:
            return 1.0
        return self.sum_vlx / self.num_vector_instructions

    @property
    def avg_vly(self) -> float:
        """Average dimension-Y vector length over vector instructions."""
        if self.num_vector_instructions == 0:
            return 1.0
        return self.sum_vly / self.num_vector_instructions


def summarize_trace(trace: Trace) -> TraceStats:
    """Compute :class:`TraceStats` for a trace in one pass.

    A column-mode trace is summarised straight from its record pool — each
    distinct record contributes once, weighted by multiplicity — so the
    sweep engine's stats pass materialises no instruction objects.  The
    result is equal either way (``tests/trace/test_columns.py`` pins it).
    """
    columns = getattr(trace, "columns", None)
    if columns is not None:
        return columns.summarize()
    stats = TraceStats()
    for instr in trace:
        stats.num_instructions += 1
        stats.num_operations += instr.ops
        stats.opcode_histogram[instr.opcode] += 1
        stats.opclass_histogram[instr.opclass] += 1
        if instr.is_memory:
            stats.num_memory_instructions += 1
            if instr.is_load:
                stats.num_loads += 1
            else:
                stats.num_stores += 1
        if instr.opclass is OpClass.BRANCH:
            stats.num_branches += 1
        if instr.is_vector:
            stats.num_vector_instructions += 1
            stats.sum_vlx += instr.vlx
            stats.sum_vly += instr.vly
    return stats
