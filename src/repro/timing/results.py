"""Simulation result records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class SimResult:
    """Outcome of simulating one trace on one machine configuration.

    Attributes
    ----------
    cycles:
        Total execution time in cycles (commit time of the last instruction).
    instructions:
        Number of dynamic instructions committed.
    operations:
        Number of elemental operations committed (the paper's NOPS).
    kernel / isa / config_name:
        Identification of the run.
    stall_breakdown:
        Cycles lost to each structural constraint, attributed at rename time
        (diagnostic only; not used by the paper's metrics).
    """

    cycles: int
    instructions: int
    operations: int
    kernel: str = ""
    isa: str = ""
    config_name: str = ""
    mem_latency: int = 1
    issue_width: int = 1
    stall_breakdown: Dict[str, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Instructions committed per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def opi(self) -> float:
        """Elemental operations per instruction."""
        return self.operations / self.instructions if self.instructions else 0.0
