"""Machine configurations for the timing model.

The defaults model the paper's evaluation vehicle: an R10K-like out-of-order
core at issue widths 1, 2, 4 and 8, with an idealized memory system of fixed
latency (1, 12 or 50 cycles) and no bandwidth restriction beyond a finite
number of memory ports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Any, Dict

from repro.isa.opclasses import OpClass, DEFAULT_LATENCIES


#: Fields that count hardware (widths, the ROB, functional units, lanes,
#: port widths, architectural registers) or a latency: each needs >= 1.
_AT_LEAST_ONE = ("fetch_width", "issue_width", "commit_width", "rob_size",
                 "num_int_alu", "num_int_mul", "num_mem_ports",
                 "num_media_fu", "media_lanes", "mem_port_width",
                 "mem_latency", "arch_int_regs", "arch_media_regs",
                 "arch_matrix_regs", "arch_acc_regs")


#: Widest :meth:`MachineConfig.for_way` machine and slowest memory.  The
#: fast backends keep per-cycle scoreboards, so their memory grows with
#: the simulated cycles, and those grow linearly with the memory latency;
#: the paper's widest machine is 8-way and its slowest memory 50 cycles.
MAX_WAY = 64
MAX_MEM_LATENCY = 1000

#: Fields the fast backends size per-run state by (pre-padded histories,
#: issue-queue heaps, rename FIFOs): each may not exceed its value on the
#: widest machine, ``for_way(MAX_WAY)``.  Filled in below the class, so
#: building that machine checks nothing.
_AT_MOST: Dict[str, int] = {}


def _check_at_least(name: str, value: int, low: int) -> None:
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class MachineConfig:
    """Parameters of one simulated machine.

    Attributes mirror the structural parameters the paper varies (issue
    width, memory latency) plus the fixed micro-architectural assumptions
    documented in DESIGN.md.
    """

    name: str = "way4"
    #: Instructions renamed (fetched/decoded) per cycle.
    fetch_width: int = 4
    #: Instructions entering execution per cycle.
    issue_width: int = 4
    #: Instructions committed per cycle.
    commit_width: int = 4
    #: Reorder-buffer entries.
    rob_size: int = 64
    #: Issue-queue entries per domain (integer, memory, multimedia); 0
    #: means an unbounded queue.
    int_queue_size: int = 32
    mem_queue_size: int = 32
    media_queue_size: int = 32
    #: Functional units.
    num_int_alu: int = 4
    num_int_mul: int = 1
    num_mem_ports: int = 2
    num_media_fu: int = 4
    #: Vector lanes per multimedia FU (dimension-Y elements per cycle).
    media_lanes: int = 1
    #: Dimension-Y elements transferred per memory port per cycle for
    #: matrix loads/stores (the paper's "memory port of wide N").
    mem_port_width: int = 2
    #: Main memory / cache latency in cycles (the paper sweeps 1, 12, 50).
    mem_latency: int = 1
    #: Extra pipeline latency of a MOM pipelined accumulator reduction
    #: (section 3.1: "adding some additional cycles of latency").
    mom_reduction_latency: int = 4
    #: Physical registers (total, including architectural) per file, at
    #: least the architectural count; equal counts mean no rename limit.
    phys_int_regs: int = 80
    phys_media_regs: int = 64
    phys_matrix_regs: int = 24
    phys_acc_regs: int = 8
    #: Architectural register counts (used to derive the rename head-room).
    arch_int_regs: int = 32
    arch_media_regs: int = 32
    arch_matrix_regs: int = 16
    arch_acc_regs: int = 4
    #: Execution latencies per operation class.
    latencies: Dict[OpClass, int] = field(default_factory=lambda: dict(DEFAULT_LATENCIES))

    def __post_init__(self) -> None:
        # Reject machines with no physical meaning here rather than
        # simulate them: below these bounds the timing backends raise deep
        # inside the model, or disagree with each other.
        for name in _AT_LEAST_ONE:
            _check_at_least(name, getattr(self, name), 1)
        for name in ("int_queue_size", "mem_queue_size", "media_queue_size",
                     "mom_reduction_latency"):
            _check_at_least(name, getattr(self, name), 0)
        if self.mem_latency > MAX_MEM_LATENCY:
            raise ValueError(f"mem_latency must be <= {MAX_MEM_LATENCY}, "
                             f"got {self.mem_latency}")
        for name, high in _AT_MOST.items():
            if getattr(self, name) > high:
                raise ValueError(f"{name} must be <= {high}, "
                                 f"got {getattr(self, name)}")
        for regs in ("int", "media", "matrix", "acc"):
            arch = getattr(self, f"arch_{regs}_regs")
            phys = getattr(self, f"phys_{regs}_regs")
            if phys < arch:
                raise ValueError(f"phys_{regs}_regs must be >= arch_{regs}_regs "
                                 f"({arch}), got {phys}")
        for op, latency in self.latencies.items():
            if latency < 1:
                raise ValueError(f"latencies[{op.value}] must be >= 1, "
                                 f"got {latency}")

    def latency_of(self, opclass: OpClass) -> int:
        """Base execution latency of an operation class.

        Memory classes return :attr:`mem_latency` for loads; stores complete
        in one cycle (the idealized memory never stalls retirement).
        """
        if opclass.is_load:
            return self.mem_latency
        if opclass.is_store:
            return 1
        return self.latencies.get(opclass, 1)

    def canonical_dict(self) -> Dict[str, Any]:
        """JSON-stable view of every field, the latency table keyed by
        op-class name in name order."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "latencies":
                value = {op.value: int(lat) for op, lat in sorted(
                    value.items(), key=lambda kv: kv[0].value)}
            out[f.name] = value
        return out

    @cached_property
    def canonical_json(self) -> str:
        """:meth:`canonical_dict` as sorted, compact JSON: what a result key
        (:func:`repro.sweep.cache.point_key`) hashes for the machine.  It is
        made once per object and kept on it, so the points of a grid, which
        share their configs, encode each machine once."""
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))

    def with_updates(self, **kwargs) -> "MachineConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def for_way(cls, way: int, mem_latency: int = 1, **overrides) -> "MachineConfig":
        """Standard configuration for a ``way``-issue machine.

        Functional-unit counts, queue and ROB sizes and physical-register
        counts scale with the issue width, following the usual practice for
        width-scaling studies (and keeping the 4-way point close to an R10K
        with added multimedia units, as in the paper).
        """
        if way < 1:
            raise ValueError(f"way (issue width) must be >= 1, got {way}")
        if way > MAX_WAY:
            raise ValueError(f"way (issue width) must be <= {MAX_WAY}, "
                             f"got {way}")
        cfg = cls(
            name=f"way{way}",
            fetch_width=way,
            issue_width=way,
            commit_width=way,
            rob_size=16 * way,
            int_queue_size=8 * way,
            mem_queue_size=8 * way,
            media_queue_size=8 * way,
            num_int_alu=way,
            num_int_mul=max(1, way // 4),
            num_mem_ports=max(1, way // 2),
            # One multimedia pipe per issue slot: peak packed-word throughput
            # (64 bits/cycle per pipe) is then identical for MMX/MDMX
            # instructions and MOM vector elements, which is the level playing
            # field the paper's comparison assumes.
            num_media_fu=way,
            media_lanes=1,
            mem_port_width=2,
            mem_latency=mem_latency,
            phys_int_regs=32 + 12 * way,
            phys_media_regs=32 + 12 * way,
            phys_matrix_regs=16 + 8 * way,
            # Accumulators are fully renamed; a tight physical-accumulator
            # pool would serialise MDMX far beyond the architectural
            # recurrence the paper describes.
            phys_acc_regs=4 + 8 * way,
        )
        if overrides:
            cfg = cfg.with_updates(**overrides)
        return cfg


_AT_MOST.update(
    (name, getattr(MachineConfig.for_way(MAX_WAY), name))
    for name in ("fetch_width", "issue_width", "commit_width", "rob_size",
                 "int_queue_size", "mem_queue_size", "media_queue_size",
                 "phys_int_regs", "phys_media_regs", "phys_matrix_regs",
                 "phys_acc_regs"))
