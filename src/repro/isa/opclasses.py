"""Operation classes, their default latencies and register-file tags.

Each dynamic instruction recorded by the front end carries an
:class:`OpClass` that tells the timing model which functional-unit pool it
needs, and a :class:`RegFile` tag on every operand that tells the rename
stage which rename table / physical register file it uses (the paper's Jinks
simulator keeps three rename tables: integer, floating point and
multimedia).
"""

from __future__ import annotations

import enum


class OpClass(enum.Enum):
    """Functional-unit class of an instruction."""

    IALU = "ialu"            # integer add/sub/logic/shift/compare, address arithmetic
    IMUL = "imul"            # integer multiply
    BRANCH = "branch"        # conditional/unconditional branches (int ALU pool)
    LOAD = "load"            # scalar load (any width up to 64 bits)
    STORE = "store"          # scalar store
    MEDIA_ALU = "media_alu"  # packed add/sub/logic/min/max/avg/compare
    MEDIA_MUL = "media_mul"  # packed multiplies and multiply-adds
    MEDIA_MISC = "media_misc"  # pack/unpack/shift/shuffle/move
    MEDIA_ACC = "media_acc"  # packed-accumulator operate / read-out
    MEDIA_LOAD = "media_load"    # 64-bit multimedia load (MMX/MDMX) or matrix load (MOM)
    MEDIA_STORE = "media_store"  # multimedia / matrix store
    MATRIX_MISC = "matrix_misc"  # non-pipelined matrix ops (transpose)

    @property
    def is_memory(self) -> bool:
        return self in (
            OpClass.LOAD,
            OpClass.STORE,
            OpClass.MEDIA_LOAD,
            OpClass.MEDIA_STORE,
        )

    @property
    def is_load(self) -> bool:
        return self in (OpClass.LOAD, OpClass.MEDIA_LOAD)

    @property
    def is_store(self) -> bool:
        return self in (OpClass.STORE, OpClass.MEDIA_STORE)

    @property
    def is_media(self) -> bool:
        return self in (
            OpClass.MEDIA_ALU,
            OpClass.MEDIA_MUL,
            OpClass.MEDIA_MISC,
            OpClass.MEDIA_ACC,
            OpClass.MATRIX_MISC,
        )


class RegFile(enum.Enum):
    """Architectural register file an operand belongs to."""

    INT = "int"        # scalar integer registers (addresses, loop counters)
    MEDIA = "media"    # 64-bit multimedia registers (MMX/MDMX)
    ACC = "acc"        # packed accumulators (MDMX and MOM)
    MATRIX = "matrix"  # MOM matrix registers (16 x 64-bit words each)
    VL = "vl"          # MOM vector-length control register


#: Default execution latencies (cycles) per operation class.  These follow
#: the paper's qualitative statements (multimedia ops are short-latency,
#: integer multiplies are long) and typical late-90s out-of-order cores; the
#: timing configuration can override any entry.
DEFAULT_LATENCIES: dict[OpClass, int] = {
    OpClass.IALU: 1,
    OpClass.IMUL: 8,
    OpClass.BRANCH: 1,
    OpClass.LOAD: 1,         # overridden by MachineConfig.mem_latency
    OpClass.STORE: 1,
    OpClass.MEDIA_ALU: 1,
    OpClass.MEDIA_MUL: 3,
    OpClass.MEDIA_MISC: 1,
    OpClass.MEDIA_ACC: 3,
    OpClass.MEDIA_LOAD: 1,   # overridden by MachineConfig.mem_latency
    OpClass.MEDIA_STORE: 1,
    OpClass.MATRIX_MISC: 8,  # transpose: "8 + C cycles", non-pipelined
}

