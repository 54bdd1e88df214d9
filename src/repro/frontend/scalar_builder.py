"""Scalar (Alpha-like) instruction builder.

The scalar builder is the baseline ISA of the paper ("Alpha code") and also
the base class of the multimedia builders: MMX / MDMX / MOM kernels still
need scalar instructions for address arithmetic, loop control and scalar
post-processing, and those overhead instructions are a first-class part of
the paper's analysis (they are what the R metric measures).

Every emit method executes its semantics against the shared
:class:`~repro.frontend.machine.FunctionalMachine` and appends a
:class:`~repro.trace.instruction.DynInstr` to the trace.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Sequence

from repro.frontend.machine import FunctionalMachine
from repro.isa.opclasses import OpClass, RegFile
from repro.trace.container import Trace
from repro.trace.instruction import RegRef, ref_interner

__all__ = ["ScalarBuilder"]

_WORD64_MASK = (1 << 64) - 1

#: Interned scalar-register lookup: every emitted instruction names its
#: operands through the shared per-file instances, so the emission hot
#: path allocates no RegRef objects (and the column recorder's interning
#: dict hashes the same few instances over and over).
_ref_int = ref_interner(RegFile.INT)


class ScalarBuilder:
    """Builder for the scalar baseline ISA.

    Scalar registers are referred to by integer index (0–31); register 31 is
    hard-wired to zero.  Values are Python ints and are *not* wrapped to 64
    bits (addresses and loop counters never approach that range), except for
    explicit logical operations.
    """

    isa_name = "scalar"

    def __init__(self, machine: FunctionalMachine, trace: Optional[Trace] = None,
                 name: str = "") -> None:
        self.machine = machine
        self.trace = trace if trace is not None else Trace(name=name, isa=self.isa_name)
        if not self.trace.isa:
            self.trace.isa = self.isa_name
        self.regs = machine.int_regs
        self.memory = machine.memory

    # ------------------------------------------------------------------
    # trace plumbing
    # ------------------------------------------------------------------

    def _emit(
        self,
        opcode: str,
        opclass: OpClass,
        srcs: Sequence[RegRef] = (),
        dsts: Sequence[RegRef] = (),
        ops: int = 1,
        vlx: int = 1,
        vly: int = 1,
        is_vector: bool = False,
        non_pipelined: bool = False,
    ) -> None:
        # One positional call into the trace's emission path: a column-mode
        # trace (the default) records flat ids and never constructs a
        # DynInstr; an object-mode trace builds the instruction there.
        self.trace.emit(opcode, opclass, tuple(srcs), tuple(dsts), ops,
                        vlx, vly, is_vector, non_pipelined, self.isa_name)

    # ------------------------------------------------------------------
    # block emission
    # ------------------------------------------------------------------

    @contextmanager
    def _suppress_emission(self):
        """Run builder semantics without recording any instructions.

        Shadows :meth:`_emit` with a no-op *instance* attribute, so every
        emission helper (``_emit_media`` and ``_emit_matrix`` in the
        subclasses funnel through it) goes quiet while register, memory
        and accumulator updates still happen.  Nesting is safe: only the
        outermost context removes the shadow.
        """
        already = "_emit" in self.__dict__
        if not already:
            self.__dict__["_emit"] = lambda *args, **kwargs: None
        try:
            yield
        finally:
            if not already:
                del self.__dict__["_emit"]

    def replay(self, body, iteration: int) -> None:
        """Execute ``body(iteration)`` with emission suppressed.

        The closing step of a :meth:`unroll` ``bulk``: running the *last*
        iteration's semantics silently reproduces every loop-carried
        register, accumulator and matrix value exactly, so the bulk only
        has to vectorise the middle iterations' memory effects.
        """
        with self._suppress_emission():
            body(iteration)

    def unroll(self, count: int, body, bulk=None) -> None:
        """Emit ``count`` iterations of a kernel loop as one record block.

        ``body(i)`` must emit an *iteration-invariant* record sequence —
        the same opcodes, op counts and register indices every iteration.
        Immediates, addresses and data values may differ freely: emitted
        records carry none of them.  Loops that rotate register numbers
        per iteration cannot use this helper.

        On a column-mode trace the builder runs ``body(0)`` normally,
        replicates its record block ``count - 1`` times in the columns
        (:meth:`~repro.trace.container.Trace.replicate_tail`), then calls
        ``bulk(1, count)`` to apply the remaining iterations' semantics in
        one step.  ``bulk(lo, hi)`` must leave memory and every register
        file exactly as running ``body(lo) .. body(hi - 1)`` would —
        typically vectorised NumPy writes for the middle iterations'
        memory effects followed by ``self.replay(body, hi - 1)`` for the
        loop-carried state.

        Without ``bulk``, with ``count == 1``, or on an object-mode trace,
        every iteration runs through ``body`` — the per-iteration
        reference path that the column/object equivalence tests pin the
        block path against.
        """
        if count <= 0:
            return
        # Inside a replay (suppressed emission) nothing is recorded, so a
        # nested unroll takes the bulk shortcut without touching the trace
        # — the semantics of all ``count`` iterations at body(0)+bulk cost.
        suppressed = "_emit" in self.__dict__
        if bulk is None or count == 1 or (
                self.trace.columns is None and not suppressed):
            for i in range(count):
                body(i)
            return
        start = len(self.trace)
        body(0)
        if not suppressed:
            self.trace.replicate_tail(start, count - 1)
        bulk(1, count)

    # ------------------------------------------------------------------
    # immediates and moves
    # ------------------------------------------------------------------

    def li(self, rd: int, imm: int) -> None:
        """Load an immediate into a scalar register."""
        self.regs.write(rd, int(imm))
        self._emit("li", OpClass.IALU, srcs=(), dsts=(_ref_int(rd),))

    def mov(self, rd: int, rs: int) -> None:
        """Register-to-register move."""
        self.regs.write(rd, self.regs.read(rs))
        self._emit("mov", OpClass.IALU, srcs=(_ref_int(rs),), dsts=(_ref_int(rd),))

    # ------------------------------------------------------------------
    # integer ALU
    # ------------------------------------------------------------------

    def _binop(self, opcode: str, rd: int, ra: int, rb: int, fn) -> None:
        result = fn(self.regs.read(ra), self.regs.read(rb))
        self.regs.write(rd, result)
        self._emit(opcode, OpClass.IALU, srcs=(_ref_int(ra), _ref_int(rb)),
                   dsts=(_ref_int(rd),))

    def _immop(self, opcode: str, rd: int, ra: int, imm: int, fn) -> None:
        result = fn(self.regs.read(ra), int(imm))
        self.regs.write(rd, result)
        self._emit(opcode, OpClass.IALU, srcs=(_ref_int(ra),), dsts=(_ref_int(rd),))

    def add(self, rd: int, ra: int, rb: int) -> None:
        """Integer add."""
        self._binop("add", rd, ra, rb, lambda a, b: a + b)

    def addi(self, rd: int, ra: int, imm: int) -> None:
        """Integer add with an immediate."""
        self._immop("addi", rd, ra, imm, lambda a, b: a + b)

    def sub(self, rd: int, ra: int, rb: int) -> None:
        """Integer subtract."""
        self._binop("sub", rd, ra, rb, lambda a, b: a - b)

    def subi(self, rd: int, ra: int, imm: int) -> None:
        """Integer subtract with an immediate."""
        self._immop("subi", rd, ra, imm, lambda a, b: a - b)

    def and_(self, rd: int, ra: int, rb: int) -> None:
        """Bitwise AND."""
        self._binop("and", rd, ra, rb, lambda a, b: (a & b) & _WORD64_MASK)

    def andi(self, rd: int, ra: int, imm: int) -> None:
        """Bitwise AND with an immediate."""
        self._immop("andi", rd, ra, imm, lambda a, b: (a & b) & _WORD64_MASK)

    def or_(self, rd: int, ra: int, rb: int) -> None:
        """Bitwise OR."""
        self._binop("or", rd, ra, rb, lambda a, b: (a | b) & _WORD64_MASK)

    def xor(self, rd: int, ra: int, rb: int) -> None:
        """Bitwise exclusive OR."""
        self._binop("xor", rd, ra, rb, lambda a, b: (a ^ b) & _WORD64_MASK)

    def slli(self, rd: int, ra: int, shift: int) -> None:
        """Shift left logical by an immediate."""
        self._immop("slli", rd, ra, shift, lambda a, s: a << s)

    def srai(self, rd: int, ra: int, shift: int) -> None:
        """Shift right arithmetic by an immediate."""
        self._immop("srai", rd, ra, shift, lambda a, s: a >> s)

    def srli(self, rd: int, ra: int, shift: int) -> None:
        """Shift right logical (64-bit) by an immediate."""
        self._immop("srli", rd, ra, shift, lambda a, s: (a & _WORD64_MASK) >> s)

    def mul(self, rd: int, ra: int, rb: int) -> None:
        """Integer multiply (long latency)."""
        result = self.regs.read(ra) * self.regs.read(rb)
        self.regs.write(rd, result)
        self._emit("mul", OpClass.IMUL, srcs=(_ref_int(ra), _ref_int(rb)),
                   dsts=(_ref_int(rd),))

    def muli(self, rd: int, ra: int, imm: int) -> None:
        """Integer multiply by an immediate (long latency)."""
        result = self.regs.read(ra) * int(imm)
        self.regs.write(rd, result)
        self._emit("muli", OpClass.IMUL, srcs=(_ref_int(ra),), dsts=(_ref_int(rd),))

    # ------------------------------------------------------------------
    # comparisons and conditional moves
    # ------------------------------------------------------------------

    def cmplt(self, rd: int, ra: int, rb: int) -> None:
        """``rd = 1 if ra < rb else 0`` (signed)."""
        self._binop("cmplt", rd, ra, rb, lambda a, b: 1 if a < b else 0)

    def cmple(self, rd: int, ra: int, rb: int) -> None:
        """``rd = 1 if ra <= rb else 0``."""
        self._binop("cmple", rd, ra, rb, lambda a, b: 1 if a <= b else 0)

    def cmpeq(self, rd: int, ra: int, rb: int) -> None:
        """``rd = 1 if ra == rb else 0``."""
        self._binop("cmpeq", rd, ra, rb, lambda a, b: 1 if a == b else 0)

    def cmplti(self, rd: int, ra: int, imm: int) -> None:
        """``rd = 1 if ra < imm else 0``."""
        self._immop("cmplti", rd, ra, imm, lambda a, b: 1 if a < b else 0)

    def cmovlt(self, rd: int, rc: int, rs: int) -> None:
        """Conditional move: ``rd = rs`` if ``rc != 0``."""
        if self.regs.read(rc) != 0:
            self.regs.write(rd, self.regs.read(rs))
        self._emit("cmovlt", OpClass.IALU,
                   srcs=(_ref_int(rc), _ref_int(rs), _ref_int(rd)),
                   dsts=(_ref_int(rd),))

    def max_(self, rd: int, ra: int, rb: int) -> None:
        """``rd = max(ra, rb)`` — modelled as one ALU op (cmov-style)."""
        self._binop("max", rd, ra, rb, max)

    def min_(self, rd: int, ra: int, rb: int) -> None:
        """``rd = min(ra, rb)`` — modelled as one ALU op (cmov-style)."""
        self._binop("min", rd, ra, rb, min)

    def abs_(self, rd: int, ra: int) -> None:
        """``rd = |ra|`` — modelled as one ALU op."""
        self.regs.write(rd, abs(self.regs.read(ra)))
        self._emit("abs", OpClass.IALU, srcs=(_ref_int(ra),), dsts=(_ref_int(rd),))

    def clamp(self, rd: int, ra: int, lo: int, hi: int) -> None:
        """Clamp ``ra`` into ``[lo, hi]`` — two ALU operations (min + max)."""
        value = self.regs.read(ra)
        self.regs.write(rd, max(lo, min(hi, value)))
        self._emit("clamp_lo", OpClass.IALU, srcs=(_ref_int(ra),), dsts=(_ref_int(rd),))
        self._emit("clamp_hi", OpClass.IALU, srcs=(_ref_int(rd),), dsts=(_ref_int(rd),))

    # ------------------------------------------------------------------
    # branches (perfectly predicted in the timing model)
    # ------------------------------------------------------------------

    def branch(self, rc: int, opcode: str = "bne") -> None:
        """A conditional branch consuming ``rc``; direction is irrelevant to
        the timing model (perfect prediction) but the instruction still
        occupies fetch/issue/commit bandwidth."""
        self._emit(opcode, OpClass.BRANCH, srcs=(_ref_int(rc),), dsts=())

    def jump(self) -> None:
        """Unconditional branch (loop back-edge)."""
        self._emit("br", OpClass.BRANCH, srcs=(), dsts=())

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------

    def _load(self, opcode: str, rd: int, base: int, offset: int, nbytes: int,
              signed: bool) -> None:
        addr = self.regs.read(base) + offset
        value = (self.memory.read_sint(addr, nbytes) if signed
                 else self.memory.read_uint(addr, nbytes))
        self.regs.write(rd, value)
        self._emit(opcode, OpClass.LOAD, srcs=(_ref_int(base),), dsts=(_ref_int(rd),))

    def _store(self, opcode: str, rs: int, base: int, offset: int, nbytes: int) -> None:
        addr = self.regs.read(base) + offset
        self.memory.write_uint(addr, self.regs.read(rs), nbytes)
        self._emit(opcode, OpClass.STORE, srcs=(_ref_int(rs), _ref_int(base)), dsts=())

    def ldbu(self, rd: int, base: int, offset: int = 0) -> None:
        """Load unsigned byte."""
        self._load("ldbu", rd, base, offset, 1, signed=False)

    def ldb(self, rd: int, base: int, offset: int = 0) -> None:
        """Load signed byte."""
        self._load("ldb", rd, base, offset, 1, signed=True)

    def ldwu(self, rd: int, base: int, offset: int = 0) -> None:
        """Load unsigned 16-bit halfword."""
        self._load("ldwu", rd, base, offset, 2, signed=False)

    def ldw(self, rd: int, base: int, offset: int = 0) -> None:
        """Load signed 16-bit halfword."""
        self._load("ldw", rd, base, offset, 2, signed=True)

    def ldl(self, rd: int, base: int, offset: int = 0) -> None:
        """Load signed 32-bit longword."""
        self._load("ldl", rd, base, offset, 4, signed=True)

    def ldq(self, rd: int, base: int, offset: int = 0) -> None:
        """Load 64-bit quadword."""
        self._load("ldq", rd, base, offset, 8, signed=False)

    def stb(self, rs: int, base: int, offset: int = 0) -> None:
        """Store byte."""
        self._store("stb", rs, base, offset, 1)

    def stw(self, rs: int, base: int, offset: int = 0) -> None:
        """Store 16-bit halfword."""
        self._store("stw", rs, base, offset, 2)

    def stl(self, rs: int, base: int, offset: int = 0) -> None:
        """Store 32-bit longword."""
        self._store("stl", rs, base, offset, 4)

    def stq(self, rs: int, base: int, offset: int = 0) -> None:
        """Store 64-bit quadword."""
        self._store("stq", rs, base, offset, 8)
