"""MMX-like and MDMX-like instruction builders.

:class:`MMXBuilder` models the paper's MMX-like extension: packed sub-word
operations on 32 logical 64-bit multimedia registers, with multimedia loads
and stores.  :class:`MDMXBuilder` extends it with the packed accumulators of
the MDMX-like extension (section 3.1 of the paper) — the accumulator-operate
instructions carry a read-modify-write dependence on the accumulator, which
is the recurrence the paper discusses.
"""

from __future__ import annotations

import numpy as np

from repro.common.datatypes import ElementType, U8, S16, S32, pack_word, unpack_word
from repro.frontend.scalar_builder import ScalarBuilder, _ref_int
from repro.isa import accum, simdops
from repro.isa.opclasses import OpClass, RegFile
from repro.trace.instruction import ref_interner

__all__ = ["MMXBuilder", "MDMXBuilder"]


# Interned multimedia / accumulator lookups (shared per-file instances,
# see repro.trace.instruction.ref_interner).
_ref_mm = ref_interner(RegFile.MEDIA)
_ref_acc = ref_interner(RegFile.ACC)


class MMXBuilder(ScalarBuilder):
    """Builder for the MMX-like multimedia extension.

    Multimedia registers are referred to by integer index (0–31).  All
    packed-operation emit methods take an :class:`ElementType` so the same
    method covers the byte / halfword / longword opcode variants.
    """

    isa_name = "mmx"

    def __init__(self, machine, trace=None, name: str = "") -> None:
        super().__init__(machine, trace, name)
        self.mm = machine.media_regs

    # ------------------------------------------------------------------
    # emission helper for packed operations
    # ------------------------------------------------------------------

    def _emit_media(self, opcode: str, opclass: OpClass, srcs, dsts,
                    etype: ElementType | None, ops: int | None = None) -> None:
        vlx = etype.lanes if etype is not None else 1
        self._emit(
            opcode,
            opclass,
            srcs=srcs,
            dsts=dsts,
            ops=ops if ops is not None else vlx,
            vlx=vlx,
            vly=1,
            is_vector=True,
        )

    # ------------------------------------------------------------------
    # multimedia memory and moves
    # ------------------------------------------------------------------

    def movq_ld(self, mmd: int, base: int, offset: int = 0,
                etype: ElementType = U8) -> None:
        """Load a 64-bit packed word from ``[base + offset]``.

        ``etype`` only affects operation accounting (how many elements the
        load brings in), not the bits moved.
        """
        addr = self.regs.read(base) + offset
        word = self.memory.read_uint(addr, 8)
        self.mm.write(mmd, word)
        self._emit_media("movq_ld", OpClass.MEDIA_LOAD, (_ref_int(base),),
                         (_ref_mm(mmd),), etype)

    def movq_st(self, mms: int, base: int, offset: int = 0,
                etype: ElementType = U8) -> None:
        """Store a 64-bit packed word to ``[base + offset]``."""
        addr = self.regs.read(base) + offset
        self.memory.write_uint(addr, self.mm.read(mms), 8)
        self._emit_media("movq_st", OpClass.MEDIA_STORE,
                         (_ref_mm(mms), _ref_int(base)), (), etype)

    def movd_ld(self, mmd: int, base: int, offset: int = 0,
                etype: ElementType = U8) -> None:
        """Load a 32-bit value into the low half of a multimedia register."""
        addr = self.regs.read(base) + offset
        word = self.memory.read_uint(addr, 4)
        self.mm.write(mmd, word)
        self._emit_media("movd_ld", OpClass.MEDIA_LOAD, (_ref_int(base),),
                         (_ref_mm(mmd),), etype, ops=max(1, etype.lanes // 2))

    def movd_st(self, mms: int, base: int, offset: int = 0,
                etype: ElementType = U8) -> None:
        """Store the low 32 bits of a multimedia register."""
        addr = self.regs.read(base) + offset
        self.memory.write_uint(addr, self.mm.read(mms) & 0xFFFFFFFF, 4)
        self._emit_media("movd_st", OpClass.MEDIA_STORE,
                         (_ref_mm(mms), _ref_int(base)), (), etype,
                         ops=max(1, etype.lanes // 2))

    def movq(self, mmd: int, mms: int) -> None:
        """Register-to-register multimedia move."""
        self.mm.write(mmd, self.mm.read(mms))
        self._emit_media("movq", OpClass.MEDIA_MISC, (_ref_mm(mms),),
                         (_ref_mm(mmd),), None, ops=1)

    def movd_from_int(self, mmd: int, rs: int) -> None:
        """Move a scalar integer register into a multimedia register."""
        self.mm.write(mmd, self.regs.read(rs) & ((1 << 64) - 1))
        self._emit_media("movd_from_int", OpClass.MEDIA_MISC, (_ref_int(rs),),
                         (_ref_mm(mmd),), None, ops=1)

    def movd_to_int(self, rd: int, mms: int, lane: int = 0,
                    etype: ElementType = S32) -> None:
        """Extract one lane of a multimedia register into a scalar register."""
        lanes = unpack_word(self.mm.read(mms), etype)
        self.regs.write(rd, int(lanes[lane]))
        self._emit_media("movd_to_int", OpClass.MEDIA_MISC, (_ref_mm(mms),),
                         (_ref_int(rd),), None, ops=1)

    def splat(self, mmd: int, rs: int, etype: ElementType) -> None:
        """Broadcast a scalar register value into every lane."""
        self.mm.write(mmd, simdops.splat(self.regs.read(rs), etype))
        self._emit_media("splat", OpClass.MEDIA_MISC, (_ref_int(rs),),
                         (_ref_mm(mmd),), etype)

    def load_const(self, mmd: int, lanes, etype: ElementType) -> None:
        """Materialise a packed constant (modelled as one load from a
        constant pool, as a compiler would emit)."""
        self.mm.write(mmd, pack_word(np.asarray(lanes) & etype.mask, etype))
        self._emit_media("ld_const", OpClass.MEDIA_LOAD, (), (_ref_mm(mmd),), etype)

    def pzero(self, mmd: int) -> None:
        """Clear a multimedia register (pxor mm, mm idiom)."""
        self.mm.write(mmd, 0)
        self._emit_media("pzero", OpClass.MEDIA_ALU, (), (_ref_mm(mmd),), None, ops=1)

    # ------------------------------------------------------------------
    # packed arithmetic
    # ------------------------------------------------------------------

    def _packed_binop(self, opcode: str, opclass: OpClass, mmd: int, mma: int,
                      mmb: int, etype: ElementType, fn, *args, **kwargs) -> None:
        result = fn(self.mm.read(mma), self.mm.read(mmb), *args, **kwargs)
        self.mm.write(mmd, result)
        self._emit_media(opcode, opclass, (_ref_mm(mma), _ref_mm(mmb)),
                         (_ref_mm(mmd),), etype)

    def padd(self, mmd: int, mma: int, mmb: int, etype: ElementType,
             saturating: str = "wrap") -> None:
        """Packed add (``saturating`` is ``"wrap"`` or ``"sat"``)."""
        opcode = f"padd{'s' if saturating == 'sat' else ''}{etype.name}"
        self._packed_binop(opcode, OpClass.MEDIA_ALU, mmd, mma, mmb, etype,
                           simdops.padd, etype, saturating)

    def psub(self, mmd: int, mma: int, mmb: int, etype: ElementType,
             saturating: str = "wrap") -> None:
        """Packed subtract."""
        opcode = f"psub{'s' if saturating == 'sat' else ''}{etype.name}"
        self._packed_binop(opcode, OpClass.MEDIA_ALU, mmd, mma, mmb, etype,
                           simdops.psub, etype, saturating)

    def pmull(self, mmd: int, mma: int, mmb: int, etype: ElementType = S16) -> None:
        """Packed multiply, low halves of the products."""
        self._packed_binop(f"pmull{etype.name}", OpClass.MEDIA_MUL, mmd, mma, mmb,
                           etype, simdops.pmull, etype)

    def pmulh(self, mmd: int, mma: int, mmb: int, etype: ElementType = S16,
              rounding: bool = False) -> None:
        """Packed multiply, high halves of the products."""
        self._packed_binop(f"pmulh{etype.name}", OpClass.MEDIA_MUL, mmd, mma, mmb,
                           etype, simdops.pmulh, etype, rounding)

    def pmadd(self, mmd: int, mma: int, mmb: int, etype: ElementType = S16) -> None:
        """``pmaddwd``: multiply lanes and add adjacent pairs into wide lanes."""
        self._packed_binop("pmaddwd", OpClass.MEDIA_MUL, mmd, mma, mmb, etype,
                           simdops.pmadd, etype)

    def psad(self, mmd: int, mma: int, mmb: int, etype: ElementType = U8) -> None:
        """Sum of absolute differences across lanes (scalar result in lane 0)."""
        self._packed_binop("psadbw", OpClass.MEDIA_ALU, mmd, mma, mmb, etype,
                           simdops.psad, etype)

    def pabsdiff(self, mmd: int, mma: int, mmb: int, etype: ElementType = U8) -> None:
        """Packed absolute difference."""
        self._packed_binop("pabsdiff", OpClass.MEDIA_ALU, mmd, mma, mmb, etype,
                           simdops.pabsdiff, etype)

    def pavg(self, mmd: int, mma: int, mmb: int, etype: ElementType = U8) -> None:
        """Packed average with rounding."""
        self._packed_binop(f"pavg{etype.name}", OpClass.MEDIA_ALU, mmd, mma, mmb,
                           etype, simdops.pavg, etype)

    def pmin(self, mmd: int, mma: int, mmb: int, etype: ElementType) -> None:
        """Packed minimum."""
        self._packed_binop(f"pmin{etype.name}", OpClass.MEDIA_ALU, mmd, mma, mmb,
                           etype, simdops.pmin, etype)

    def pmax(self, mmd: int, mma: int, mmb: int, etype: ElementType) -> None:
        """Packed maximum."""
        self._packed_binop(f"pmax{etype.name}", OpClass.MEDIA_ALU, mmd, mma, mmb,
                           etype, simdops.pmax, etype)

    def pcmpeq(self, mmd: int, mma: int, mmb: int, etype: ElementType) -> None:
        """Packed compare-equal (all-ones mask per matching lane)."""
        self._packed_binop(f"pcmpeq{etype.name}", OpClass.MEDIA_ALU, mmd, mma, mmb,
                           etype, simdops.pcmpeq, etype)

    def pcmpgt(self, mmd: int, mma: int, mmb: int, etype: ElementType) -> None:
        """Packed compare-greater-than (signed)."""
        self._packed_binop(f"pcmpgt{etype.name}", OpClass.MEDIA_ALU, mmd, mma, mmb,
                           etype, simdops.pcmpgt, etype)

    # ------------------------------------------------------------------
    # packed logical and shifts
    # ------------------------------------------------------------------

    def pand(self, mmd: int, mma: int, mmb: int) -> None:
        """Bitwise AND of packed words."""
        result = simdops.pand(self.mm.read(mma), self.mm.read(mmb))
        self.mm.write(mmd, result)
        self._emit_media("pand", OpClass.MEDIA_ALU, (_ref_mm(mma), _ref_mm(mmb)),
                         (_ref_mm(mmd),), U8)

    def pandn(self, mmd: int, mma: int, mmb: int) -> None:
        """Bitwise AND-NOT (``~a & b``) of packed words."""
        result = simdops.pandn(self.mm.read(mma), self.mm.read(mmb))
        self.mm.write(mmd, result)
        self._emit_media("pandn", OpClass.MEDIA_ALU, (_ref_mm(mma), _ref_mm(mmb)),
                         (_ref_mm(mmd),), U8)

    def por(self, mmd: int, mma: int, mmb: int) -> None:
        """Bitwise OR of packed words."""
        result = simdops.por(self.mm.read(mma), self.mm.read(mmb))
        self.mm.write(mmd, result)
        self._emit_media("por", OpClass.MEDIA_ALU, (_ref_mm(mma), _ref_mm(mmb)),
                         (_ref_mm(mmd),), U8)

    def pxor(self, mmd: int, mma: int, mmb: int) -> None:
        """Bitwise exclusive OR of packed words."""
        result = simdops.pxor(self.mm.read(mma), self.mm.read(mmb))
        self.mm.write(mmd, result)
        self._emit_media("pxor", OpClass.MEDIA_ALU, (_ref_mm(mma), _ref_mm(mmb)),
                         (_ref_mm(mmd),), U8)

    def psll(self, mmd: int, mms: int, shift: int, etype: ElementType) -> None:
        """Packed shift left logical by an immediate."""
        self.mm.write(mmd, simdops.psll(self.mm.read(mms), shift, etype))
        self._emit_media(f"psll{etype.name}", OpClass.MEDIA_MISC, (_ref_mm(mms),),
                         (_ref_mm(mmd),), etype)

    def psrl(self, mmd: int, mms: int, shift: int, etype: ElementType) -> None:
        """Packed shift right logical by an immediate."""
        self.mm.write(mmd, simdops.psrl(self.mm.read(mms), shift, etype))
        self._emit_media(f"psrl{etype.name}", OpClass.MEDIA_MISC, (_ref_mm(mms),),
                         (_ref_mm(mmd),), etype)

    def psra(self, mmd: int, mms: int, shift: int, etype: ElementType) -> None:
        """Packed shift right arithmetic by an immediate."""
        self.mm.write(mmd, simdops.psra(self.mm.read(mms), shift, etype))
        self._emit_media(f"psra{etype.name}", OpClass.MEDIA_MISC, (_ref_mm(mms),),
                         (_ref_mm(mmd),), etype)

    def pshift_scale(self, mmd: int, mms: int, shift: int, etype: ElementType,
                     saturating: str = "wrap") -> None:
        """Arithmetic right shift with round-half-up (descale) per lane."""
        self.mm.write(mmd, simdops.pshift_scale(self.mm.read(mms), shift, etype,
                                                saturating))
        self._emit_media("pscale", OpClass.MEDIA_MISC, (_ref_mm(mms),),
                         (_ref_mm(mmd),), etype)

    # ------------------------------------------------------------------
    # pack / unpack (data promotion)
    # ------------------------------------------------------------------

    def packss(self, mmd: int, mma: int, mmb: int, src_etype: ElementType) -> None:
        """Pack two wide-lane words into one narrow-lane word, signed saturation."""
        self._packed_binop(f"packss_{src_etype.name}", OpClass.MEDIA_MISC, mmd,
                           mma, mmb, src_etype, simdops.packss, src_etype)

    def packus(self, mmd: int, mma: int, mmb: int, src_etype: ElementType) -> None:
        """Pack with unsigned saturation."""
        self._packed_binop(f"packus_{src_etype.name}", OpClass.MEDIA_MISC, mmd,
                           mma, mmb, src_etype, simdops.packus, src_etype)

    def punpckl(self, mmd: int, mma: int, mmb: int, etype: ElementType) -> None:
        """Interleave low halves (used for zero-extension / data promotion)."""
        self._packed_binop(f"punpckl_{etype.name}", OpClass.MEDIA_MISC, mmd,
                           mma, mmb, etype, simdops.punpckl, etype)

    def punpckh(self, mmd: int, mma: int, mmb: int, etype: ElementType) -> None:
        """Interleave high halves."""
        self._packed_binop(f"punpckh_{etype.name}", OpClass.MEDIA_MISC, mmd,
                           mma, mmb, etype, simdops.punpckh, etype)


class MDMXBuilder(MMXBuilder):
    """Builder for the MDMX-like extension: MMX plus packed accumulators.

    Accumulators are referred to by index (0–3).  Every accumulator-operate
    instruction reads and writes the accumulator (the architectural
    recurrence); the read-out instructions round/clip into an ordinary
    multimedia register or a scalar register.
    """

    isa_name = "mdmx"

    def __init__(self, machine, trace=None, name: str = "") -> None:
        super().__init__(machine, trace, name)
        self.accs = machine.mdmx_accs

    # ------------------------------------------------------------------

    def _emit_acc(self, opcode: str, srcs, dsts, etype: ElementType,
                  ops: int | None = None) -> None:
        self._emit(
            opcode,
            OpClass.MEDIA_ACC,
            srcs=srcs,
            dsts=dsts,
            ops=ops if ops is not None else etype.lanes,
            vlx=etype.lanes,
            vly=1,
            is_vector=True,
        )

    def acc_clear(self, acc: int, etype: ElementType = S16) -> None:
        """Zero an accumulator."""
        self.accs.clear(acc)
        self._emit_acc("acc_clear", (), (_ref_acc(acc),), etype, ops=1)

    def acc_madd(self, acc: int, mma: int, mmb: int, etype: ElementType = S16) -> None:
        """``acc += a * b`` lane-wise (multiply-accumulate)."""
        new = accum.acc_mul_add(self.accs.read(acc), self.mm.read(mma),
                                self.mm.read(mmb), etype)
        self.accs.write(acc, new)
        self._emit_acc(f"acc_madd{etype.name}",
                       (_ref_mm(mma), _ref_mm(mmb), _ref_acc(acc)),
                       (_ref_acc(acc),), etype)

    def acc_msub(self, acc: int, mma: int, mmb: int, etype: ElementType = S16) -> None:
        """``acc -= a * b`` lane-wise."""
        new = accum.acc_mul_sub(self.accs.read(acc), self.mm.read(mma),
                                self.mm.read(mmb), etype)
        self.accs.write(acc, new)
        self._emit_acc(f"acc_msub{etype.name}",
                       (_ref_mm(mma), _ref_mm(mmb), _ref_acc(acc)),
                       (_ref_acc(acc),), etype)

    def acc_add(self, acc: int, mma: int, etype: ElementType = S16) -> None:
        """``acc += a`` lane-wise."""
        new = accum.acc_add(self.accs.read(acc), self.mm.read(mma), etype)
        self.accs.write(acc, new)
        self._emit_acc(f"acc_add{etype.name}", (_ref_mm(mma), _ref_acc(acc)),
                       (_ref_acc(acc),), etype)

    def acc_sub(self, acc: int, mma: int, etype: ElementType = S16) -> None:
        """``acc -= a`` lane-wise."""
        new = accum.acc_sub(self.accs.read(acc), self.mm.read(mma), etype)
        self.accs.write(acc, new)
        self._emit_acc(f"acc_sub{etype.name}", (_ref_mm(mma), _ref_acc(acc)),
                       (_ref_acc(acc),), etype)

    def acc_absdiff(self, acc: int, mma: int, mmb: int,
                    etype: ElementType = U8) -> None:
        """``acc += |a - b|`` lane-wise (motion-estimation primitive)."""
        new = accum.acc_abs_diff_add(self.accs.read(acc), self.mm.read(mma),
                                     self.mm.read(mmb), etype)
        self.accs.write(acc, new)
        self._emit_acc(f"acc_absdiff{etype.name}",
                       (_ref_mm(mma), _ref_mm(mmb), _ref_acc(acc)),
                       (_ref_acc(acc),), etype)

    def acc_read(self, mmd: int, acc: int, etype: ElementType, shift: int = 0,
                 rounding: bool = True, saturating: bool = True) -> None:
        """Round/clip the accumulator into a multimedia register."""
        word = accum.acc_read(self.accs.read(acc), etype, shift, rounding, saturating)
        self.mm.write(mmd, word)
        self._emit_acc("acc_read", (_ref_acc(acc),), (_ref_mm(mmd),), etype)

    def acc_read_scalar(self, rd: int, acc: int, etype: ElementType,
                        shift: int = 0) -> None:
        """Sum all accumulator lanes into a scalar register (final reduction)."""
        total = accum.acc_read_scalar(self.accs.read(acc), etype.lanes, shift)
        self.regs.write(rd, total)
        self._emit_acc("acc_read_scalar", (_ref_acc(acc),), (_ref_int(rd),), etype)
