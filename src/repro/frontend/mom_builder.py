"""MOM (Matrix Oriented Multimedia) instruction builder.

MOM instructions are vector (dimension Y) versions of the packed MMX-like
operations: one instruction applies the packed operation to the first ``VL``
rows of its matrix-register operands.  Memory instructions follow the
traditional vector ISA style (base register + stride register, length from
the vector-length register).  Reductions go through packed accumulators that
are updated by a *single* matrix instruction — the dimension-Y recurrence is
pipelined in hardware, so unlike MDMX there is no per-row architectural
dependence chain.
"""

from __future__ import annotations

import numpy as np

from repro.common.datatypes import (
    ElementType,
    U8,
    S16,
    pack_planes,
    unpack_word_fast,
)
from repro.frontend.scalar_builder import ScalarBuilder, _ref_int
from repro.isa import accum, matrixops, simdops
from repro.isa.opclasses import OpClass, RegFile
from repro.isa.registers import MAX_MATRIX_ROWS
from repro.trace.instruction import ref_interner

__all__ = ["MOMBuilder"]


# Interned matrix / accumulator lookups (shared per-file instances, see
# repro.trace.instruction.ref_interner).
_ref_mr = ref_interner(RegFile.MATRIX)
_ref_acc = ref_interner(RegFile.ACC)

_REF_VL = ref_interner(RegFile.VL)(0)


class MOMBuilder(ScalarBuilder):
    """Builder for the MOM matrix ISA.

    Matrix registers are referred to by index (0–15), accumulators by index
    (0–1).  The current vector length is set with :meth:`setvl` and consumed
    implicitly by every matrix instruction (and recorded as a source operand
    so the timing model sees the dependence).
    """

    isa_name = "mom"

    def __init__(self, machine, trace=None, name: str = "") -> None:
        super().__init__(machine, trace, name)
        self.mr = machine.matrix_regs
        self.accs = machine.mom_accs
        self.vc = machine.vector_control

    # ------------------------------------------------------------------
    # vector length control
    # ------------------------------------------------------------------

    @property
    def vl(self) -> int:
        """Current vector length (dimension Y rows)."""
        return self.vc.vl

    def setvl(self, length: int) -> None:
        """Set the vector-length register."""
        self.vc.set_vl(length)
        self._emit("setvl", OpClass.IALU, srcs=(), dsts=(_REF_VL,))

    # ------------------------------------------------------------------
    # emission helper
    # ------------------------------------------------------------------

    def _emit_matrix(self, opcode: str, opclass: OpClass, srcs, dsts,
                     etype: ElementType | None, vly: int | None = None,
                     ops: int | None = None, non_pipelined: bool = False) -> None:
        vlx = etype.lanes if etype is not None else 1
        vly = self.vl if vly is None else vly
        self._emit(
            opcode,
            opclass,
            srcs=tuple(srcs) + (_REF_VL,),
            dsts=tuple(dsts),
            ops=ops if ops is not None else vlx * vly,
            vlx=vlx,
            vly=vly,
            is_vector=True,
            non_pipelined=non_pipelined,
        )

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------

    def mom_ld(self, mrd: int, base: int, stride: int,
               etype: ElementType = U8) -> None:
        """Strided matrix load: VL 64-bit rows from ``base``, ``stride`` bytes apart.

        ``base`` and ``stride`` are scalar register indices, as in the
        paper's ``mom_ldq MRi <- Rj, Rk``.
        """
        rows = self.memory.read_words_strided(
            self.regs.read(base), self.regs.read(stride), self.vl)
        self.mr.write(mrd, rows + [0] * (MAX_MATRIX_ROWS - len(rows)))
        self._emit_matrix("mom_ldq", OpClass.MEDIA_LOAD,
                          (_ref_int(base), _ref_int(stride)), (_ref_mr(mrd),), etype)

    def mom_st(self, mrs: int, base: int, stride: int,
               etype: ElementType = U8) -> None:
        """Strided matrix store of the first VL rows."""
        self.memory.write_words_strided(
            self.regs.read(base), self.regs.read(stride),
            self.mr.read(mrs)[: self.vl])
        self._emit_matrix("mom_stq", OpClass.MEDIA_STORE,
                          (_ref_mr(mrs), _ref_int(base), _ref_int(stride)), (), etype)

    def mom_load_const(self, mrd: int, matrix, etype: ElementType) -> None:
        """Materialise a constant matrix (modelled as one matrix load from a
        constant pool)."""
        arr = np.asarray(matrix)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        rows = [int(w) for w in pack_planes(arr, etype)]
        self.mr.write(mrd, rows + [0] * (MAX_MATRIX_ROWS - len(rows)))
        self._emit_matrix("mom_ld_const", OpClass.MEDIA_LOAD, (), (_ref_mr(mrd),),
                          etype, vly=len(rows))

    # ------------------------------------------------------------------
    # moves, broadcast, extraction
    # ------------------------------------------------------------------

    def mom_mov(self, mrd: int, mrs: int) -> None:
        """Matrix register move."""
        self.mr.write(mrd, self.mr.read(mrs))
        self._emit_matrix("mom_mov", OpClass.MEDIA_MISC, (_ref_mr(mrs),),
                          (_ref_mr(mrd),), None, ops=self.vl)

    def mom_splat(self, mrd: int, rs: int, etype: ElementType) -> None:
        """Broadcast a scalar register into every lane of every row."""
        word = simdops.splat(self.regs.read(rs), etype)
        self.mr.write(mrd, [word] * MAX_MATRIX_ROWS)
        self._emit_matrix("mom_splat", OpClass.MEDIA_MISC, (_ref_int(rs),),
                          (_ref_mr(mrd),), etype)

    def mom_zero(self, mrd: int) -> None:
        """Clear a matrix register."""
        self.mr.write(mrd, [0] * MAX_MATRIX_ROWS)
        self._emit_matrix("mom_zero", OpClass.MEDIA_ALU, (), (_ref_mr(mrd),), None,
                          ops=self.vl)

    def mom_extract(self, rd: int, mrs: int, row: int, lane: int,
                    etype: ElementType) -> None:
        """Extract one element into a scalar register."""
        lanes = unpack_word_fast(self.mr.read_row(mrs, row), etype)
        self.regs.write(rd, int(lanes[lane]))
        self._emit_matrix("mom_extract", OpClass.MEDIA_MISC, (_ref_mr(mrs),),
                          (_ref_int(rd),), None, ops=1, vly=1)

    # ------------------------------------------------------------------
    # row-mapped packed arithmetic
    # ------------------------------------------------------------------

    def _matrix_binop(self, opcode: str, opclass: OpClass, mrd: int, mra: int,
                      mrb: int, etype: ElementType, fn, *args,
                      rowbcast: bool = False, **kwargs) -> None:
        # The simdops functions are array-polymorphic: one call over a
        # (vl,) word array applies the packed op to every dimension-Y row.
        # tests/isa/test_simdops_planes.py pins that array form against
        # simdops_ref word by word.
        vl = self.vl
        aw = np.asarray(self.mr.read(mra)[:vl], dtype=np.uint64)
        if rowbcast:
            bw = np.full(vl, self.mr.read_row(mrb, 0), dtype=np.uint64)
        else:
            bw = np.asarray(self.mr.read(mrb)[:vl], dtype=np.uint64)
        res = fn(aw, bw, *args, **kwargs)
        out = [0] * MAX_MATRIX_ROWS
        out[:vl] = [int(w) for w in res]
        self.mr.write(mrd, out)
        self._emit_matrix(opcode, opclass, (_ref_mr(mra), _ref_mr(mrb)),
                          (_ref_mr(mrd),), etype)

    def _matrix_unop(self, opcode: str, opclass: OpClass, mrd: int, mra: int,
                     etype: ElementType, fn, *args, **kwargs) -> None:
        vl = self.vl
        aw = np.asarray(self.mr.read(mra)[:vl], dtype=np.uint64)
        res = fn(aw, *args, **kwargs)
        out = [0] * MAX_MATRIX_ROWS
        out[:vl] = [int(w) for w in res]
        self.mr.write(mrd, out)
        self._emit_matrix(opcode, opclass, (_ref_mr(mra),), (_ref_mr(mrd),), etype)

    def mom_padd(self, mrd: int, mra: int, mrb: int, etype: ElementType,
                 saturating: str = "wrap", rowbcast: bool = False) -> None:
        """Matrix packed add."""
        opcode = f"mom_padd{'s' if saturating == 'sat' else ''}{etype.name}"
        self._matrix_binop(opcode, OpClass.MEDIA_ALU, mrd, mra, mrb, etype,
                           simdops.padd, etype, saturating, rowbcast=rowbcast)

    def mom_psub(self, mrd: int, mra: int, mrb: int, etype: ElementType,
                 saturating: str = "wrap", rowbcast: bool = False) -> None:
        """Matrix packed subtract."""
        opcode = f"mom_psub{'s' if saturating == 'sat' else ''}{etype.name}"
        self._matrix_binop(opcode, OpClass.MEDIA_ALU, mrd, mra, mrb, etype,
                           simdops.psub, etype, saturating, rowbcast=rowbcast)

    def mom_pmull(self, mrd: int, mra: int, mrb: int, etype: ElementType = S16,
                  rowbcast: bool = False) -> None:
        """Matrix packed multiply (low)."""
        self._matrix_binop(f"mom_pmull{etype.name}", OpClass.MEDIA_MUL, mrd, mra,
                           mrb, etype, simdops.pmull, etype, rowbcast=rowbcast)

    def mom_pmulh(self, mrd: int, mra: int, mrb: int, etype: ElementType = S16,
                  rounding: bool = False, rowbcast: bool = False) -> None:
        """Matrix packed multiply (high)."""
        self._matrix_binop(f"mom_pmulh{etype.name}", OpClass.MEDIA_MUL, mrd, mra,
                           mrb, etype, simdops.pmulh, etype, rounding,
                           rowbcast=rowbcast)

    def mom_pmadd(self, mrd: int, mra: int, mrb: int,
                  etype: ElementType = S16, rowbcast: bool = False) -> None:
        """Matrix ``pmaddwd``: per-row multiply and add adjacent pairs."""
        self._matrix_binop("mom_pmaddwd", OpClass.MEDIA_MUL, mrd, mra, mrb, etype,
                           simdops.pmadd, etype, rowbcast=rowbcast)

    def mom_pavg(self, mrd: int, mra: int, mrb: int, etype: ElementType = U8,
                 rowbcast: bool = False) -> None:
        """Matrix packed average."""
        self._matrix_binop(f"mom_pavg{etype.name}", OpClass.MEDIA_ALU, mrd, mra,
                           mrb, etype, simdops.pavg, etype, rowbcast=rowbcast)

    def mom_pabsdiff(self, mrd: int, mra: int, mrb: int,
                     etype: ElementType = U8) -> None:
        """Matrix packed absolute difference."""
        self._matrix_binop("mom_pabsdiff", OpClass.MEDIA_ALU, mrd, mra, mrb, etype,
                           simdops.pabsdiff, etype)

    def mom_pmin(self, mrd: int, mra: int, mrb: int, etype: ElementType) -> None:
        """Matrix packed minimum."""
        self._matrix_binop(f"mom_pmin{etype.name}", OpClass.MEDIA_ALU, mrd, mra,
                           mrb, etype, simdops.pmin, etype)

    def mom_pmax(self, mrd: int, mra: int, mrb: int, etype: ElementType) -> None:
        """Matrix packed maximum."""
        self._matrix_binop(f"mom_pmax{etype.name}", OpClass.MEDIA_ALU, mrd, mra,
                           mrb, etype, simdops.pmax, etype)

    def mom_pand(self, mrd: int, mra: int, mrb: int) -> None:
        """Matrix bitwise AND."""
        self._matrix_binop("mom_pand", OpClass.MEDIA_ALU, mrd, mra, mrb, U8,
                           lambda a, b: simdops.pand(a, b))

    def mom_por(self, mrd: int, mra: int, mrb: int) -> None:
        """Matrix bitwise OR."""
        self._matrix_binop("mom_por", OpClass.MEDIA_ALU, mrd, mra, mrb, U8,
                           lambda a, b: simdops.por(a, b))

    def mom_pxor(self, mrd: int, mra: int, mrb: int) -> None:
        """Matrix bitwise exclusive OR."""
        self._matrix_binop("mom_pxor", OpClass.MEDIA_ALU, mrd, mra, mrb, U8,
                           lambda a, b: simdops.pxor(a, b))

    # ------------------------------------------------------------------
    # row-mapped shifts, pack/unpack
    # ------------------------------------------------------------------

    def mom_psll(self, mrd: int, mra: int, shift: int, etype: ElementType) -> None:
        """Matrix packed shift left logical by an immediate."""
        self._matrix_unop(f"mom_psll{etype.name}", OpClass.MEDIA_MISC, mrd, mra,
                          etype, simdops.psll, shift, etype)

    def mom_psrl(self, mrd: int, mra: int, shift: int, etype: ElementType) -> None:
        """Matrix packed shift right logical by an immediate."""
        self._matrix_unop(f"mom_psrl{etype.name}", OpClass.MEDIA_MISC, mrd, mra,
                          etype, simdops.psrl, shift, etype)

    def mom_psra(self, mrd: int, mra: int, shift: int, etype: ElementType) -> None:
        """Matrix packed shift right arithmetic by an immediate."""
        self._matrix_unop(f"mom_psra{etype.name}", OpClass.MEDIA_MISC, mrd, mra,
                          etype, simdops.psra, shift, etype)

    def mom_pshift_scale(self, mrd: int, mra: int, shift: int, etype: ElementType,
                         saturating: str = "wrap") -> None:
        """Matrix descale: arithmetic right shift with rounding per lane."""
        self._matrix_unop("mom_pscale", OpClass.MEDIA_MISC, mrd, mra, etype,
                          simdops.pshift_scale, shift, etype, saturating)

    def mom_packus(self, mrd: int, mra: int, mrb: int,
                   src_etype: ElementType) -> None:
        """Row-wise pack with unsigned saturation (two matrices into one)."""
        self._matrix_binop(f"mom_packus_{src_etype.name}", OpClass.MEDIA_MISC, mrd,
                           mra, mrb, src_etype, simdops.packus, src_etype)

    def mom_packss(self, mrd: int, mra: int, mrb: int,
                   src_etype: ElementType) -> None:
        """Row-wise pack with signed saturation."""
        self._matrix_binop(f"mom_packss_{src_etype.name}", OpClass.MEDIA_MISC, mrd,
                           mra, mrb, src_etype, simdops.packss, src_etype)

    def mom_punpckl(self, mrd: int, mra: int, mrb: int, etype: ElementType) -> None:
        """Row-wise interleave of low halves."""
        self._matrix_binop(f"mom_punpckl_{etype.name}", OpClass.MEDIA_MISC, mrd,
                           mra, mrb, etype, simdops.punpckl, etype)

    def mom_punpckh(self, mrd: int, mra: int, mrb: int, etype: ElementType) -> None:
        """Row-wise interleave of high halves."""
        self._matrix_binop(f"mom_punpckh_{etype.name}", OpClass.MEDIA_MISC, mrd,
                           mra, mrb, etype, simdops.punpckh, etype)

    # ------------------------------------------------------------------
    # matrix management
    # ------------------------------------------------------------------

    def mom_transpose(self, mrd: int, mra: int, etype: ElementType) -> None:
        """Matrix transpose (non-pipelined, 8 + C cycle latency)."""
        out = matrixops.transpose(self.mr.read(mra), etype, self.vl)
        self.mr.write(mrd, out)
        self._emit_matrix("mom_transpose", OpClass.MATRIX_MISC, (_ref_mr(mra),),
                          (_ref_mr(mrd),), etype, non_pipelined=True)

    def mom_transpose_pair(self, mrd_lo: int, mrd_hi: int, mrs_lo: int,
                           mrs_hi: int, etype: ElementType) -> None:
        """Transpose a square matrix that spans two matrix registers.

        A 16-bit 8x8 matrix occupies two registers (columns 0-3 and 4-7);
        the paper's transpose instruction handles the whole 8x8 matrix, so
        this is modelled as a single non-pipelined instruction with two
        sources and two destinations.
        """
        lo, hi = matrixops.transpose_pair(self.mr.read(mrs_lo), self.mr.read(mrs_hi),
                                          etype, self.vl)
        self.mr.write(mrd_lo, lo)
        self.mr.write(mrd_hi, hi)
        self._emit_matrix("mom_transpose_pair", OpClass.MATRIX_MISC,
                          (_ref_mr(mrs_lo), _ref_mr(mrs_hi)),
                          (_ref_mr(mrd_lo), _ref_mr(mrd_hi)), etype,
                          ops=self.vl * 2 * etype.lanes, non_pipelined=True)

    # ------------------------------------------------------------------
    # packed-accumulator reductions (dimension Y)
    # ------------------------------------------------------------------

    def mom_acc_clear(self, acc: int, etype: ElementType = S16) -> None:
        """Zero a MOM accumulator."""
        self.accs.clear(acc)
        self._emit_matrix("mom_acc_clear", OpClass.MEDIA_ACC, (), (_ref_acc(acc),),
                          etype, vly=1, ops=1)

    def mom_macc_madd(self, acc: int, mra: int, mrb: int,
                      etype: ElementType = S16) -> None:
        """``acc[lane] += sum_rows(a[row][lane] * b[row][lane])`` — one
        instruction performs the whole dimension-Y multiply-accumulate."""
        new = matrixops.reduce_mul_add(self.accs.read(acc), self.mr.read(mra),
                                       self.mr.read(mrb), etype, self.vl)
        self.accs.write(acc, new)
        self._emit_matrix(f"mom_macc_madd{etype.name}", OpClass.MEDIA_ACC,
                          (_ref_mr(mra), _ref_mr(mrb), _ref_acc(acc)),
                          (_ref_acc(acc),), etype)

    def mom_macc_add(self, acc: int, mra: int, etype: ElementType = S16) -> None:
        """``acc[lane] += sum_rows(a[row][lane])``."""
        new = matrixops.reduce_add(self.accs.read(acc), self.mr.read(mra), etype,
                                   self.vl)
        self.accs.write(acc, new)
        self._emit_matrix(f"mom_macc_add{etype.name}", OpClass.MEDIA_ACC,
                          (_ref_mr(mra), _ref_acc(acc)), (_ref_acc(acc),), etype)

    def mom_macc_absdiff(self, acc: int, mra: int, mrb: int,
                         etype: ElementType = U8) -> None:
        """``acc[lane] += sum_rows(|a - b|)`` (motion-estimation reduction)."""
        new = matrixops.reduce_abs_diff_add(self.accs.read(acc), self.mr.read(mra),
                                            self.mr.read(mrb), etype, self.vl)
        self.accs.write(acc, new)
        self._emit_matrix("mom_macc_absdiff", OpClass.MEDIA_ACC,
                          (_ref_mr(mra), _ref_mr(mrb), _ref_acc(acc)),
                          (_ref_acc(acc),), etype)

    def mom_acc_read(self, mrd: int, acc: int, etype: ElementType, shift: int = 0,
                     rounding: bool = True, saturating: bool = True,
                     row: int = 0) -> None:
        """Round/clip the accumulator into one row of a matrix register.

        ``row`` selects the destination row (default 0), which lets a loop
        deposit successive reduction results into consecutive rows of a
        matrix register (used by the IDCT kernel).
        """
        word = accum.acc_read(self.accs.read(acc), etype, shift, rounding, saturating)
        rows = self.mr.read(mrd)
        rows[row] = word
        self.mr.write(mrd, rows)
        self._emit_matrix("mom_acc_read", OpClass.MEDIA_ACC, (_ref_acc(acc),),
                          (_ref_mr(mrd),), etype, vly=1, ops=etype.lanes)

    def mom_acc_read_scalar(self, rd: int, acc: int, etype: ElementType,
                            shift: int = 0) -> None:
        """Sum all accumulator lanes into a scalar register."""
        total = accum.acc_read_scalar(self.accs.read(acc), etype.lanes, shift)
        self.regs.write(rd, total)
        self._emit_matrix("mom_acc_read_scalar", OpClass.MEDIA_ACC, (_ref_acc(acc),),
                          (_ref_int(rd),), etype, vly=1, ops=etype.lanes)
