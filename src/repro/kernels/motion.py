"""Motion-estimation kernels: sum of absolute / squared differences.

``motion1`` computes the sum of absolute differences (SAD) and ``motion2``
the sum of squared differences (SSD) between pairs of 16x16 macroblocks —
the two block-matching metrics the paper takes from the MPEG-2 encoder's
motion-estimation loop.

Workload layout: ``scale`` macroblock pairs, each stored as a contiguous
16x16 byte block (row stride 16).  The output is one 32-bit metric value per
pair.

Every loop here has iteration-invariant register indices, so both the
per-block loops and the inner row loops are emitted as replicated record
blocks (:meth:`~repro.frontend.scalar_builder.ScalarBuilder.unroll`); the
bulk closures reproduce the skipped iterations' memory and accumulator
state from the same NumPy math as :meth:`reference`.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.common.datatypes import U8, U16, S16, S32, U32, pack_word
from repro.kernels.base import Kernel
from repro.kernels.catalog import DEFAULT_SCALES
from repro.workloads.generators import WorkloadSpec, random_u8_block

__all__ = ["Motion1Kernel", "Motion2Kernel"]

_BLOCK = 16  # macroblock dimension
_BLOCK_BYTES = _BLOCK * _BLOCK


class _MotionKernelBase(Kernel):
    """Shared workload / memory plumbing for the two motion kernels."""

    benchmark = "mpeg2encode"

    def make_workload(self, spec: WorkloadSpec) -> Dict[str, Any]:
        rng = spec.rng()
        blocks = max(1, spec.scale)
        cur = np.stack([random_u8_block(rng, _BLOCK, _BLOCK) for _ in range(blocks)])
        ref = np.stack([random_u8_block(rng, _BLOCK, _BLOCK) for _ in range(blocks)])
        return {"cur": cur, "ref": ref, "blocks": blocks}

    # -- memory setup shared by every variant --------------------------

    def _setup(self, b, workload) -> tuple[int, int, int]:
        cur_addr = b.machine.alloc_array(workload["cur"], U8)
        ref_addr = b.machine.alloc_array(workload["ref"], U8)
        out_addr = b.machine.alloc_zeros(workload["blocks"], S32)
        return cur_addr, ref_addr, out_addr

    def _read_output(self, b, out_addr: int, blocks: int) -> np.ndarray:
        return b.machine.read_array(out_addr, blocks, S32)

    # -- block-emission helpers ----------------------------------------

    def _metric(self, cur: np.ndarray, ref: np.ndarray) -> int:
        """The block metric (SAD or SSD) of one macroblock pair."""
        raise NotImplementedError

    def _block_data(self, b, cur_addr: int, ref_addr: int,
                    blk: int) -> tuple[np.ndarray, np.ndarray]:
        """Macroblock pair ``blk`` as two ``(16, 16)`` int64 arrays."""
        cur = b.machine.read_array(cur_addr + blk * _BLOCK_BYTES,
                                   _BLOCK_BYTES, U8).reshape(_BLOCK, _BLOCK)
        ref = b.machine.read_array(ref_addr + blk * _BLOCK_BYTES,
                                   _BLOCK_BYTES, U8).reshape(_BLOCK, _BLOCK)
        return cur, ref

    def _bulk_out(self, b, cur_addr: int, ref_addr: int, out_addr: int,
                  lo: int, hi: int) -> None:
        """Write the metric of the middle blocks ``lo .. hi-2`` directly."""
        for blk in range(lo, hi - 1):
            cur, ref = self._block_data(b, cur_addr, ref_addr, blk)
            b.machine.memory.write_array(
                out_addr + blk * 4, np.array([self._metric(cur, ref)]), S32)


class Motion1Kernel(_MotionKernelBase):
    """16x16 sum of absolute differences (MPEG motion estimation)."""

    name = "motion1"
    default_scale = DEFAULT_SCALES[name]
    description = "Sum of absolute differences between 16x16 macroblocks"

    def reference(self, workload) -> np.ndarray:
        cur = workload["cur"].astype(np.int64)
        ref = workload["ref"].astype(np.int64)
        return np.abs(cur - ref).sum(axis=(1, 2)).astype(np.int64)

    def _metric(self, cur: np.ndarray, ref: np.ndarray) -> int:
        return int(np.abs(cur - ref).sum())

    # -- scalar ---------------------------------------------------------

    def build_scalar(self, b, workload) -> np.ndarray:
        cur_addr, ref_addr, out_addr = self._setup(b, workload)
        blocks = workload["blocks"]
        R_CUR, R_REF, R_ACC, R_CNT, R_A, R_B, R_D, R_OUT = 1, 2, 3, 4, 5, 6, 7, 8

        def block_body(blk: int) -> None:
            base_cur = cur_addr + blk * _BLOCK_BYTES
            base_ref = ref_addr + blk * _BLOCK_BYTES
            b.li(R_CUR, base_cur)
            b.li(R_REF, base_ref)
            b.li(R_ACC, 0)
            b.li(R_CNT, _BLOCK)

            def row_body(_row: int) -> None:
                for col in range(_BLOCK):
                    b.ldbu(R_A, R_CUR, col)
                    b.ldbu(R_B, R_REF, col)
                    b.sub(R_D, R_A, R_B)
                    b.abs_(R_D, R_D)
                    b.add(R_ACC, R_ACC, R_D)
                b.addi(R_CUR, R_CUR, _BLOCK)
                b.addi(R_REF, R_REF, _BLOCK)
                b.subi(R_CNT, R_CNT, 1)
                b.branch(R_CNT, "bgt")

            def row_bulk(lo: int, hi: int) -> None:
                cur, ref = self._block_data(b, cur_addr, ref_addr, blk)
                last = hi - 1
                b.regs.write(R_CUR, base_cur + last * _BLOCK)
                b.regs.write(R_REF, base_ref + last * _BLOCK)
                b.regs.write(R_CNT, _BLOCK - last)
                b.regs.write(R_ACC, int(np.abs(cur[:last] - ref[:last]).sum()))
                b.replay(row_body, last)

            b.unroll(_BLOCK, row_body, row_bulk)
            b.li(R_OUT, out_addr + blk * 4)
            b.stl(R_ACC, R_OUT)

        b.unroll(blocks, block_body,
                 lambda lo, hi: (self._bulk_out(b, cur_addr, ref_addr,
                                                out_addr, lo, hi),
                                 b.replay(block_body, hi - 1)))
        return self._read_output(b, out_addr, blocks)

    # -- MMX -------------------------------------------------------------

    def build_mmx(self, b, workload) -> np.ndarray:
        cur_addr, ref_addr, out_addr = self._setup(b, workload)
        blocks = workload["blocks"]
        R_CUR, R_REF, R_OUT, R_CNT, R_SAD = 1, 2, 3, 4, 5
        MM_ACC = 7

        def block_body(blk: int) -> None:
            base_cur = cur_addr + blk * _BLOCK_BYTES
            base_ref = ref_addr + blk * _BLOCK_BYTES
            b.li(R_CUR, base_cur)
            b.li(R_REF, base_ref)
            b.li(R_CNT, _BLOCK // 2)
            b.pzero(MM_ACC)

            def pair_body(_pair: int) -> None:  # unrolled by two rows
                for half in range(2):
                    off = half * _BLOCK
                    b.movq_ld(0, R_CUR, off, U8)
                    b.movq_ld(1, R_CUR, off + 8, U8)
                    b.movq_ld(2, R_REF, off, U8)
                    b.movq_ld(3, R_REF, off + 8, U8)
                    b.psad(4, 0, 2, U8)
                    b.psad(5, 1, 3, U8)
                    b.padd(MM_ACC, MM_ACC, 4, U32)
                    b.padd(MM_ACC, MM_ACC, 5, U32)
                b.addi(R_CUR, R_CUR, 2 * _BLOCK)
                b.addi(R_REF, R_REF, 2 * _BLOCK)
                b.subi(R_CNT, R_CNT, 1)
                b.branch(R_CNT, "bgt")

            def pair_bulk(lo: int, hi: int) -> None:
                cur, ref = self._block_data(b, cur_addr, ref_addr, blk)
                last = hi - 1
                rows = 2 * last
                # psad leaves the running SAD in lane 0 of the U32 pair and
                # zero in lane 1, so the accumulator word *is* the sum.
                b.mm.write(MM_ACC, int(np.abs(cur[:rows] - ref[:rows]).sum()))
                b.regs.write(R_CUR, base_cur + rows * _BLOCK)
                b.regs.write(R_REF, base_ref + rows * _BLOCK)
                b.regs.write(R_CNT, _BLOCK // 2 - last)
                b.replay(pair_body, last)

            b.unroll(_BLOCK // 2, pair_body, pair_bulk)
            b.movd_to_int(R_SAD, MM_ACC, 0, S32)
            b.li(R_OUT, out_addr + blk * 4)
            b.stl(R_SAD, R_OUT)

        b.unroll(blocks, block_body,
                 lambda lo, hi: (self._bulk_out(b, cur_addr, ref_addr,
                                                out_addr, lo, hi),
                                 b.replay(block_body, hi - 1)))
        return self._read_output(b, out_addr, blocks)

    # -- MDMX -------------------------------------------------------------

    def build_mdmx(self, b, workload) -> np.ndarray:
        cur_addr, ref_addr, out_addr = self._setup(b, workload)
        blocks = workload["blocks"]
        R_CUR, R_REF, R_OUT, R_CNT, R_SAD = 1, 2, 3, 4, 5
        ACC = 0

        def block_body(blk: int) -> None:
            base_cur = cur_addr + blk * _BLOCK_BYTES
            base_ref = ref_addr + blk * _BLOCK_BYTES
            b.li(R_CUR, base_cur)
            b.li(R_REF, base_ref)
            b.li(R_CNT, _BLOCK // 2)
            b.acc_clear(ACC, U8)

            def pair_body(_pair: int) -> None:
                for half in range(2):
                    off = half * _BLOCK
                    b.movq_ld(0, R_CUR, off, U8)
                    b.movq_ld(1, R_CUR, off + 8, U8)
                    b.movq_ld(2, R_REF, off, U8)
                    b.movq_ld(3, R_REF, off + 8, U8)
                    b.acc_absdiff(ACC, 0, 2, U8)
                    b.acc_absdiff(ACC, 1, 3, U8)
                b.addi(R_CUR, R_CUR, 2 * _BLOCK)
                b.addi(R_REF, R_REF, 2 * _BLOCK)
                b.subi(R_CNT, R_CNT, 1)
                b.branch(R_CNT, "bgt")

            def pair_bulk(lo: int, hi: int) -> None:
                cur, ref = self._block_data(b, cur_addr, ref_addr, blk)
                last = hi - 1
                rows = 2 * last
                # Accumulator lane i gathers columns i and i+8 of every row.
                diff = np.abs(cur[:rows] - ref[:rows])
                lanes = diff[:, :8].sum(axis=0) + diff[:, 8:].sum(axis=0)
                b.accs.write(ACC, [int(v) for v in lanes])
                b.regs.write(R_CUR, base_cur + rows * _BLOCK)
                b.regs.write(R_REF, base_ref + rows * _BLOCK)
                b.regs.write(R_CNT, _BLOCK // 2 - last)
                b.replay(pair_body, last)

            b.unroll(_BLOCK // 2, pair_body, pair_bulk)
            b.acc_read_scalar(R_SAD, ACC, U8)
            b.li(R_OUT, out_addr + blk * 4)
            b.stl(R_SAD, R_OUT)

        b.unroll(blocks, block_body,
                 lambda lo, hi: (self._bulk_out(b, cur_addr, ref_addr,
                                                out_addr, lo, hi),
                                 b.replay(block_body, hi - 1)))
        return self._read_output(b, out_addr, blocks)

    # -- MOM --------------------------------------------------------------

    def build_mom(self, b, workload) -> np.ndarray:
        cur_addr, ref_addr, out_addr = self._setup(b, workload)
        blocks = workload["blocks"]
        R_CUR, R_REF, R_STRIDE, R_CUR_HI, R_REF_HI, R_SAD, R_SAD_HI, R_OUT = (
            1, 2, 3, 4, 5, 6, 7, 8)
        ACC_LO, ACC_HI = 0, 1
        b.li(R_STRIDE, _BLOCK)
        b.setvl(_BLOCK)

        def body(blk: int) -> None:
            b.li(R_CUR, cur_addr + blk * _BLOCK_BYTES)
            b.li(R_REF, ref_addr + blk * _BLOCK_BYTES)
            b.addi(R_CUR_HI, R_CUR, 8)
            b.addi(R_REF_HI, R_REF, 8)
            # The two column halves reduce into independent accumulators so
            # their pipelined reductions overlap.
            b.mom_acc_clear(ACC_LO, U8)
            b.mom_acc_clear(ACC_HI, U8)
            b.mom_ld(0, R_CUR, R_STRIDE, U8)
            b.mom_ld(1, R_CUR_HI, R_STRIDE, U8)
            b.mom_ld(2, R_REF, R_STRIDE, U8)
            b.mom_ld(3, R_REF_HI, R_STRIDE, U8)
            b.mom_macc_absdiff(ACC_LO, 0, 2, U8)
            b.mom_macc_absdiff(ACC_HI, 1, 3, U8)
            b.mom_acc_read_scalar(R_SAD, ACC_LO, U8)
            b.mom_acc_read_scalar(R_SAD_HI, ACC_HI, U8)
            b.add(R_SAD, R_SAD, R_SAD_HI)
            b.li(R_OUT, out_addr + blk * 4)
            b.stl(R_SAD, R_OUT)

        b.unroll(blocks, body,
                 lambda lo, hi: (self._bulk_out(b, cur_addr, ref_addr,
                                                out_addr, lo, hi),
                                 b.replay(body, hi - 1)))
        return self._read_output(b, out_addr, blocks)


class Motion2Kernel(_MotionKernelBase):
    """16x16 sum of squared differences (MPEG motion estimation)."""

    name = "motion2"
    default_scale = DEFAULT_SCALES[name]
    description = "Sum of squared differences between 16x16 macroblocks"

    def reference(self, workload) -> np.ndarray:
        cur = workload["cur"].astype(np.int64)
        ref = workload["ref"].astype(np.int64)
        diff = cur - ref
        return (diff * diff).sum(axis=(1, 2)).astype(np.int64)

    def _metric(self, cur: np.ndarray, ref: np.ndarray) -> int:
        diff = cur - ref
        return int((diff * diff).sum())

    # -- scalar ---------------------------------------------------------

    def build_scalar(self, b, workload) -> np.ndarray:
        cur_addr, ref_addr, out_addr = self._setup(b, workload)
        blocks = workload["blocks"]
        R_CUR, R_REF, R_ACC, R_CNT, R_A, R_B, R_D, R_SQ, R_OUT = 1, 2, 3, 4, 5, 6, 7, 8, 9

        def block_body(blk: int) -> None:
            base_cur = cur_addr + blk * _BLOCK_BYTES
            base_ref = ref_addr + blk * _BLOCK_BYTES
            b.li(R_CUR, base_cur)
            b.li(R_REF, base_ref)
            b.li(R_ACC, 0)
            b.li(R_CNT, _BLOCK)

            def row_body(_row: int) -> None:
                for col in range(_BLOCK):
                    b.ldbu(R_A, R_CUR, col)
                    b.ldbu(R_B, R_REF, col)
                    b.sub(R_D, R_A, R_B)
                    b.mul(R_SQ, R_D, R_D)
                    b.add(R_ACC, R_ACC, R_SQ)
                b.addi(R_CUR, R_CUR, _BLOCK)
                b.addi(R_REF, R_REF, _BLOCK)
                b.subi(R_CNT, R_CNT, 1)
                b.branch(R_CNT, "bgt")

            def row_bulk(lo: int, hi: int) -> None:
                cur, ref = self._block_data(b, cur_addr, ref_addr, blk)
                last = hi - 1
                diff = cur[:last] - ref[:last]
                b.regs.write(R_CUR, base_cur + last * _BLOCK)
                b.regs.write(R_REF, base_ref + last * _BLOCK)
                b.regs.write(R_CNT, _BLOCK - last)
                b.regs.write(R_ACC, int((diff * diff).sum()))
                b.replay(row_body, last)

            b.unroll(_BLOCK, row_body, row_bulk)
            b.li(R_OUT, out_addr + blk * 4)
            b.stl(R_ACC, R_OUT)

        b.unroll(blocks, block_body,
                 lambda lo, hi: (self._bulk_out(b, cur_addr, ref_addr,
                                                out_addr, lo, hi),
                                 b.replay(block_body, hi - 1)))
        return self._read_output(b, out_addr, blocks)

    # -- MMX -------------------------------------------------------------

    def build_mmx(self, b, workload) -> np.ndarray:
        cur_addr, ref_addr, out_addr = self._setup(b, workload)
        blocks = workload["blocks"]
        R_CUR, R_REF, R_OUT, R_CNT, R_LO, R_HI = 1, 2, 3, 4, 5, 6
        MM_ZERO, MM_ACC = 30, 29

        def block_body(blk: int) -> None:
            base_cur = cur_addr + blk * _BLOCK_BYTES
            base_ref = ref_addr + blk * _BLOCK_BYTES
            b.li(R_CUR, base_cur)
            b.li(R_REF, base_ref)
            b.li(R_CNT, _BLOCK)
            b.pzero(MM_ZERO)
            b.pzero(MM_ACC)

            def row_body(_row: int) -> None:
                for half in range(2):
                    off = half * 8
                    b.movq_ld(0, R_CUR, off, U8)
                    b.movq_ld(1, R_REF, off, U8)
                    # promote to 16 bits (zero extension)
                    b.punpckl(2, 0, MM_ZERO, U8)
                    b.punpckh(3, 0, MM_ZERO, U8)
                    b.punpckl(4, 1, MM_ZERO, U8)
                    b.punpckh(5, 1, MM_ZERO, U8)
                    b.psub(6, 2, 4, S16)
                    b.psub(7, 3, 5, S16)
                    b.pmadd(8, 6, 6, S16)
                    b.pmadd(9, 7, 7, S16)
                    b.padd(MM_ACC, MM_ACC, 8, S32)
                    b.padd(MM_ACC, MM_ACC, 9, S32)
                b.addi(R_CUR, R_CUR, _BLOCK)
                b.addi(R_REF, R_REF, _BLOCK)
                b.subi(R_CNT, R_CNT, 1)
                b.branch(R_CNT, "bgt")

            def row_bulk(lo: int, hi: int) -> None:
                cur, ref = self._block_data(b, cur_addr, ref_addr, blk)
                last = hi - 1
                diff = cur[:last] - ref[:last]
                # pmadd folds column pairs, so S32 accumulator lane 0 holds
                # the squares of columns 0,1 mod 4 and lane 1 those of
                # columns 2,3 mod 4 (across both 8-byte halves).
                sq = (diff * diff).reshape(last, 4, 4)
                word = pack_word([int(sq[:, :, :2].sum()),
                                  int(sq[:, :, 2:].sum())], S32)
                b.mm.write(MM_ACC, word)
                b.regs.write(R_CUR, base_cur + last * _BLOCK)
                b.regs.write(R_REF, base_ref + last * _BLOCK)
                b.regs.write(R_CNT, _BLOCK - last)
                b.replay(row_body, last)

            b.unroll(_BLOCK, row_body, row_bulk)
            b.movd_to_int(R_LO, MM_ACC, 0, S32)
            b.movd_to_int(R_HI, MM_ACC, 1, S32)
            b.add(R_LO, R_LO, R_HI)
            b.li(R_OUT, out_addr + blk * 4)
            b.stl(R_LO, R_OUT)

        b.unroll(blocks, block_body,
                 lambda lo, hi: (self._bulk_out(b, cur_addr, ref_addr,
                                                out_addr, lo, hi),
                                 b.replay(block_body, hi - 1)))
        return self._read_output(b, out_addr, blocks)

    # -- MDMX -------------------------------------------------------------

    def build_mdmx(self, b, workload) -> np.ndarray:
        cur_addr, ref_addr, out_addr = self._setup(b, workload)
        blocks = workload["blocks"]
        R_CUR, R_REF, R_OUT, R_CNT, R_SSD = 1, 2, 3, 4, 5
        MM_ZERO = 30
        ACC = 0

        def block_body(blk: int) -> None:
            base_cur = cur_addr + blk * _BLOCK_BYTES
            base_ref = ref_addr + blk * _BLOCK_BYTES
            b.li(R_CUR, base_cur)
            b.li(R_REF, base_ref)
            b.li(R_CNT, _BLOCK)
            b.pzero(MM_ZERO)
            b.acc_clear(ACC, S16)

            def row_body(_row: int) -> None:
                for half in range(2):
                    off = half * 8
                    b.movq_ld(0, R_CUR, off, U8)
                    b.movq_ld(1, R_REF, off, U8)
                    b.punpckl(2, 0, MM_ZERO, U8)
                    b.punpckh(3, 0, MM_ZERO, U8)
                    b.punpckl(4, 1, MM_ZERO, U8)
                    b.punpckh(5, 1, MM_ZERO, U8)
                    b.psub(6, 2, 4, S16)
                    b.psub(7, 3, 5, S16)
                    b.acc_madd(ACC, 6, 6, S16)
                    b.acc_madd(ACC, 7, 7, S16)
                b.addi(R_CUR, R_CUR, _BLOCK)
                b.addi(R_REF, R_REF, _BLOCK)
                b.subi(R_CNT, R_CNT, 1)
                b.branch(R_CNT, "bgt")

            def row_bulk(lo: int, hi: int) -> None:
                cur, ref = self._block_data(b, cur_addr, ref_addr, blk)
                last = hi - 1
                diff = cur[:last] - ref[:last]
                # The four S16 accumulator lanes gather columns by col mod 4.
                lanes = (diff * diff).reshape(last, 4, 4).sum(axis=(0, 1))
                b.accs.write(ACC, [int(v) for v in lanes])
                b.regs.write(R_CUR, base_cur + last * _BLOCK)
                b.regs.write(R_REF, base_ref + last * _BLOCK)
                b.regs.write(R_CNT, _BLOCK - last)
                b.replay(row_body, last)

            b.unroll(_BLOCK, row_body, row_bulk)
            b.acc_read_scalar(R_SSD, ACC, S16)
            b.li(R_OUT, out_addr + blk * 4)
            b.stl(R_SSD, R_OUT)

        b.unroll(blocks, block_body,
                 lambda lo, hi: (self._bulk_out(b, cur_addr, ref_addr,
                                                out_addr, lo, hi),
                                 b.replay(block_body, hi - 1)))
        return self._read_output(b, out_addr, blocks)

    # -- MOM --------------------------------------------------------------

    def build_mom(self, b, workload) -> np.ndarray:
        cur_addr, ref_addr, out_addr = self._setup(b, workload)
        blocks = workload["blocks"]
        R_CUR, R_REF, R_STRIDE, R_CUR_HI, R_REF_HI, R_SSD, R_SSD_HI, R_OUT = (
            1, 2, 3, 4, 5, 6, 7, 8)
        ACC_LO, ACC_HI = 0, 1
        MR_ZERO = 15
        b.li(R_STRIDE, _BLOCK)
        b.setvl(_BLOCK)
        b.mom_zero(MR_ZERO)

        def body(blk: int) -> None:
            b.li(R_CUR, cur_addr + blk * _BLOCK_BYTES)
            b.li(R_REF, ref_addr + blk * _BLOCK_BYTES)
            b.addi(R_CUR_HI, R_CUR, 8)
            b.addi(R_REF_HI, R_REF, 8)
            b.mom_acc_clear(ACC_LO, S16)
            b.mom_acc_clear(ACC_HI, S16)
            b.mom_ld(0, R_CUR, R_STRIDE, U8)
            b.mom_ld(1, R_CUR_HI, R_STRIDE, U8)
            b.mom_ld(2, R_REF, R_STRIDE, U8)
            b.mom_ld(3, R_REF_HI, R_STRIDE, U8)
            # promote to 16 bits, row-wise
            b.mom_punpckl(4, 0, MR_ZERO, U8)
            b.mom_punpckh(5, 0, MR_ZERO, U8)
            b.mom_punpckl(6, 1, MR_ZERO, U8)
            b.mom_punpckh(7, 1, MR_ZERO, U8)
            b.mom_punpckl(8, 2, MR_ZERO, U8)
            b.mom_punpckh(9, 2, MR_ZERO, U8)
            b.mom_punpckl(10, 3, MR_ZERO, U8)
            b.mom_punpckh(11, 3, MR_ZERO, U8)
            b.mom_psub(4, 4, 8, S16)
            b.mom_psub(5, 5, 9, S16)
            b.mom_psub(6, 6, 10, S16)
            b.mom_psub(7, 7, 11, S16)
            b.mom_macc_madd(ACC_LO, 4, 4, S16)
            b.mom_macc_madd(ACC_HI, 5, 5, S16)
            b.mom_macc_madd(ACC_LO, 6, 6, S16)
            b.mom_macc_madd(ACC_HI, 7, 7, S16)
            b.mom_acc_read_scalar(R_SSD, ACC_LO, S16)
            b.mom_acc_read_scalar(R_SSD_HI, ACC_HI, S16)
            b.add(R_SSD, R_SSD, R_SSD_HI)
            b.li(R_OUT, out_addr + blk * 4)
            b.stl(R_SSD, R_OUT)

        b.unroll(blocks, body,
                 lambda lo, hi: (self._bulk_out(b, cur_addr, ref_addr,
                                                out_addr, lo, hi),
                                 b.replay(body, hi - 1)))
        return self._read_output(b, out_addr, blocks)
