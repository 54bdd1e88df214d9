"""``addblock``: saturated addition of an IDCT residual to a prediction.

The MPEG-2 decoder adds the 16-bit inverse-DCT residual block to the 8-bit
prediction block and clips the result to [0, 255] ("Add_Block" in the
reference decoder).  Workload: ``scale`` pairs of an 8x8 unsigned-byte
prediction block and an 8x8 signed-16-bit residual block.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.common.datatypes import U8, S16
from repro.kernels.base import Kernel
from repro.kernels.catalog import DEFAULT_SCALES
from repro.workloads.generators import WorkloadSpec, random_s16_block, random_u8_block

__all__ = ["AddBlockKernel"]

_BLOCK = 8
_PRED_BYTES = _BLOCK * _BLOCK
_RESID_BYTES = _BLOCK * _BLOCK * 2


class AddBlockKernel(Kernel):
    """Saturated residual add (MPEG-2 decode)."""

    name = "addblock"
    description = "Saturated add of a 16-bit residual to an 8-bit prediction block"
    benchmark = "mpeg2decode"
    default_scale = DEFAULT_SCALES[name]

    def make_workload(self, spec: WorkloadSpec) -> Dict[str, Any]:
        rng = spec.rng()
        blocks = max(1, spec.scale)
        pred = np.stack([random_u8_block(rng, _BLOCK, _BLOCK) for _ in range(blocks)])
        resid = np.stack(
            [random_s16_block(rng, _BLOCK, _BLOCK, -300, 300) for _ in range(blocks)]
        )
        return {"pred": pred, "resid": resid, "blocks": blocks}

    def reference(self, workload) -> np.ndarray:
        pred = workload["pred"].astype(np.int64)
        resid = workload["resid"].astype(np.int64)
        return np.clip(pred + resid, 0, 255).astype(np.int64)

    # ------------------------------------------------------------------

    def _setup(self, b, workload) -> tuple[int, int, int]:
        pred_addr = b.machine.alloc_array(workload["pred"], U8)
        resid_addr = b.machine.alloc_array(workload["resid"], S16)
        out_addr = b.machine.alloc_zeros(workload["blocks"] * _PRED_BYTES, U8)
        return pred_addr, resid_addr, out_addr

    def _read_output(self, b, out_addr: int, blocks: int) -> np.ndarray:
        flat = b.machine.read_array(out_addr, blocks * _PRED_BYTES, U8)
        return flat.reshape(blocks, _BLOCK, _BLOCK)

    def _expected(self, b, pred_addr: int, resid_addr: int,
                  blk: int) -> np.ndarray:
        """The clipped residual-add of block ``blk`` from machine memory."""
        pred = b.machine.read_array(pred_addr + blk * _PRED_BYTES,
                                    _PRED_BYTES, U8).reshape(_BLOCK, _BLOCK)
        resid = b.machine.read_array(resid_addr + blk * _RESID_BYTES,
                                     _BLOCK * _BLOCK, S16).reshape(_BLOCK, _BLOCK)
        return np.clip(pred + resid, 0, 255)

    def _bulk_blocks(self, b, pred_addr: int, resid_addr: int, out_addr: int,
                     lo: int, hi: int) -> None:
        for blk in range(lo, hi - 1):
            b.machine.memory.write_array(
                out_addr + blk * _PRED_BYTES,
                self._expected(b, pred_addr, resid_addr, blk), U8)

    # -- scalar ---------------------------------------------------------

    def build_scalar(self, b, workload) -> np.ndarray:
        pred_addr, resid_addr, out_addr = self._setup(b, workload)
        blocks = workload["blocks"]
        R_P, R_R, R_OUT, R_CNT, R_X, R_Y, R_S = 1, 2, 3, 4, 5, 6, 7

        def block_body(blk: int) -> None:
            b.li(R_P, pred_addr + blk * _PRED_BYTES)
            b.li(R_R, resid_addr + blk * _RESID_BYTES)
            b.li(R_OUT, out_addr + blk * _PRED_BYTES)
            b.li(R_CNT, _BLOCK)

            def row_body(_row: int) -> None:
                for col in range(_BLOCK):
                    b.ldbu(R_X, R_P, col)
                    b.ldw(R_Y, R_R, col * 2)
                    b.add(R_S, R_X, R_Y)
                    b.clamp(R_S, R_S, 0, 255)
                    b.stb(R_S, R_OUT, col)
                b.addi(R_P, R_P, _BLOCK)
                b.addi(R_R, R_R, _BLOCK * 2)
                b.addi(R_OUT, R_OUT, _BLOCK)
                b.subi(R_CNT, R_CNT, 1)
                b.branch(R_CNT, "bgt")

            def row_bulk(lo: int, hi: int) -> None:
                vals = self._expected(b, pred_addr, resid_addr, blk)
                last = hi - 1
                b.machine.memory.write_array(
                    out_addr + blk * _PRED_BYTES + lo * _BLOCK,
                    vals[lo:last], U8)
                b.regs.write(R_P, pred_addr + blk * _PRED_BYTES + last * _BLOCK)
                b.regs.write(R_R, resid_addr + blk * _RESID_BYTES + last * _BLOCK * 2)
                b.regs.write(R_OUT, out_addr + blk * _PRED_BYTES + last * _BLOCK)
                b.regs.write(R_CNT, _BLOCK - last)
                b.replay(row_body, last)

            b.unroll(_BLOCK, row_body, row_bulk)

        b.unroll(blocks, block_body,
                 lambda lo, hi: (self._bulk_blocks(b, pred_addr, resid_addr,
                                                   out_addr, lo, hi),
                                 b.replay(block_body, hi - 1)))
        return self._read_output(b, out_addr, blocks)

    # -- MMX / MDMX --------------------------------------------------------

    def _build_packed(self, b, workload) -> np.ndarray:
        pred_addr, resid_addr, out_addr = self._setup(b, workload)
        blocks = workload["blocks"]
        R_P, R_R, R_OUT, R_CNT = 1, 2, 3, 4
        MM_ZERO = 31
        b.pzero(MM_ZERO)

        def block_body(blk: int) -> None:
            b.li(R_P, pred_addr + blk * _PRED_BYTES)
            b.li(R_R, resid_addr + blk * _RESID_BYTES)
            b.li(R_OUT, out_addr + blk * _PRED_BYTES)
            b.li(R_CNT, _BLOCK)

            def row_body(_row: int) -> None:
                b.movq_ld(0, R_P, 0, U8)
                # zero-extend prediction bytes to 16 bits
                b.punpckl(1, 0, MM_ZERO, U8)
                b.punpckh(2, 0, MM_ZERO, U8)
                b.movq_ld(3, R_R, 0, S16)
                b.movq_ld(4, R_R, 8, S16)
                b.padd(1, 1, 3, S16)
                b.padd(2, 2, 4, S16)
                # pack with unsigned saturation clips to [0, 255]
                b.packus(5, 1, 2, S16)
                b.movq_st(5, R_OUT, 0, U8)
                b.addi(R_P, R_P, _BLOCK)
                b.addi(R_R, R_R, _BLOCK * 2)
                b.addi(R_OUT, R_OUT, _BLOCK)
                b.subi(R_CNT, R_CNT, 1)
                b.branch(R_CNT, "bgt")

            def row_bulk(lo: int, hi: int) -> None:
                vals = self._expected(b, pred_addr, resid_addr, blk)
                last = hi - 1
                b.machine.memory.write_array(
                    out_addr + blk * _PRED_BYTES + lo * _BLOCK,
                    vals[lo:last], U8)
                b.regs.write(R_P, pred_addr + blk * _PRED_BYTES + last * _BLOCK)
                b.regs.write(R_R, resid_addr + blk * _RESID_BYTES + last * _BLOCK * 2)
                b.regs.write(R_OUT, out_addr + blk * _PRED_BYTES + last * _BLOCK)
                b.regs.write(R_CNT, _BLOCK - last)
                b.replay(row_body, last)

            b.unroll(_BLOCK, row_body, row_bulk)

        b.unroll(blocks, block_body,
                 lambda lo, hi: (self._bulk_blocks(b, pred_addr, resid_addr,
                                                   out_addr, lo, hi),
                                 b.replay(block_body, hi - 1)))
        return self._read_output(b, out_addr, blocks)

    def build_mmx(self, b, workload) -> np.ndarray:
        return self._build_packed(b, workload)

    def build_mdmx(self, b, workload) -> np.ndarray:
        return self._build_packed(b, workload)

    # -- MOM --------------------------------------------------------------

    def build_mom(self, b, workload) -> np.ndarray:
        pred_addr, resid_addr, out_addr = self._setup(b, workload)
        blocks = workload["blocks"]
        R_P, R_R, R_OUT, R_PS, R_RS, R_R_HI = 1, 2, 3, 4, 5, 6
        MR_ZERO = 15
        b.li(R_PS, _BLOCK)          # prediction / output row stride (bytes)
        b.li(R_RS, _BLOCK * 2)      # residual row stride (bytes)
        b.setvl(_BLOCK)
        b.mom_zero(MR_ZERO)

        def body(blk: int) -> None:
            b.li(R_P, pred_addr + blk * _PRED_BYTES)
            b.li(R_R, resid_addr + blk * _RESID_BYTES)
            b.li(R_OUT, out_addr + blk * _PRED_BYTES)
            b.addi(R_R_HI, R_R, 8)
            b.mom_ld(0, R_P, R_PS, U8)
            b.mom_punpckl(1, 0, MR_ZERO, U8)
            b.mom_punpckh(2, 0, MR_ZERO, U8)
            b.mom_ld(3, R_R, R_RS, S16)
            b.mom_ld(4, R_R_HI, R_RS, S16)
            b.mom_padd(1, 1, 3, S16)
            b.mom_padd(2, 2, 4, S16)
            b.mom_packus(5, 1, 2, S16)
            b.mom_st(5, R_OUT, R_PS, U8)

        b.unroll(blocks, body,
                 lambda lo, hi: (self._bulk_blocks(b, pred_addr, resid_addr,
                                                   out_addr, lo, hi),
                                 b.replay(body, hi - 1)))
        return self._read_output(b, out_addr, blocks)
