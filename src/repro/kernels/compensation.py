"""Motion-compensation blending kernel (``comp``).

The MPEG-2 decoder's half-pel motion compensation blends two prediction
blocks: ``out = (a + b + 1) >> 1`` on unsigned bytes.  The workload is
``scale`` pairs of 16x16 blocks.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.common.datatypes import U8
from repro.kernels.base import Kernel
from repro.kernels.catalog import DEFAULT_SCALES
from repro.workloads.generators import WorkloadSpec, random_u8_block

__all__ = ["CompensationKernel"]

_BLOCK = 16
_BLOCK_BYTES = _BLOCK * _BLOCK


class CompensationKernel(Kernel):
    """Saturated blending of two prediction blocks (MPEG-2 decode)."""

    name = "comp"
    description = "Motion-compensation blending: (a + b + 1) >> 1 on 16x16 blocks"
    benchmark = "mpeg2decode"
    default_scale = DEFAULT_SCALES[name]

    def make_workload(self, spec: WorkloadSpec) -> Dict[str, Any]:
        rng = spec.rng()
        blocks = max(1, spec.scale)
        a = np.stack([random_u8_block(rng, _BLOCK, _BLOCK) for _ in range(blocks)])
        bb = np.stack([random_u8_block(rng, _BLOCK, _BLOCK) for _ in range(blocks)])
        return {"a": a, "b": bb, "blocks": blocks}

    def reference(self, workload) -> np.ndarray:
        a = workload["a"].astype(np.int64)
        bb = workload["b"].astype(np.int64)
        return ((a + bb + 1) >> 1).astype(np.int64)

    # ------------------------------------------------------------------

    def _setup(self, b, workload) -> tuple[int, int, int]:
        a_addr = b.machine.alloc_array(workload["a"], U8)
        b_addr = b.machine.alloc_array(workload["b"], U8)
        out_addr = b.machine.alloc_zeros(workload["blocks"] * _BLOCK_BYTES, U8)
        return a_addr, b_addr, out_addr

    def _read_output(self, b, out_addr: int, blocks: int) -> np.ndarray:
        flat = b.machine.read_array(out_addr, blocks * _BLOCK_BYTES, U8)
        return flat.reshape(blocks, _BLOCK, _BLOCK)

    def _expected(self, b, a_addr: int, b_addr: int, blk: int) -> np.ndarray:
        """The blended block ``blk`` recomputed from machine memory."""
        av = b.machine.read_array(a_addr + blk * _BLOCK_BYTES,
                                  _BLOCK_BYTES, U8).reshape(_BLOCK, _BLOCK)
        bv = b.machine.read_array(b_addr + blk * _BLOCK_BYTES,
                                  _BLOCK_BYTES, U8).reshape(_BLOCK, _BLOCK)
        return (av + bv + 1) >> 1

    def _bulk_blocks(self, b, a_addr: int, b_addr: int, out_addr: int,
                     lo: int, hi: int) -> None:
        for blk in range(lo, hi - 1):
            b.machine.memory.write_array(
                out_addr + blk * _BLOCK_BYTES,
                self._expected(b, a_addr, b_addr, blk), U8)

    # -- scalar ---------------------------------------------------------

    def build_scalar(self, b, workload) -> np.ndarray:
        a_addr, b_addr, out_addr = self._setup(b, workload)
        blocks = workload["blocks"]
        R_A, R_B, R_OUT, R_CNT, R_X, R_Y, R_S = 1, 2, 3, 4, 5, 6, 7

        def block_body(blk: int) -> None:
            b.li(R_A, a_addr + blk * _BLOCK_BYTES)
            b.li(R_B, b_addr + blk * _BLOCK_BYTES)
            b.li(R_OUT, out_addr + blk * _BLOCK_BYTES)
            b.li(R_CNT, _BLOCK)

            def row_body(_row: int) -> None:
                for col in range(_BLOCK):
                    b.ldbu(R_X, R_A, col)
                    b.ldbu(R_Y, R_B, col)
                    b.add(R_S, R_X, R_Y)
                    b.addi(R_S, R_S, 1)
                    b.srai(R_S, R_S, 1)
                    b.stb(R_S, R_OUT, col)
                b.addi(R_A, R_A, _BLOCK)
                b.addi(R_B, R_B, _BLOCK)
                b.addi(R_OUT, R_OUT, _BLOCK)
                b.subi(R_CNT, R_CNT, 1)
                b.branch(R_CNT, "bgt")

            def row_bulk(lo: int, hi: int) -> None:
                vals = self._expected(b, a_addr, b_addr, blk)
                last = hi - 1
                base = blk * _BLOCK_BYTES + last * _BLOCK
                b.machine.memory.write_array(
                    out_addr + blk * _BLOCK_BYTES + lo * _BLOCK,
                    vals[lo:last], U8)
                b.regs.write(R_A, a_addr + base)
                b.regs.write(R_B, b_addr + base)
                b.regs.write(R_OUT, out_addr + base)
                b.regs.write(R_CNT, _BLOCK - last)
                b.replay(row_body, last)

            b.unroll(_BLOCK, row_body, row_bulk)

        b.unroll(blocks, block_body,
                 lambda lo, hi: (self._bulk_blocks(b, a_addr, b_addr,
                                                   out_addr, lo, hi),
                                 b.replay(block_body, hi - 1)))
        return self._read_output(b, out_addr, blocks)

    # -- MMX / MDMX (identical code: no reductions are involved) ----------

    def _build_packed(self, b, workload) -> np.ndarray:
        a_addr, b_addr, out_addr = self._setup(b, workload)
        blocks = workload["blocks"]
        R_A, R_B, R_OUT, R_CNT = 1, 2, 3, 4

        def block_body(blk: int) -> None:
            b.li(R_A, a_addr + blk * _BLOCK_BYTES)
            b.li(R_B, b_addr + blk * _BLOCK_BYTES)
            b.li(R_OUT, out_addr + blk * _BLOCK_BYTES)
            b.li(R_CNT, _BLOCK)

            def row_body(_row: int) -> None:
                b.movq_ld(0, R_A, 0, U8)
                b.movq_ld(1, R_A, 8, U8)
                b.movq_ld(2, R_B, 0, U8)
                b.movq_ld(3, R_B, 8, U8)
                b.pavg(4, 0, 2, U8)
                b.pavg(5, 1, 3, U8)
                b.movq_st(4, R_OUT, 0, U8)
                b.movq_st(5, R_OUT, 8, U8)
                b.addi(R_A, R_A, _BLOCK)
                b.addi(R_B, R_B, _BLOCK)
                b.addi(R_OUT, R_OUT, _BLOCK)
                b.subi(R_CNT, R_CNT, 1)
                b.branch(R_CNT, "bgt")

            def row_bulk(lo: int, hi: int) -> None:
                vals = self._expected(b, a_addr, b_addr, blk)
                last = hi - 1
                base = blk * _BLOCK_BYTES + last * _BLOCK
                b.machine.memory.write_array(
                    out_addr + blk * _BLOCK_BYTES + lo * _BLOCK,
                    vals[lo:last], U8)
                b.regs.write(R_A, a_addr + base)
                b.regs.write(R_B, b_addr + base)
                b.regs.write(R_OUT, out_addr + base)
                b.regs.write(R_CNT, _BLOCK - last)
                b.replay(row_body, last)

            b.unroll(_BLOCK, row_body, row_bulk)

        b.unroll(blocks, block_body,
                 lambda lo, hi: (self._bulk_blocks(b, a_addr, b_addr,
                                                   out_addr, lo, hi),
                                 b.replay(block_body, hi - 1)))
        return self._read_output(b, out_addr, blocks)

    def build_mmx(self, b, workload) -> np.ndarray:
        return self._build_packed(b, workload)

    def build_mdmx(self, b, workload) -> np.ndarray:
        return self._build_packed(b, workload)

    # -- MOM --------------------------------------------------------------

    def build_mom(self, b, workload) -> np.ndarray:
        a_addr, b_addr, out_addr = self._setup(b, workload)
        blocks = workload["blocks"]
        R_A, R_B, R_OUT, R_STRIDE, R_A_HI, R_B_HI, R_OUT_HI = 1, 2, 3, 4, 5, 6, 7
        b.li(R_STRIDE, _BLOCK)
        b.setvl(_BLOCK)

        def body(blk: int) -> None:
            b.li(R_A, a_addr + blk * _BLOCK_BYTES)
            b.li(R_B, b_addr + blk * _BLOCK_BYTES)
            b.li(R_OUT, out_addr + blk * _BLOCK_BYTES)
            b.addi(R_A_HI, R_A, 8)
            b.addi(R_B_HI, R_B, 8)
            b.addi(R_OUT_HI, R_OUT, 8)
            b.mom_ld(0, R_A, R_STRIDE, U8)
            b.mom_ld(1, R_A_HI, R_STRIDE, U8)
            b.mom_ld(2, R_B, R_STRIDE, U8)
            b.mom_ld(3, R_B_HI, R_STRIDE, U8)
            b.mom_pavg(4, 0, 2, U8)
            b.mom_pavg(5, 1, 3, U8)
            b.mom_st(4, R_OUT, R_STRIDE, U8)
            b.mom_st(5, R_OUT_HI, R_STRIDE, U8)

        b.unroll(blocks, body,
                 lambda lo, hi: (self._bulk_blocks(b, a_addr, b_addr,
                                                   out_addr, lo, hi),
                                 b.replay(body, hi - 1)))
        return self._read_output(b, out_addr, blocks)
