"""``h2v2`` chroma upsampling kernel (JPEG decode).

libjpeg's ``h2v2_upsample`` doubles a chroma plane in both dimensions by
pixel replication: every input pixel becomes a 2x2 block of the output.
Workload: ``scale`` tiles of 8x8 input pixels, each expanded to 16x16.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.common.datatypes import U8
from repro.kernels.base import Kernel
from repro.kernels.catalog import DEFAULT_SCALES
from repro.workloads.generators import WorkloadSpec, random_u8_block

__all__ = ["H2V2UpsampleKernel"]

_IN = 8
_OUT = 16
_IN_BYTES = _IN * _IN
_OUT_BYTES = _OUT * _OUT


class H2V2UpsampleKernel(Kernel):
    """2x2 pixel-replication upsampling (JPEG decode)."""

    name = "h2v2"
    description = "2x2 chroma upsampling by pixel replication"
    benchmark = "jpegdecode"
    default_scale = DEFAULT_SCALES[name]

    def make_workload(self, spec: WorkloadSpec) -> Dict[str, Any]:
        rng = spec.rng()
        tiles = max(1, spec.scale)
        inp = np.stack([random_u8_block(rng, _IN, _IN) for _ in range(tiles)])
        return {"input": inp, "tiles": tiles}

    def reference(self, workload) -> np.ndarray:
        inp = workload["input"].astype(np.int64)
        return np.repeat(np.repeat(inp, 2, axis=1), 2, axis=2)

    # ------------------------------------------------------------------

    def _setup(self, b, workload) -> tuple[int, int]:
        in_addr = b.machine.alloc_array(workload["input"], U8)
        out_addr = b.machine.alloc_zeros(workload["tiles"] * _OUT_BYTES, U8)
        return in_addr, out_addr

    def _read_output(self, b, out_addr: int, tiles: int) -> np.ndarray:
        flat = b.machine.read_array(out_addr, tiles * _OUT_BYTES, U8)
        return flat.reshape(tiles, _OUT, _OUT)

    def _expected(self, b, in_addr: int, tile: int) -> np.ndarray:
        """The upsampled tile ``tile`` recomputed from machine memory."""
        inp = b.machine.read_array(in_addr + tile * _IN_BYTES,
                                   _IN_BYTES, U8).reshape(_IN, _IN)
        return np.repeat(np.repeat(inp, 2, axis=0), 2, axis=1)

    def _bulk_tiles(self, b, in_addr: int, out_addr: int,
                    lo: int, hi: int) -> None:
        for tile in range(lo, hi - 1):
            b.machine.memory.write_array(
                out_addr + tile * _OUT_BYTES, self._expected(b, in_addr, tile),
                U8)

    # -- scalar ---------------------------------------------------------

    def build_scalar(self, b, workload) -> np.ndarray:
        in_addr, out_addr = self._setup(b, workload)
        tiles = workload["tiles"]
        R_IN, R_OUT, R_CNT, R_X = 1, 2, 3, 4

        def tile_body(tile: int) -> None:
            b.li(R_IN, in_addr + tile * _IN_BYTES)
            b.li(R_OUT, out_addr + tile * _OUT_BYTES)
            b.li(R_CNT, _IN)

            def row_body(_row: int) -> None:
                for col in range(_IN):
                    b.ldbu(R_X, R_IN, col)
                    b.stb(R_X, R_OUT, 2 * col)
                    b.stb(R_X, R_OUT, 2 * col + 1)
                    b.stb(R_X, R_OUT, _OUT + 2 * col)
                    b.stb(R_X, R_OUT, _OUT + 2 * col + 1)
                b.addi(R_IN, R_IN, _IN)
                b.addi(R_OUT, R_OUT, 2 * _OUT)
                b.subi(R_CNT, R_CNT, 1)
                b.branch(R_CNT, "bgt")

            def row_bulk(lo: int, hi: int) -> None:
                last = hi - 1
                up = self._expected(b, in_addr, tile)
                b.machine.memory.write_array(
                    out_addr + tile * _OUT_BYTES + lo * 2 * _OUT,
                    up[2 * lo:2 * last], U8)
                b.regs.write(R_IN, in_addr + tile * _IN_BYTES + last * _IN)
                b.regs.write(R_OUT,
                             out_addr + tile * _OUT_BYTES + last * 2 * _OUT)
                b.regs.write(R_CNT, _IN - last)
                b.replay(row_body, last)

            b.unroll(_IN, row_body, row_bulk)

        b.unroll(tiles, tile_body,
                 lambda lo, hi: (self._bulk_tiles(b, in_addr, out_addr, lo, hi),
                                 b.replay(tile_body, hi - 1)))
        return self._read_output(b, out_addr, tiles)

    # -- MMX / MDMX --------------------------------------------------------

    def _build_packed(self, b, workload) -> np.ndarray:
        in_addr, out_addr = self._setup(b, workload)
        tiles = workload["tiles"]
        R_IN, R_OUT, R_CNT = 1, 2, 3

        def tile_body(tile: int) -> None:
            b.li(R_IN, in_addr + tile * _IN_BYTES)
            b.li(R_OUT, out_addr + tile * _OUT_BYTES)
            b.li(R_CNT, _IN)

            def row_body(_row: int) -> None:
                b.movq_ld(0, R_IN, 0, U8)
                # duplicate horizontally: interleave the row with itself
                b.punpckl(1, 0, 0, U8)
                b.punpckh(2, 0, 0, U8)
                # even output row
                b.movq_st(1, R_OUT, 0, U8)
                b.movq_st(2, R_OUT, 8, U8)
                # odd output row (vertical replication)
                b.movq_st(1, R_OUT, _OUT, U8)
                b.movq_st(2, R_OUT, _OUT + 8, U8)
                b.addi(R_IN, R_IN, _IN)
                b.addi(R_OUT, R_OUT, 2 * _OUT)
                b.subi(R_CNT, R_CNT, 1)
                b.branch(R_CNT, "bgt")

            def row_bulk(lo: int, hi: int) -> None:
                last = hi - 1
                up = self._expected(b, in_addr, tile)
                b.machine.memory.write_array(
                    out_addr + tile * _OUT_BYTES + lo * 2 * _OUT,
                    up[2 * lo:2 * last], U8)
                b.regs.write(R_IN, in_addr + tile * _IN_BYTES + last * _IN)
                b.regs.write(R_OUT,
                             out_addr + tile * _OUT_BYTES + last * 2 * _OUT)
                b.regs.write(R_CNT, _IN - last)
                b.replay(row_body, last)

            b.unroll(_IN, row_body, row_bulk)

        b.unroll(tiles, tile_body,
                 lambda lo, hi: (self._bulk_tiles(b, in_addr, out_addr, lo, hi),
                                 b.replay(tile_body, hi - 1)))
        return self._read_output(b, out_addr, tiles)

    def build_mmx(self, b, workload) -> np.ndarray:
        return self._build_packed(b, workload)

    def build_mdmx(self, b, workload) -> np.ndarray:
        return self._build_packed(b, workload)

    # -- MOM --------------------------------------------------------------

    def build_mom(self, b, workload) -> np.ndarray:
        in_addr, out_addr = self._setup(b, workload)
        tiles = workload["tiles"]
        R_IN, R_INS, R_OUTS = 1, 2, 3
        R_EVEN_LO, R_EVEN_HI, R_ODD_LO, R_ODD_HI = 4, 5, 6, 7
        b.li(R_INS, _IN)            # input row stride
        b.li(R_OUTS, 2 * _OUT)      # output stride skips every other row
        b.setvl(_IN)
        def body(tile: int) -> None:
            base_out = out_addr + tile * _OUT_BYTES
            b.li(R_IN, in_addr + tile * _IN_BYTES)
            b.li(R_EVEN_LO, base_out)
            b.addi(R_EVEN_HI, R_EVEN_LO, 8)
            b.addi(R_ODD_LO, R_EVEN_LO, _OUT)
            b.addi(R_ODD_HI, R_EVEN_LO, _OUT + 8)
            b.mom_ld(0, R_IN, R_INS, U8)
            b.mom_punpckl(1, 0, 0, U8)
            b.mom_punpckh(2, 0, 0, U8)
            b.mom_st(1, R_EVEN_LO, R_OUTS, U8)
            b.mom_st(2, R_EVEN_HI, R_OUTS, U8)
            b.mom_st(1, R_ODD_LO, R_OUTS, U8)
            b.mom_st(2, R_ODD_HI, R_OUTS, U8)

        b.unroll(tiles, body,
                 lambda lo, hi: (self._bulk_tiles(b, in_addr, out_addr, lo, hi),
                                 b.replay(body, hi - 1)))
        return self._read_output(b, out_addr, tiles)
