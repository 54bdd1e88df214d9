"""``rgb2ycc``: RGB to YCbCr colour-space conversion (JPEG encode).

Planar 8-bit R, G and B channels are converted to planar Y, Cb and Cr using
Q14 fixed-point BT.601 weights (see :mod:`repro.kernels.constants`).  The
three input planes are allocated contiguously so the MOM variant can load
one packed word from each plane with a single strided matrix load — the
"vectorise along the colour dimension" strategy the paper describes for this
kernel (vector length 3).
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.common.datatypes import U8, U16, S16, S32
from repro.kernels.base import Kernel
from repro.kernels.catalog import DEFAULT_SCALES
from repro.kernels.constants import (
    CB_COEFFS,
    CHROMA_OFFSET,
    CR_COEFFS,
    RGB_ROUND,
    RGB_SHIFT,
    Y_COEFFS,
)
from repro.workloads.generators import WorkloadSpec, random_planar_rgb

__all__ = ["Rgb2YccKernel"]

_COMPONENTS = (Y_COEFFS, CB_COEFFS, CR_COEFFS)


class Rgb2YccKernel(Kernel):
    """Fixed-point RGB to YCbCr conversion."""

    name = "rgb2ycc"
    description = "RGB to YCbCr colour conversion with Q14 fixed-point weights"
    benchmark = "jpegencode"
    default_scale = DEFAULT_SCALES[name]  # scale -> 8*scale pixels

    def make_workload(self, spec: WorkloadSpec) -> Dict[str, Any]:
        rng = spec.rng()
        pixels = max(8, 8 * spec.scale)
        r, g, bch = random_planar_rgb(rng, pixels)
        rgb = np.stack([r, g, bch])  # shape (3, pixels) for contiguous planes
        return {"rgb": rgb, "pixels": pixels}

    def reference(self, workload) -> np.ndarray:
        rgb = workload["rgb"].astype(np.int64)
        r, g, bch = rgb[0], rgb[1], rgb[2]
        out = []
        for idx, (cr_, cg_, cb_) in enumerate(_COMPONENTS):
            value = (cr_ * r + cg_ * g + cb_ * bch + RGB_ROUND) >> RGB_SHIFT
            if idx > 0:
                value = value + CHROMA_OFFSET
            out.append(np.clip(value, 0, 255))
        return np.stack(out).astype(np.int64)

    # ------------------------------------------------------------------

    def _setup(self, b, workload) -> tuple[int, int, int]:
        rgb_addr = b.machine.alloc_array(workload["rgb"], U8)
        pixels = workload["pixels"]
        out_addr = b.machine.alloc_zeros(3 * pixels, U8)
        return rgb_addr, out_addr, pixels

    def _read_output(self, b, out_addr: int, pixels: int) -> np.ndarray:
        flat = b.machine.read_array(out_addr, 3 * pixels, U8)
        return flat.reshape(3, pixels)

    def _expected(self, b, rgb_addr: int, pixels: int) -> np.ndarray:
        """The converted planes recomputed from machine memory."""
        rgb = b.machine.read_array(rgb_addr, 3 * pixels, U8).reshape(3, pixels)
        r, g, bch = rgb[0], rgb[1], rgb[2]
        out = []
        for idx, (cr_, cg_, cb_) in enumerate(_COMPONENTS):
            value = (cr_ * r + cg_ * g + cb_ * bch + RGB_ROUND) >> RGB_SHIFT
            if idx > 0:
                value = value + CHROMA_OFFSET
            out.append(np.clip(value, 0, 255))
        return np.stack(out)

    def _bulk_planes(self, b, rgb_addr: int, out_addr: int, pixels: int,
                     px_lo: int, px_hi: int) -> None:
        """Write pixels ``px_lo .. px_hi-1`` of all three output planes."""
        vals = self._expected(b, rgb_addr, pixels)
        for idx in range(3):
            b.machine.memory.write_array(
                out_addr + idx * pixels + px_lo, vals[idx, px_lo:px_hi], U8)

    # -- scalar ---------------------------------------------------------

    def build_scalar(self, b, workload) -> np.ndarray:
        rgb_addr, out_addr, pixels = self._setup(b, workload)
        R_R, R_G, R_B, R_OUT, R_CNT = 1, 2, 3, 4, 5
        R_PR, R_PG, R_PB, R_ACC, R_T = 6, 7, 8, 9, 10
        b.li(R_R, rgb_addr)
        b.li(R_G, rgb_addr + pixels)
        b.li(R_B, rgb_addr + 2 * pixels)
        b.li(R_OUT, out_addr)
        b.li(R_CNT, pixels)
        def body(px: int) -> None:
            b.ldbu(R_PR, R_R, px)
            b.ldbu(R_PG, R_G, px)
            b.ldbu(R_PB, R_B, px)
            for idx, (cr_, cg_, cb_) in enumerate(_COMPONENTS):
                b.muli(R_ACC, R_PR, cr_)
                b.muli(R_T, R_PG, cg_)
                b.add(R_ACC, R_ACC, R_T)
                b.muli(R_T, R_PB, cb_)
                b.add(R_ACC, R_ACC, R_T)
                b.addi(R_ACC, R_ACC, RGB_ROUND)
                b.srai(R_ACC, R_ACC, RGB_SHIFT)
                if idx > 0:
                    b.addi(R_ACC, R_ACC, CHROMA_OFFSET)
                b.clamp(R_ACC, R_ACC, 0, 255)
                b.stb(R_ACC, R_OUT, idx * pixels + px)
            b.subi(R_CNT, R_CNT, 1)
            b.branch(R_CNT, "bgt")

        def bulk(lo: int, hi: int) -> None:
            last = hi - 1
            self._bulk_planes(b, rgb_addr, out_addr, pixels, lo, last)
            b.regs.write(R_CNT, pixels - last)
            b.replay(body, last)

        b.unroll(pixels, body, bulk)
        return self._read_output(b, out_addr, pixels)

    # -- MMX -------------------------------------------------------------

    def build_mmx(self, b, workload) -> np.ndarray:
        rgb_addr, out_addr, pixels = self._setup(b, workload)
        R_R, R_G, R_B, R_OUT, R_CNT = 1, 2, 3, 4, 5
        MM_ZERO, MM_ONES, MM_128 = 20, 21, 22
        # Constant registers: interleaved (cR, cG) pairs and (cB, ROUND) pairs
        # per component, as used by the pmaddwd dot-product idiom.
        MM_RG = {0: 23, 1: 24, 2: 25}
        MM_BR = {0: 26, 1: 27, 2: 28}
        b.li(R_R, rgb_addr)
        b.li(R_G, rgb_addr + pixels)
        b.li(R_B, rgb_addr + 2 * pixels)
        b.li(R_OUT, out_addr)
        b.li(R_CNT, pixels // 4)
        b.pzero(MM_ZERO)
        b.load_const(MM_ONES, [1, 1, 1, 1], U16)
        b.load_const(MM_128, [CHROMA_OFFSET] * 4, S16)
        for idx, (cr_, cg_, cb_) in enumerate(_COMPONENTS):
            b.load_const(MM_RG[idx], [cr_, cg_, cr_, cg_], S16)
            b.load_const(MM_BR[idx], [cb_, RGB_ROUND, cb_, RGB_ROUND], S16)
        def body(group: int) -> None:
            off = group * 4
            b.movd_ld(0, R_R, off, U8)
            b.movd_ld(1, R_G, off, U8)
            b.movd_ld(2, R_B, off, U8)
            b.punpckl(0, 0, MM_ZERO, U8)   # R as 16-bit lanes
            b.punpckl(1, 1, MM_ZERO, U8)   # G
            b.punpckl(2, 2, MM_ZERO, U8)   # B
            b.punpckl(3, 0, 1, U16)        # (r0, g0, r1, g1)
            b.punpckh(4, 0, 1, U16)        # (r2, g2, r3, g3)
            b.punpckl(5, 2, MM_ONES, U16)  # (b0, 1, b1, 1)
            b.punpckh(6, 2, MM_ONES, U16)  # (b2, 1, b3, 1)
            for idx in range(3):
                b.pmadd(7, 3, MM_RG[idx], S16)
                b.pmadd(8, 4, MM_RG[idx], S16)
                b.pmadd(9, 5, MM_BR[idx], S16)
                b.pmadd(10, 6, MM_BR[idx], S16)
                b.padd(7, 7, 9, S32)
                b.padd(8, 8, 10, S32)
                b.psra(7, 7, RGB_SHIFT, S32)
                b.psra(8, 8, RGB_SHIFT, S32)
                b.packss(9, 7, 8, S32)
                if idx > 0:
                    b.padd(9, 9, MM_128, S16)
                b.packus(10, 9, 9, S16)
                b.movd_st(10, R_OUT, idx * pixels + off, U8)
            b.subi(R_CNT, R_CNT, 1)
            b.branch(R_CNT, "bgt")

        def bulk(lo: int, hi: int) -> None:
            last = hi - 1
            self._bulk_planes(b, rgb_addr, out_addr, pixels, lo * 4, last * 4)
            b.regs.write(R_CNT, pixels // 4 - last)
            b.replay(body, last)

        b.unroll(pixels // 4, body, bulk)
        return self._read_output(b, out_addr, pixels)

    # -- MDMX -------------------------------------------------------------

    def build_mdmx(self, b, workload) -> np.ndarray:
        rgb_addr, out_addr, pixels = self._setup(b, workload)
        R_R, R_G, R_B, R_OUT, R_CNT = 1, 2, 3, 4, 5
        MM_ZERO, MM_128 = 20, 21
        # Splatted coefficient words, one per (component, channel).
        MM_COEF = {}
        reg = 22
        ACC = 0
        b.li(R_R, rgb_addr)
        b.li(R_G, rgb_addr + pixels)
        b.li(R_B, rgb_addr + 2 * pixels)
        b.li(R_OUT, out_addr)
        b.li(R_CNT, pixels // 4)
        b.pzero(MM_ZERO)
        b.load_const(MM_128, [CHROMA_OFFSET] * 4, S16)
        for idx, coeffs in enumerate(_COMPONENTS):
            for ch in range(3):
                MM_COEF[(idx, ch)] = reg
                b.load_const(reg, [coeffs[ch]] * 4, S16)
                reg += 1
        def body(group: int) -> None:
            off = group * 4
            b.movd_ld(0, R_R, off, U8)
            b.movd_ld(1, R_G, off, U8)
            b.movd_ld(2, R_B, off, U8)
            b.punpckl(0, 0, MM_ZERO, U8)
            b.punpckl(1, 1, MM_ZERO, U8)
            b.punpckl(2, 2, MM_ZERO, U8)
            for idx in range(3):
                b.acc_clear(ACC, S16)
                b.acc_madd(ACC, 0, MM_COEF[(idx, 0)], S16)
                b.acc_madd(ACC, 1, MM_COEF[(idx, 1)], S16)
                b.acc_madd(ACC, 2, MM_COEF[(idx, 2)], S16)
                b.acc_read(3, ACC, S16, shift=RGB_SHIFT)
                if idx > 0:
                    b.padd(3, 3, MM_128, S16)
                b.packus(4, 3, 3, S16)
                b.movd_st(4, R_OUT, idx * pixels + off, U8)
            b.subi(R_CNT, R_CNT, 1)
            b.branch(R_CNT, "bgt")

        def bulk(lo: int, hi: int) -> None:
            last = hi - 1
            self._bulk_planes(b, rgb_addr, out_addr, pixels, lo * 4, last * 4)
            b.regs.write(R_CNT, pixels // 4 - last)
            b.replay(body, last)

        b.unroll(pixels // 4, body, bulk)
        return self._read_output(b, out_addr, pixels)

    # -- MOM --------------------------------------------------------------

    def build_mom(self, b, workload) -> np.ndarray:
        rgb_addr, out_addr, pixels = self._setup(b, workload)
        R_IN, R_PLANE, R_OUT, R_EIGHT, R_OUTP = 1, 2, 3, 4, 5
        MR_ZERO, MR_128 = 15, 14
        MR_COEF = {0: 13, 1: 12, 2: 11}
        ACC_LO, ACC_HI = 0, 1
        b.li(R_PLANE, pixels)     # plane stride for the colour-dimension load
        b.li(R_EIGHT, 8)
        b.li(R_IN, rgb_addr)
        b.li(R_OUT, out_addr)
        b.setvl(3)
        b.mom_zero(MR_ZERO)
        b.mom_load_const(MR_128, [[CHROMA_OFFSET] * 4], S16)
        for idx, coeffs in enumerate(_COMPONENTS):
            b.mom_load_const(MR_COEF[idx], [[c] * 4 for c in coeffs], S16)
        def body(group: int) -> None:
            off = group * 8
            # One strided load brings 8 pixels of R, G and B (vector length 3
            # along the colour dimension, as in the paper).
            b.mom_ld(0, R_IN, R_PLANE, U8)
            b.mom_punpckl(1, 0, MR_ZERO, U8)   # pixels 0-3 as 16-bit, rows R/G/B
            b.mom_punpckh(2, 0, MR_ZERO, U8)   # pixels 4-7
            for idx in range(3):
                b.mom_acc_clear(ACC_LO, S16)
                b.mom_acc_clear(ACC_HI, S16)
                b.mom_macc_madd(ACC_LO, 1, MR_COEF[idx], S16)
                b.mom_macc_madd(ACC_HI, 2, MR_COEF[idx], S16)
                b.setvl(1)
                b.mom_acc_read(3, ACC_LO, S16, shift=RGB_SHIFT)
                b.mom_acc_read(4, ACC_HI, S16, shift=RGB_SHIFT)
                if idx > 0:
                    b.mom_padd(3, 3, MR_128, S16)
                    b.mom_padd(4, 4, MR_128, S16)
                b.mom_packus(5, 3, 4, S16)
                b.li(R_OUTP, out_addr + idx * pixels + off)
                b.mom_st(5, R_OUTP, R_EIGHT, U8)
                b.setvl(3)
            b.addi(R_IN, R_IN, 8)

        def bulk(lo: int, hi: int) -> None:
            last = hi - 1
            self._bulk_planes(b, rgb_addr, out_addr, pixels, lo * 8, last * 8)
            b.regs.write(R_IN, rgb_addr + last * 8)
            b.replay(body, last)

        b.unroll(pixels // 8, body, bulk)
        return self._read_output(b, out_addr, pixels)
