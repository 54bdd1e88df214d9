"""Kernel registry: name -> kernel instance."""

from __future__ import annotations

from typing import Dict

from repro.kernels.addblock import AddBlockKernel
from repro.kernels.base import Kernel
from repro.kernels.catalog import kernel_names
from repro.kernels.compensation import CompensationKernel
from repro.kernels.h2v2 import H2V2UpsampleKernel
from repro.kernels.idct import IdctKernel
from repro.kernels.ltp import LtpFilteringKernel, LtpParametersKernel
from repro.kernels.motion import Motion1Kernel, Motion2Kernel
from repro.kernels.rgb2ycc import Rgb2YccKernel

__all__ = ["KERNELS", "get_kernel", "kernel_names"]

#: All nine kernels, in the catalog's order (the order the paper's Figure 4
#: presents them).
KERNELS: Dict[str, Kernel] = {
    kernel.name: kernel
    for kernel in (
        IdctKernel(),
        Motion2Kernel(),
        Rgb2YccKernel(),
        Motion1Kernel(),
        H2V2UpsampleKernel(),
        AddBlockKernel(),
        CompensationKernel(),
        LtpParametersKernel(),
        LtpFilteringKernel(),
    )
}


def get_kernel(name: str) -> Kernel:
    """Look a kernel up by name (raises ``KeyError`` with the known names)."""
    try:
        return KERNELS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown kernel {name!r}; known kernels: {', '.join(KERNELS)}"
        ) from exc
