"""Deterministic synthetic data generators for the MediaBench kernels.

NumPy is imported by the functions that draw data, not by the module:
:class:`WorkloadSpec` keys every cached result, and a run served from the
result cache must not pay for importing NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "WorkloadSpec",
    "random_u8_image",
    "random_u8_block",
    "random_s16_block",
    "random_dct_block",
    "random_s16_samples",
    "random_planar_rgb",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """Size/seed description of one kernel workload.

    ``scale`` is the kernel-defined repetition count (number of blocks,
    macroblocks, lags, ... — see each kernel's docstring); ``seed`` drives
    the deterministic RNG.
    """

    scale: int = 4
    seed: int = 1999  # the paper's publication year, for determinism

    def __post_init__(self) -> None:
        # The kernels would clamp a smaller scale to 1, but it would still
        # key a separate cache entry for the same trace.
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        # NumPy's seeding rejects a negative seed, but only deep inside
        # the first build.
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def rng(self) -> np.random.Generator:
        import numpy as np

        return np.random.default_rng(self.seed)


def random_u8_image(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """A synthetic 8-bit luminance image with smooth structure plus noise.

    Smooth gradients plus noise give realistic motion-estimation behaviour
    (non-degenerate SAD surfaces) while staying deterministic.
    """
    import numpy as np

    y, x = np.mgrid[0:height, 0:width]
    base = (
        128
        + 64 * np.sin(2 * np.pi * x / max(width, 1) * 1.7)
        + 48 * np.cos(2 * np.pi * y / max(height, 1) * 2.3)
    )
    noise = rng.integers(-24, 25, size=(height, width))
    return np.clip(base + noise, 0, 255).astype(np.int64)


def random_u8_block(rng: np.random.Generator, rows: int = 8, cols: int = 8) -> np.ndarray:
    """An 8-bit pixel block."""
    import numpy as np

    return rng.integers(0, 256, size=(rows, cols)).astype(np.int64)


def random_s16_block(rng: np.random.Generator, rows: int = 8, cols: int = 8,
                     lo: int = -256, hi: int = 256) -> np.ndarray:
    """A 16-bit residual block (e.g. MPEG prediction error)."""
    import numpy as np

    return rng.integers(lo, hi, size=(rows, cols)).astype(np.int64)


def random_dct_block(rng: np.random.Generator, rows: int = 8, cols: int = 8) -> np.ndarray:
    """A sparse, low-frequency-heavy block of quantised DCT coefficients.

    Real MPEG/JPEG coefficient blocks have most energy in the top-left
    corner and many zeros; the value range fits 12 signed bits.
    """
    import numpy as np

    block = np.zeros((rows, cols), dtype=np.int64)
    # DC coefficient.
    block[0, 0] = rng.integers(-1024, 1024)
    # A handful of low-frequency AC coefficients.
    n_ac = int(rng.integers(4, 12))
    for _ in range(n_ac):
        r = int(rng.integers(0, max(1, rows // 2)))
        c = int(rng.integers(0, max(1, cols // 2)))
        block[r, c] = rng.integers(-512, 512)
    return block


def random_s16_samples(rng: np.random.Generator, count: int,
                       lo: int = -8192, hi: int = 8192) -> np.ndarray:
    """A window of 16-bit audio samples (GSM speech range)."""
    import numpy as np

    return rng.integers(lo, hi, size=count).astype(np.int64)


def random_planar_rgb(rng: np.random.Generator, pixels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three planar 8-bit colour channels of ``pixels`` samples each."""
    import numpy as np

    r = rng.integers(0, 256, size=pixels).astype(np.int64)
    g = rng.integers(0, 256, size=pixels).astype(np.int64)
    b = rng.integers(0, 256, size=pixels).astype(np.int64)
    return r, g, b
