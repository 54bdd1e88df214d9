"""The kernel catalog is the one source of names, order and scales."""

import pytest

from repro.kernels.base import ISA_VARIANTS as BASE_ISA_VARIANTS
from repro.kernels.catalog import (DEFAULT_SCALES, ISA_VARIANTS,
                                   default_scale, kernel_names)
from repro.kernels.registry import KERNELS


def test_registry_follows_the_catalog():
    assert list(KERNELS) == kernel_names()
    assert {name: kernel.default_scale for name, kernel in KERNELS.items()} \
        == DEFAULT_SCALES
    assert BASE_ISA_VARIANTS is ISA_VARIANTS


def test_unknown_kernel_names_the_known_ones():
    with pytest.raises(KeyError, match="unknown kernel 'fft'.*comp"):
        default_scale("fft")
