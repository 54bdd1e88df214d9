"""Tests for the synthetic workload generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.generators import (
    WorkloadSpec,
    random_dct_block,
    random_planar_rgb,
    random_s16_block,
    random_s16_samples,
    random_u8_block,
    random_u8_image,
)


class TestWorkloadSpec:
    def test_defaults(self):
        spec = WorkloadSpec()
        assert spec.scale >= 1
        assert spec.seed == 1999

    def test_rng_is_deterministic(self):
        a = WorkloadSpec(seed=3).rng().integers(0, 1000, 10)
        b = WorkloadSpec(seed=3).rng().integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = WorkloadSpec(seed=3).rng().integers(0, 1000, 10)
        b = WorkloadSpec(seed=4).rng().integers(0, 1000, 10)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("scale", [0, -2])
    def test_nonpositive_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale must be >= 1"):
            WorkloadSpec(scale=scale)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            WorkloadSpec(seed=-1)
        assert WorkloadSpec(seed=0).seed == 0


class TestGenerators:
    def test_u8_image_range_and_shape(self):
        img = random_u8_image(np.random.default_rng(0), 32, 48)
        assert img.shape == (32, 48)
        assert img.min() >= 0 and img.max() <= 255

    def test_u8_block(self):
        blk = random_u8_block(np.random.default_rng(0), 16, 16)
        assert blk.shape == (16, 16)
        assert blk.min() >= 0 and blk.max() <= 255

    def test_s16_block_range(self):
        blk = random_s16_block(np.random.default_rng(0), 8, 8, -100, 100)
        assert blk.shape == (8, 8)
        assert blk.min() >= -100 and blk.max() < 100

    def test_dct_block_is_sparse_and_low_frequency(self):
        blk = random_dct_block(np.random.default_rng(0))
        assert blk.shape == (8, 8)
        assert np.count_nonzero(blk) <= 13
        # energy concentrated in the low-frequency quadrant
        assert np.count_nonzero(blk[4:, 4:]) == 0
        assert np.abs(blk).max() < (1 << 11)

    def test_s16_samples(self):
        samples = random_s16_samples(np.random.default_rng(0), 40)
        assert samples.shape == (40,)
        assert samples.min() >= -32768 and samples.max() <= 32767

    def test_planar_rgb(self):
        r, g, b = random_planar_rgb(np.random.default_rng(0), 24)
        for plane in (r, g, b):
            assert plane.shape == (24,)
            assert plane.min() >= 0 and plane.max() <= 255
