"""Synthetic workload generators.

The paper uses MediaBench inputs (MPEG/JPEG video frames, GSM audio).  The
kernels' control flow is data independent, so only data shapes and value
ranges matter for the instruction streams; these generators produce
deterministic, seeded synthetic data with the right shapes and ranges.
"""
