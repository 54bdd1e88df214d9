"""Shared low-level substrate: packed sub-word arithmetic.

Every multimedia ISA modelled in this reproduction (MMX-like, MDMX-like and
MOM) operates on 64-bit *packed words* holding 8, 4 or 2 sub-word elements of
8, 16 or 32 bits.  This package provides the lane packing/unpacking,
saturating arithmetic, widening multiplies and fixed-point helpers those
instruction semantics are written in terms of.
"""
