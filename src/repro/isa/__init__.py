"""Architectural state and bit-accurate instruction semantics.

The sub-modules are organised by ISA layer:

* :mod:`repro.isa.opclasses` — functional-unit classes and operation metadata
  shared by the functional front end and the timing model.
* :mod:`repro.isa.registers` — register files: scalar integer, 64-bit
  multimedia (MMX/MDMX), MDMX packed accumulators, MOM matrix registers and
  MOM accumulators, and the MOM vector-length register.
* :mod:`repro.isa.simdops` — packed (sub-word, dimension X) operation
  semantics shared by MMX, MDMX and MOM.
* :mod:`repro.isa.accum` — packed-accumulator semantics (MDMX §3.1).
* :mod:`repro.isa.matrixops` — matrix (dimension Y) operations: row-mapped
  packed ops, strided loads/stores, transpose and pipelined reductions.
"""
