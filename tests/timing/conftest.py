"""Shared inputs of the timing suites: the adversarial trace corpus.

``test_lowered.py`` (lowered loop against the object loop) and
``test_vector.py`` (array program against the lowered loop) run the same
hand-written traces, so a new case is written once, here, and both suites
pick it up through the ``adversarial_trace`` fixture.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.isa.opclasses import OpClass, RegFile
from repro.trace.container import Trace
from repro.trace.instruction import DynInstr, RegRef


def make_instr(opcode, opclass, srcs=(), dsts=(), ops=1, vlx=1, vly=1,
               is_vector=False, non_pipelined=False) -> DynInstr:
    """One hand-written dynamic instruction of ISA ``"test"``."""
    return DynInstr(opcode=opcode, opclass=opclass, isa="test",
                    srcs=tuple(srcs), dsts=tuple(dsts), ops=ops, vlx=vlx,
                    vly=vly, is_vector=is_vector, non_pipelined=non_pipelined)


def _vl_chain() -> Trace:
    """Slow loads, each followed by a dozen vector-length writes: the VL
    rename pool (``VL_RENAME_SLOTS`` entries whatever the machine) fills
    behind every load, which commits last."""
    ints = [RegRef(RegFile.INT, i) for i in range(3)]
    vl = RegRef(RegFile.VL, 0)
    trace = Trace("vl_chain", "test")
    for _ in range(16):
        trace.append(make_instr("ld", OpClass.LOAD, srcs=(ints[0],),
                                dsts=(ints[1],)))
        for _ in range(12):
            trace.append(make_instr("setvl", OpClass.IALU, srcs=(ints[2],),
                                    dsts=(vl,)))
    return trace


def _adversarial_traces() -> List[Trace]:
    """The special paths the kernels may not cover in every combination:
    accumulator chains, MOM reductions, non-pipelined transposes, a memory
    mix, two-file destinations, the VL rename pool and the empty trace."""
    acc = RegRef(RegFile.ACC, 0)
    med = [RegRef(RegFile.MEDIA, i) for i in range(4)]
    mat = [RegRef(RegFile.MATRIX, i) for i in range(4)]
    vl = RegRef(RegFile.VL, 0)
    ints = [RegRef(RegFile.INT, i) for i in range(4)]

    mdmx_chain = Trace("mdmx_chain", "test")
    for _ in range(24):
        mdmx_chain.append(make_instr("acc", OpClass.MEDIA_ACC,
                                     srcs=(med[0], med[1], acc), dsts=(acc,),
                                     ops=4, vlx=4, vly=1, is_vector=True))

    mom_reduce = Trace("mom_reduce", "test")
    mom_reduce.append(make_instr("setvl", OpClass.IALU, dsts=(vl,)))
    for i in range(6):
        mom_reduce.append(make_instr(
            "macc", OpClass.MEDIA_ACC,
            srcs=(mat[i % 2], mat[(i + 1) % 2], acc, vl), dsts=(acc,),
            ops=64, vlx=4, vly=16, is_vector=True))

    transpose = Trace("transpose", "test")
    for i in range(4):
        transpose.append(make_instr("mtrans", OpClass.MATRIX_MISC,
                                    srcs=(mat[i % 2],),
                                    dsts=(mat[2 + i % 2],), ops=64, vlx=8,
                                    vly=8, is_vector=True,
                                    non_pipelined=True))

    mem_mix = Trace("mem_mix", "test")
    for i in range(16):
        mem_mix.append(make_instr("ldm", OpClass.MEDIA_LOAD, srcs=(ints[0],),
                                  dsts=(mat[i % 4],), ops=128, vlx=8, vly=16,
                                  is_vector=True))
        mem_mix.append(make_instr("st", OpClass.STORE,
                                  srcs=(ints[1], ints[2])))
        mem_mix.append(make_instr("mul", OpClass.IMUL, srcs=(ints[2],),
                                  dsts=(ints[3],)))
        mem_mix.append(make_instr("br", OpClass.BRANCH, srcs=(ints[3],)))

    multi_dst = Trace("multi_dst", "test")
    for i in range(8):
        # Two destinations in different register files on one instruction:
        # both rename pools constrain, both scoreboard entries update.
        multi_dst.append(make_instr("wide", OpClass.MEDIA_MISC,
                                    srcs=(med[0],), dsts=(med[1], acc),
                                    ops=8, vlx=8, is_vector=True))

    return [mdmx_chain, mom_reduce, transpose, mem_mix, multi_dst,
            _vl_chain(), Trace("empty", "test")]


@pytest.fixture
def instr():
    """``instr(opcode, opclass, srcs=(), dsts=(), ...)``: build one
    hand-written instruction (see :func:`make_instr`)."""
    return make_instr


@pytest.fixture(params=_adversarial_traces(), ids=lambda t: t.name)
def adversarial_trace(request) -> Trace:
    """Each trace of the shared adversarial corpus in turn."""
    return request.param


@pytest.fixture
def vl_chain() -> Trace:
    """The corpus trace in which only the VL rename pool binds."""
    return _vl_chain()
