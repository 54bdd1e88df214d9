"""Tests for operation-class metadata."""

from __future__ import annotations

from repro.isa.opclasses import DEFAULT_LATENCIES, OpClass, RegFile


class TestOpClassPredicates:
    def test_memory_classes(self):
        assert OpClass.LOAD.is_memory and OpClass.LOAD.is_load
        assert OpClass.STORE.is_memory and OpClass.STORE.is_store
        assert OpClass.MEDIA_LOAD.is_load and not OpClass.MEDIA_LOAD.is_store
        assert OpClass.MEDIA_STORE.is_store
        assert not OpClass.IALU.is_memory

    def test_media_classes(self):
        for opclass in (OpClass.MEDIA_ALU, OpClass.MEDIA_MUL, OpClass.MEDIA_MISC,
                        OpClass.MEDIA_ACC, OpClass.MATRIX_MISC):
            assert opclass.is_media
        assert not OpClass.MEDIA_LOAD.is_media  # memory, not a compute unit
        assert not OpClass.IALU.is_media

    def test_integer_classes(self):
        for opclass in (OpClass.IALU, OpClass.IMUL, OpClass.BRANCH):
            assert opclass.is_integer
        assert not OpClass.MEDIA_ALU.is_integer

    def test_every_class_has_a_default_latency(self):
        for opclass in OpClass:
            assert opclass in DEFAULT_LATENCIES
            assert DEFAULT_LATENCIES[opclass] >= 1

    def test_integer_multiply_is_long_latency(self):
        assert DEFAULT_LATENCIES[OpClass.IMUL] > DEFAULT_LATENCIES[OpClass.IALU]
        assert DEFAULT_LATENCIES[OpClass.MEDIA_MUL] < DEFAULT_LATENCIES[OpClass.IMUL]


class TestRegFile:
    def test_distinct_values(self):
        assert len({rf.value for rf in RegFile}) == len(list(RegFile))
