"""Tests for the plain-text report formatters."""

from __future__ import annotations

from repro.analysis.metrics import KernelMetrics
from repro.analysis.report import (
    format_breakdown_table,
    format_latency_table,
    format_speedup_table,
)


def metrics(isa, speedup):
    return KernelMetrics(kernel="comp", isa=isa, ipc=2.0, opi=4.0, r=1.5,
                         speedup=speedup, f=0.5, vlx=8.0, vly=4.0, cycles=100,
                         instructions=200, operations=800)


class TestBreakdownTable:
    def test_contains_all_isas_and_columns(self):
        rows = {isa: metrics(isa, s) for isa, s in
                (("scalar", 1.0), ("mmx", 4.0), ("mdmx", 5.0), ("mom", 9.0))}
        text = format_breakdown_table("comp", rows)
        for label in ("Alpha", "MMX", "MDMX", "MOM"):
            assert label in text
        for column in ("IPC", "OPI", "R", "S", "F", "VLx", "VLy"):
            assert column in text

    def test_missing_isa_is_skipped(self):
        text = format_breakdown_table("comp", {"mom": metrics("mom", 9.0)})
        assert "MOM" in text and "MMX" not in text


class TestFigureTables:
    def test_speedup_table(self):
        results = {"comp": {"mmx": {1: 2.0, 4: 3.0}, "mdmx": {1: 2.5, 4: 3.5},
                            "mom": {1: 8.0, 4: 9.0}}}
        text = format_speedup_table(results, ways=(1, 4))
        assert "comp" in text
        assert "way 1" in text and "way 4" in text
        assert "8.00" in text

    def test_latency_table(self):
        results = {"comp": {"scalar": {1: 100, 50: 400}, "mom": {1: 50, 50: 90}}}
        text = format_latency_table(results, latencies=(1, 50))
        assert "lat 1" in text and "lat 50" in text
        assert "400" in text

