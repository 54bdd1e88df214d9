"""Smoke tests for the runnable examples.

Each example's ``main`` is imported and executed with a small workload so
the documented entry points cannot rot.  Output is captured by pytest; the
assertions check the exit code and a few key phrases.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

_EXAMPLES_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "examples")


def load_example(name: str):
    path = os.path.join(_EXAMPLES_DIR, name)
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_main(name: str, argv: list[str]) -> int:
    module = load_example(name)
    old_argv = sys.argv
    sys.argv = [name] + argv
    try:
        return module.main()
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart(self, capsys):
        assert run_main("quickstart.py", ["comp", "1"]) == 0
        out = capsys.readouterr().out
        assert "MOM speed-up over scalar" in out

    def test_quickstart_rejects_unknown_kernel(self, capsys):
        assert run_main("quickstart.py", ["nosuch"]) == 1

    def test_figure2_paradigms(self, capsys):
        assert run_main("figure2_paradigms.py", []) == 0
        out = capsys.readouterr().out
        assert "MOM (dimensions X and Y)" in out

    def test_video_pipeline(self, capsys):
        assert run_main("video_decode_pipeline.py", ["1"]) == 0
        out = capsys.readouterr().out
        assert "pipeline speed-up of MOM over MMX" in out

    def test_gsm_codec(self, capsys):
        assert run_main("gsm_speech_codec.py", ["1"]) == 0
        out = capsys.readouterr().out
        assert "codec speed-up" in out

    def test_custom_kernel(self, capsys):
        assert run_main("custom_kernel.py", ["16"]) == 0
        out = capsys.readouterr().out
        assert "alphablend" in out

    def test_run_tables_end_to_end(self, capsys, tmp_path):
        """The tables driver runs through the ``repro.cli`` helpers it
        shares with the other drivers: its 9 x 4 points stream, reduce and
        print with the engine footer."""
        stream = tmp_path / "points.jsonl"
        assert run_main("run_tables.py",
                        ["1", "--stream-jsonl", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "(paper Table 9)" in out
        assert "36 point(s) simulated, 0 from cache" in out
        assert len(stream.read_text().splitlines()) == 36

    def test_figure_drivers_import(self):
        """The heavier figure/table drivers at least import and expose main()."""
        for name in ("run_figure4.py", "run_figure5.py", "run_tables.py",
                     "generate_experiments_report.py"):
            module = load_example(name)
            assert callable(module.main)
