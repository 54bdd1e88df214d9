"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.sweep.faults import FAULT_ENV


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "comp"])
        assert args.kernel == "comp"
        assert args.way == 4
        assert args.mem_latency == 1

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fft"])

    def test_result_store_flag_is_gone(self):
        for command in (["sweep"], ["serve", "--state-dir", "x"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(command + ["--result-store", "json"])

    @pytest.mark.parametrize("argv, field", [
        (["figure5", "--kernels", "comp", "--latencies", "-5"], "mem_latency"),
        (["sweep", "--kernels", "comp", "--latencies", "1", "0"],
         "mem_latency"),
        (["sweep", "--kernels", "comp", "--ways", "0"], "way"),
        (["run", "comp", "--mem-latency", "0"], "mem_latency"),
    ])
    def test_nonphysical_machine_exits_with_the_field(self, capsys, argv,
                                                      field):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {field}" in err and ">= 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, field", [
        (["sweep", "--kernels", "comp", "--scale", "1", "--latencies",
          "1000000000"], "mem_latency"),
        (["sweep", "--kernels", "comp", "--scale", "1", "--ways", "100000"],
         "way"),
        (["run", "comp", "--way", "65"], "way"),
        (["sweep", "--kernels", "comp", "--scale", "65"], "scale"),
        (["figure4", "--scale", "100000"], "scale"),
        (["run", "comp", "--scale", "65"], "scale"),
    ])
    def test_oversized_machine_exits_with_the_field(self, capsys, argv,
                                                    field):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {field}" in err and "<=" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, field", [
        (["sweep", "--kernels", "comp", "--jobs", "0"], "jobs"),
        (["figure4", "--kernels", "comp", "--jobs", "-3"], "jobs"),
        (["sweep", "--kernels", "comp", "--task-timeout", "-1"],
         "task_timeout"),
        (["sweep", "--kernels", "comp", "--task-timeout", "0"],
         "task_timeout"),
        (["tables", "--kernels", "comp", "--task-timeout", "nan"],
         "task_timeout"),
        (["serve", "--state-dir", "unused", "--task-timeout", "-1"],
         "task_timeout"),
        (["sweep", "--kernels", "comp", "--scale", "0"], "scale"),
        (["run", "comp", "--scale", "-2"], "scale"),
        (["sweep", "--kernels", "comp", "--scale", "1", "--seed", "-1"],
         "seed"),
        (["run", "comp", "--seed", "-1"], "seed"),
        (["client", "submit", "--seed", "-1"], "seed"),
        (["sweep", "--kernels", "--seed", "-1"], "seed"),
    ])
    def test_nonsense_engine_or_workload_exits_with_the_field(
            self, capsys, argv, field):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {field} must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--backend", "vector"],
        ["figure4", "--backend", "lowered"],
        ["serve", "--backend", "lowered", "--state-dir", "x"],
    ])
    def test_backend_knobs_are_gone(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    @pytest.mark.parametrize("command", [
        ["sweep", "--kernels", "comp"],
        ["figure4", "--kernels", "comp"],
        ["serve", "--state-dir", "unused"],
    ])
    def test_max_pool_restarts_is_gone(self, capsys, command):
        """The restart budget is a constant of the supervisor."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(command + ["--max-pool-restarts", "9"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --max-pool-restarts" in \
            capsys.readouterr().err

    def test_resume_failed_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["sweep", "--resume-failed", "skip"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --resume-failed" in \
            capsys.readouterr().err

    def test_no_check_is_gone(self, capsys):
        """Every build is verified; a client cannot ask the service not
        to.  The parser rejects the flag before any request is made."""
        with pytest.raises(SystemExit) as excinfo:
            main(["client", "--server", "http://127.0.0.1:1", "submit",
                  "--kernels", "comp", "--no-check"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --no-check" in \
            capsys.readouterr().err


@pytest.fixture(scope="module")
def filled_cache(tmp_path_factory):
    """A cache directory holding one result and one trace."""
    cache_dir = tmp_path_factory.mktemp("cache")
    assert main(["sweep", "--kernels", "comp", "--isas", "mom",
                 "--scale", "1", "--cache-dir", str(cache_dir)]) == 0
    return cache_dir


class TestBoundary:
    def test_uncreatable_cache_dir_exits_2_before_any_build(
            self, capsys, tmp_path, build_counter):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(SystemExit) as excinfo:
            main(["figure4", "--kernels", "comp", "--scale", "1",
                  "--cache-dir", str(blocker / "x")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: --cache-dir" in err and "Traceback" not in err
        assert build_counter == []

    def test_serve_bad_jobs_exits_2_before_writing(self, capsys, tmp_path):
        """``repro serve`` is checked by building its service, which
        rejects the setting before it creates the state directory."""
        state = tmp_path / "state"
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--state-dir", str(state), "--jobs", "0"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: jobs must be >= 1" in err and "Traceback" not in err
        assert not state.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--max-queue", "0"], "--max-queue must be an integer >= 1"),
        (["--max-queue", "-4"], "--max-queue must be an integer >= 1"),
        (["--max-poll-seconds", "-1"],
         "--max-poll-seconds must be a finite number >= 0"),
        (["--max-poll-seconds", "nan"],
         "--max-poll-seconds must be a finite number >= 0"),
        (["--port", "70000"], "--port must be an integer in 0..65535"),
        (["--state-dir", "/proc/nope/x"], "--state-dir '/proc/nope/x' "
                                          "cannot be created"),
    ])
    def test_nonsense_serve_flag_exits_2_before_binding(
            self, capsys, tmp_path, monkeypatch, flags, message):
        import repro.sweep.service

        def refuse(*args, **kwargs):
            raise AssertionError("the server must not start")

        monkeypatch.setattr(repro.sweep.service, "ServiceHTTPServer", refuse)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--state-dir", str(tmp_path / "state")] + flags)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ["--max-mb", "nan"], ["--max-mb", "inf"], ["--max-mb", "-1"],
        ["--max-mb", "1e308"], ["--max-age-days", "-1"],
        ["--max-age-days", "nan"],
    ], ids=" ".join)
    def test_nonsense_gc_bound_exits_2_and_evicts_nothing(
            self, capsys, filled_cache, flags):
        before = sorted(filled_cache.rglob("*"))
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "gc", "--cache-dir", str(filled_cache)] + flags)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {flags[0]} must be >= 0 and finite" in err
        assert "Traceback" not in err
        assert sorted(filled_cache.rglob("*")) == before

    def test_abbreviated_jobs_is_not_jobs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure4", "--kernels", "comp", "--job", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --job 2" in capsys.readouterr().err

    def test_abbreviated_cache_is_not_cache_dir(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--kernels", "comp", "--cache", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --cache" in capsys.readouterr().err


class TestFailedPoints:
    @pytest.mark.parametrize("argv, failed", [
        (["figure4", "--ways", "1", "4"], 2),
        (["figure5", "--latencies", "1", "12", "50"], 3),
        (["tables"], 1),
    ], ids=["figure4", "figure5", "tables"])
    def test_failed_points_are_listed_and_exit_1(self, capsys, monkeypatch,
                                                 argv, failed):
        """A figure cannot be drawn without its points: the command lists
        the failed ones as ``repro sweep`` does and exits 1, with no
        traceback."""
        monkeypatch.setenv(FAULT_ENV, json.dumps({"faults": [
            {"kind": "raise", "kernel": "comp", "isa": "mmx",
             "times": -1}]}))
        assert main(argv + ["--kernels", "comp", "--scale", "1"]) == 1
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        rows = [line for line in out.splitlines() if "FAILED" in line]
        assert len(rows) == failed
        assert all(row.split()[:2] == ["comp", "mmx"]
                   and row.endswith("failed: InjectedFault (exception)")
                   for row in rows)
        assert f"{failed} point(s) failed" in out

    def test_run_lists_failed_builds_and_exits_1(self, capsys, monkeypatch):
        """``repro run`` simulates through the engine like the figures: a
        build that fails its golden check is a failed point, listed, and
        the command exits 1 with the footer and no traceback."""
        from repro.kernels.base import ISA_VARIANTS, KernelBuildResult

        monkeypatch.setattr(KernelBuildResult, "correct",
                            property(lambda self: False))
        assert main(["run", "comp", "--scale", "1"]) == 1
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        rows = [line for line in out.splitlines() if "FAILED" in line]
        assert [row.split()[:2] for row in rows] == [
            ["comp", isa] for isa in ISA_VARIANTS]
        assert all(row.endswith("failed: AssertionError (exception)")
                   for row in rows)
        assert out.startswith("4 point(s) failed; nothing to report:")
        assert "\n[sweep] 0 point(s) simulated, 0 from cache, 4 failed" in out


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "idct" in out and "ltpsfilt" in out

    def test_run(self, capsys):
        assert main(["run", "h2v2", "--scale", "1"]) == 0
        out = capsys.readouterr().out
        assert "MOM" in out and "IPC" in out

    def test_run_with_machine_options(self, capsys):
        assert main(["run", "comp", "--scale", "1", "--way", "2",
                     "--mem-latency", "12"]) == 0
        out = capsys.readouterr().out
        assert "2-way" in out and "12-cycle" in out

    def test_figure4_subset(self, capsys):
        assert main(["figure4", "--kernels", "comp", "--ways", "1", "4",
                     "--scale", "1"]) == 0
        out = capsys.readouterr().out
        assert "way 1" in out and "comp" in out

    def test_figure5_subset(self, capsys):
        assert main(["figure5", "--kernels", "h2v2", "--latencies", "1", "50",
                     "--scale", "1"]) == 0
        out = capsys.readouterr().out
        assert "lat 50" in out and "Slow-down" in out

    def test_tables_subset(self, capsys):
        assert main(["tables", "--kernels", "addblock", "--scale", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 7" in out and "MDMX" in out

    def test_sweep_subset(self, capsys):
        assert main(["sweep", "--kernels", "comp", "--isas", "scalar", "mom",
                     "--ways", "1", "4", "--scale", "1"]) == 0
        out = capsys.readouterr().out
        assert "comp" in out and "way4" in out and "mom" in out

    def test_sweep_cache_flags(self, capsys, tmp_path):
        argv = ["sweep", "--kernels", "comp", "--isas", "mom", "--scale", "1",
                "--jobs", "2", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 point(s) simulated, 0 from cache" in out
        assert "1 trace build(s)" in out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 point(s) simulated, 1 from cache" in out
        assert "0 trace hit(s), 0 trace build(s)" in out

    def test_sweep_seed_applies_without_scale(self, capsys, tmp_path):
        """--seed must flow into the workload spec even when each kernel
        keeps its default scale (regression: it used to be ignored)."""
        import json
        import os

        from repro.kernels.registry import get_kernel

        assert main(["sweep", "--kernels", "comp", "--isas", "scalar",
                     "--seed", "7", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        entries = []
        for root, _dirs, files in os.walk(tmp_path):
            for name in files:
                with open(os.path.join(root, name)) as f:
                    entries.append(json.load(f))
        results = [e for e in entries if "sim" in e]
        traces = [e for e in entries if "trace" in e]
        assert len(results) == 1
        assert len(traces) == 1, "cache-dir sweeps also populate the trace cache"
        for entry in results + traces:
            assert entry["workload"]["seed"] == 7
            assert entry["workload"]["scale"] == get_kernel("comp").default_scale


class TestBackendFlag:
    @pytest.mark.parametrize("backend", ["object", "lowered", "vector"])
    def test_sweep_backends_print_identical_numbers(self, capsys, backend):
        """There is no backend flag: a group of VECTOR_MIN_BATCH configs is
        routed to the vector backend and prints the numbers every backend
        computes for it."""
        from repro.experiments.runner import build_kernel_variant
        from repro.timing.config import MachineConfig
        from repro.timing.dispatch import resolve_execution, simulate_batch
        from repro.timing.vector import VECTOR_MIN_BATCH
        from repro.workloads.generators import WorkloadSpec

        latencies = list(range(1, VECTOR_MIN_BATCH + 1))
        assert main(["sweep", "--kernels", "comp", "--isas", "mom",
                     "--ways", "4", "--latencies", *map(str, latencies),
                     "--scale", "1"]) == 0
        rows = [line.split() for line in
                capsys.readouterr().out.splitlines()[1:] if line]
        trace = build_kernel_variant(
            "comp", "mom", spec=WorkloadSpec(scale=1)).trace
        assert resolve_execution("auto", len(latencies),
                                 len(trace)) == "vector"
        configs = [MachineConfig.for_way(4, mem_latency=lat)
                   for lat in latencies]
        want = simulate_batch(trace, configs, backend=backend)
        assert [(int(r[3]), int(r[4]), int(r[5])) for r in rows] == [
            (c.mem_latency, sim.cycles, sim.instructions)
            for c, sim in zip(configs, want)]


class TestCacheStatsJson:
    def test_stats_json_round_trips(self, capsys, tmp_path):
        import json

        assert main(["sweep", "--kernels", "comp", "--isas", "mom",
                     "--scale", "1", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache_dir"] == str(tmp_path)
        assert payload["entries"] == {"results": 1, "traces": 1}
        assert payload["total_entries"] == 2
        assert payload["total_bytes"] == sum(payload["bytes"].values())
        assert "lowered_entries" not in payload
        assert payload["oldest_mtime"] <= payload["newest_mtime"]

    def test_stats_human_format_unchanged_without_flag(self, capsys,
                                                       tmp_path):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cache root:" in out


class TestStreamInstrRate:
    def test_stream_jsonl_reports_sim_instr_per_sec(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "points.jsonl"
        assert main(["sweep", "--kernels", "comp", "--isas", "scalar",
                     "--scale", "1", "--stream-jsonl", str(out_path)]) == 0
        capsys.readouterr()
        (line,) = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert line["sim_instr_per_sec"] > 0

    def test_cached_points_report_zero_rate(self, capsys, tmp_path):
        import json

        cache = tmp_path / "cache"
        argv = ["sweep", "--kernels", "comp", "--isas", "mom", "--scale",
                "1", "--cache-dir", str(cache)]
        assert main(argv) == 0
        out_path = tmp_path / "warm.jsonl"
        assert main(argv + ["--stream-jsonl", str(out_path)]) == 0
        capsys.readouterr()
        (line,) = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert line["cached"] is True
        assert line["sim_instr_per_sec"] == 0
