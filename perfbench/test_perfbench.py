"""Self-tests of the benchmark's own code: span arithmetic, wrapper
restoration, the metric names, and a tiny smoke of every workload
through the same code path as a full run (marked ``slow``: each starts
many child processes)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
from spans import Span, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _tree():
    # root [0, 10]: a [1, 4] holding a1 [2, 3]; b [5, 9]
    return [Span("bench.pass", 0.0, 10.0),
            Span("cli.main", 1.0, 4.0, parent=0),
            Span("kernels.emit", 2.0, 3.0, parent=1, attrs={"instr": 7}),
            Span("timing.simulate", 5.0, 9.0, parent=0,
                 attrs={"backend": "vector", "isa": "mom", "configs": 64,
                        "instr": 640})]


def test_self_times_subtract_children():
    assert spans.self_times(_tree()) == [3.0, 2.0, 1.0, 4.0]
    assert sum(spans.self_times(_tree())) == 10.0


def test_self_times_count_overlapping_children_once():
    tree = [Span("sweep.engine.run", 0.0, 10.0),
            Span("kernels.emit", 1.0, 5.0, parent=0),
            Span("kernels.emit", 3.0, 7.0, parent=0),
            Span("kernels.emit", 9.0, 12.0, parent=0)]  # clipped to 10
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_thread_sums_agree_per_thread():
    tree = _tree() + [Span("sweep.engine.run", 2.0, 6.0, thread=1),
                      Span("trace.lower", 3.0, 4.0, parent=4, thread=1)]
    sums = spans.thread_sums(tree)
    assert sums[0] == (10.0, 10.0)
    assert sums[1] == (4.0, 4.0)


def test_layer_metrics_fold_self_times_and_counts():
    m = spans.layer_metrics(_tree())
    assert m["bench.harness_s"] == 3.0
    assert m["cli.self_s"] == 2.0
    assert m["kernels.emit_s"] == 1.0
    assert m["kernels.builds"] == 1 and m["kernels.emitted_instr"] == 7
    assert m["timing.simulate_s"] == m["timing.simulate_s.vector"] == 4.0
    assert m["timing.simulate_s.mom"] == 4.0
    assert m["timing.simulate_s.lowered"] == m["timing.simulate_s.scalar"] == 0
    assert m["timing.sim_instr_per_s"] == 160.0
    assert m["sweep.cache.hit_ratio"] == 0.0


def _named_targets():
    import repro.cli
    import repro.timing
    from repro.kernels.base import KernelBuildResult
    from repro.sweep.cache import ResultCache
    from repro.sweep.engine import SweepEngine
    from repro.sweep.journal import SweepJournal
    from repro.sweep.tracecache import TraceCache
    from repro.timing import dispatch
    from repro.trace.container import Trace

    return [(dispatch, "simulate_batch"), (repro.timing, "simulate_batch"),
            (Trace, "lower"), (ResultCache, "get"), (ResultCache, "put"),
            (TraceCache, "get"), (TraceCache, "put"),
            (SweepJournal, "record"), (SweepJournal, "load"),
            (SweepEngine, "run"), (KernelBuildResult, "correct"),
            (repro.cli, "format_speedup_table")]


def test_wrappers_trace_a_run_and_are_restored_by_identity(tmp_path):
    from repro.sweep import SweepEngine, SweepPoint
    from repro.timing.config import MachineConfig
    from repro.workloads.generators import WorkloadSpec

    targets = _named_targets()
    before = [vars(owner)[attr] for owner, attr in targets]
    tracer = Tracer()
    spans.install_layers(tracer)
    records = tracer.patched
    try:
        assert all(vars(owner)[attr] is not original
                   for (owner, attr), original in zip(targets, before))
        points = [SweepPoint(kernel="comp", isa=isa,
                             config=MachineConfig.for_way(way),
                             spec=WorkloadSpec(scale=1, seed=5))
                  for isa in ("scalar", "mom") for way in (1, 4)]
        engine = SweepEngine(cache_dir=str(tmp_path / "cache"),
                             journal=str(tmp_path / "journal.jsonl"))
        with tracer.span("bench.pass"):
            engine.run(points)
    finally:
        tracer.uninstall()
    assert spans.unrestored(records) == []
    assert [vars(owner)[attr] for owner, attr in targets] == before
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in zip(targets, before))
    m = spans.layer_metrics(tracer.spans)
    assert m["kernels.builds"] == 2 and m["timing.batches"] == 2
    assert m["timing.configs"] == 4 and m["sweep.cache.puts"] == 4
    assert m["sweep.journal.records"] == 4 and m["sweep.engine.groups"] == 2
    (own, roots), = spans.thread_sums(tracer.spans).values()
    assert own == pytest.approx(roots)


def test_metric_names_in_benchmark_json_are_well_formed():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.slow
@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_prints_every_metric(workload, trace):
    """Also fails when the run computes a metric BENCHMARK.json does not
    list: that is a problem, which makes the run incorrect."""
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = bench["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _bench("--workload", "paper-cold", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
