#!/usr/bin/env python3
"""End-to-end benchmark of what ``repro`` users run.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the real CLI in child processes with tracing off and
reports the end-to-end metrics; ``--trace 1`` runs the same inputs in this
process with every layer wrapped in spans and reports the per-layer
metrics.  Either way the outputs are checked, a results file with the host
record is written under ``.perfbench/results/``, and the last line of
stdout is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Bytecode of this process goes beside the children's, not into the
# checkout's __pycache__ directories.
sys.pycache_prefix = str(Path(__file__).resolve().parent.parent
                         / ".perfbench" / "pycache")

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from typing import Any, Callable, Dict, List, Optional, Tuple  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import median  # noqa: E402
from workloads import FULL, SMOKE, WORKLOADS, Sizes  # noqa: E402

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import repro.cli; "
                 "print(time.perf_counter() - t)")


class Tally:
    """Everything a run attempted, what failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def process(self, proc: harness.Proc, what: str) -> None:
        self.attempted += 1
        if proc.exit_code != 0:
            self.failed += 1
            self.problems.append(f"{what} exited {proc.exit_code}: "
                                 f"{proc.stderr.strip()[-300:]}")

    def passes(self, results: List[workloads.PassResult]) -> None:
        for result in results:
            self.attempted += result.attempted
            self.failed += result.failed
            self.problems.extend(result.problems)


# ----------------------------------------------------------------------
# Set-up shared by both modes.

class Workload:
    """One workload's set-up and pass function, for either mode."""

    def __init__(self, name: str, sizes: Sizes, sandbox: harness.Sandbox,
                 seed: int, tally: Tally) -> None:
        self.name, self.sizes, self.sandbox = name, sizes, sandbox
        self.seed, self.tally = seed, tally
        self.golden = checks.load_golden()
        self.warm_cache: Optional[str] = None
        self.cold_outputs: Dict[str, str] = {}
        self.reference: List[Dict[str, Any]] = []

    def prepare(self) -> None:
        """Untimed: fill paper-warm's cache; compute service-jobs'
        reference result in-process."""
        if self.name == "paper-warm":
            self.warm_cache = self.sandbox.mkdtemp("warm-cache-")
            prepass = workloads.paper_pass(
                self.sizes, self.sandbox,
                workloads.SubprocessRunner(self.sandbox),
                cache=self.warm_cache)
            self.tally.passes([prepass])
            self.cold_outputs = prepass.outputs
        elif self.name == "service-jobs":
            self.reference = workloads.reference_rows(
                workloads.job_submission(self.sizes, self.seed, 0))

    def run_pass(self, runner, in_process: bool = False, tracer=None,
                 jobs: Optional[int] = None) -> workloads.PassResult:
        if self.name == "paper-cold":
            return workloads.paper_pass(self.sizes, self.sandbox, runner,
                                        tracer=tracer)
        if self.name == "paper-warm":
            return workloads.paper_pass(self.sizes, self.sandbox, runner,
                                        cache=self.warm_cache, warm=True,
                                        tracer=tracer)
        if self.name == "dense-grid":
            return workloads.grid_pass(self.sizes, self.sandbox, runner,
                                       self.seed, jobs=jobs, tracer=tracer)
        return workloads.service_pass(self.sizes, self.sandbox, self.seed,
                                      in_process=in_process, tracer=tracer)

    def check(self, results: List[workloads.PassResult]) -> None:
        """Golden cycles, identical outputs, the service reference."""
        problems = self.tally.problems
        for i, result in enumerate(results):
            if self.name != "service-jobs":
                problems += checks.golden_problems(result.records, self.golden,
                                                   f"pass {i}")
            problems += checks.compare_outputs(results[0].outputs,
                                               result.outputs, f"pass {i}")
            if self.cold_outputs:
                problems += checks.compare_outputs(
                    {k: checks.without_footer(v)
                     for k, v in self.cold_outputs.items()},
                    {k: checks.without_footer(v)
                     for k, v in result.outputs.items()},
                    f"warm pass {i} vs the cold pre-pass")
        if self.name == "service-jobs":
            problems += checks.service_reference_problems(
                results[0].fetched, self.reference)
        if not self.sandbox.canary_intact():
            problems.append("~/.cache/repro was written")


def setup_sample(workload: Workload, i: int) -> float:
    """One set-up time: ``repro --version`` (interpreter start plus the
    ``repro.cli`` import), or ``repro serve`` to its first ``/readyz``."""
    sandbox, tally = workload.sandbox, workload.tally
    if workload.name == "service-jobs":
        tally.attempted += 1
        return workloads.measure_service_ready(sandbox)
    proc = harness.run_process(harness.repro_argv("--version"), sandbox,
                               f"setup{i}")
    tally.process(proc, "repro --version")
    return proc.wall_s


def loop_for(seconds: float, body: Callable[[], None]) -> None:
    """Run ``body`` at least once, then again while one more run of the
    last one's length still ends within ``seconds``."""
    started = time.perf_counter()
    while True:
        began = time.perf_counter()
        body()
        now = time.perf_counter()
        if now - started + (now - began) > seconds:
            return


# ----------------------------------------------------------------------
# --trace 0: the end-to-end metrics.

class HostSpeed:
    """Yardstick samples taken between the timed steps of a run.

    The shared host's speed drifts over minutes, and every time a run
    measures drifts with it, CPU time included, so runs of the same code
    minutes apart differ by more than the bounds allow.  Each timed
    step is therefore bracketed by :func:`harness.yardstick` samples, and
    its times are scaled by ``YARDSTICK_REF_S`` over the mean of the two:
    they are reported in seconds at the speed of the host the benchmark
    was sized on.
    """

    def __init__(self, sandbox: harness.Sandbox, tally: Tally) -> None:
        self.sandbox, self.tally = sandbox, tally
        self.samples: List[float] = []
        self._sample()  # warm-up: the first run also fills NumPy's bytecode
        self.samples.clear()
        self.mark()

    def _sample(self) -> float:
        procs = harness.yardstick(self.sandbox)
        for proc in procs:
            self.tally.process(proc, "the yardstick")
        return statistics.fmean(proc.wall_s for proc in procs)

    def mark(self) -> None:
        self.samples.append(self._sample())

    def step(self, body: Callable[[], Any]) -> Tuple[Any, float]:
        """``body()`` and the scale of the times it measured."""
        value = body()
        self.mark()
        return value, (harness.YARDSTICK_REF_S
                       / statistics.fmean(self.samples[-2:]))


def run_untraced(workload: Workload, seconds: float
                 ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    sandbox, tally = workload.sandbox, workload.tally
    version = harness.run_process(harness.repro_argv("--version"), sandbox,
                                  "version")
    tally.process(version, "repro --version")
    speed = HostSpeed(sandbox, tally)
    first, scale = speed.step(lambda: [
        setup_sample(workload, i) for i in range(workload.sizes.setup_samples)])
    setup: List[Tuple[float, float]] = [(s, scale) for s in first]
    workload.prepare()
    speed.mark()
    runner = workloads.SubprocessRunner(sandbox)
    passes: List[Tuple[workloads.PassResult, float]] = []

    def one_pass() -> None:
        # A set-up sample after every pass too: samples spread over the
        # whole run follow the host's drift as the passes do, where a
        # burst during set-up alone would move their median.
        (result, setup_s), scale = speed.step(lambda: (
            workload.run_pass(runner), setup_sample(workload, len(setup))))
        passes.append((result, scale))
        setup.append((setup_s, scale))

    loop_for(seconds, one_pass)
    results = [r for r, _ in passes]
    tally.passes(results)
    workload.check(results)
    metrics = _end_to_end(workload.name, passes, setup)
    detail = {"banner": version.stdout.strip(),
              "setup_samples": [s for s, _ in setup],
              "yardstick_samples": speed.samples,
              "unscaled": _end_to_end(
                  workload.name, [(r, 1.0) for r in results],
                  [(s, 1.0) for s, _ in setup]),
              "passes": [dict(_pass_summary(r), scale=k) for r, k in passes]}
    return metrics, detail


def _end_to_end(name: str, passes: List[Tuple[workloads.PassResult, float]],
                setup: List[Tuple[float, float]]) -> Dict[str, float]:
    """The end-to-end metrics of ``passes``, each time times its scale."""
    if name == "service-jobs":
        latencies = [lat * k for r, k in passes for lat in r.latencies]
    else:
        # A CLI pass runs commands of unequal length, and the median over
        # all of them jumps between two commands' durations from run to
        # run; the median over passes of a pass's mean command does not.
        latencies = [statistics.fmean(r.latencies) * k for r, k in passes]
    return {
        "setup_s": median(s * k for s, k in setup),
        "wall_s": median(r.wall_s * k for r, k in passes),
        "cpu_s": median(r.cpu_s * k for r, k in passes),
        "sim_instr_per_s": median(r.instructions / (r.wall_s * k)
                                  for r, k in passes),
        "peak_rss_mb": median(r.peak_rss_mb for r, _ in passes),
        "job_latency_p50_s": median(latencies),
    }


def _pass_summary(result: workloads.PassResult) -> Dict[str, Any]:
    return {"wall_s": result.wall_s, "cpu_s": result.cpu_s,
            "peak_rss_mb": result.peak_rss_mb,
            "latencies": result.latencies,
            "instructions": result.instructions, **result.extra}


# ----------------------------------------------------------------------
# --trace 1: the per-layer metrics.

def _in_process_pass(workload: Workload,
                     install: Callable[[spans.Tracer], None],
                     jobs: Optional[int] = None
                     ) -> Tuple[workloads.PassResult, spans.Tracer]:
    """One in-process pass with ``install``'s wrappers (all of them, or
    only the engine's), every one removed after and checked by identity."""
    tracer = spans.Tracer()
    install(tracer)
    records = tracer.patched
    try:
        result = workload.run_pass(workloads.InProcessRunner(tracer),
                                   in_process=True, tracer=tracer, jobs=jobs)
    finally:
        tracer.uninstall()
    stale = spans.unrestored(records)
    if stale:
        workload.tally.problems.append(f"wrappers not restored: {stale}")
    return result, tracer


def run_traced(workload: Workload, seconds: float
               ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    sandbox, tally = workload.sandbox, workload.tally
    import repro.cli
    from repro.timing.vector import VECTOR_MIN_BATCH, effective_min_batch

    banner = repro.cli.version_string()
    imports = []
    for i in range(workload.sizes.setup_samples):
        proc = harness.run_process([sys.executable, "-c", _IMPORT_PROBE],
                                   sandbox, f"import{i}")
        tally.process(proc, "import repro.cli")
        imports.append(float(proc.stdout) if proc.exit_code == 0 else 0.0)
    workload.prepare()

    jobs = 1 if workload.name == "dense-grid" else None
    engine_only = spans.install_engine_only
    warmup, _ = _in_process_pass(workload, engine_only, jobs)
    traced: List[Tuple[workloads.PassResult, spans.Tracer]] = []
    untraced: List[Tuple[workloads.PassResult, spans.Tracer]] = []

    def pair() -> None:
        traced.append(_in_process_pass(workload, spans.install_layers, jobs))
        untraced.append(_in_process_pass(workload, engine_only, jobs))

    loop_for(seconds, pair)
    parallel = (_in_process_pass(workload, engine_only)
                if workload.name == "dense-grid" else None)

    results = ([warmup] + [r for r, _ in traced + untraced]
               + ([parallel[0]] if parallel else []))
    tally.passes(results)
    workload.check(results)

    chosen, tracer = sorted(traced, key=lambda rt: rt[0].wall_s)[
        (len(traced) - 1) // 2]
    metrics = spans.layer_metrics(tracer.spans)
    root = next(s for s in tracer.spans if s.name == "bench.pass")
    metrics.update({
        "cli.import_s": median(imports),
        "sweep.cache.bytes": chosen.extra.get("cache_bytes", 0),
        "sweep.tracecache.bytes": chosen.extra.get("tracecache_bytes", 0),
        "sweep.journal.bytes": chosen.extra.get("journal_bytes", 0),
        "sweep.service.state_bytes": chosen.extra.get("state_bytes", 0),
        "bench.traced_wall_s": root.duration,
        "bench.untraced_wall_s": median(r.wall_s for r, _ in untraced),
        "bench.trace_overhead_s": (median(r.wall_s for r, _ in traced)
                                   - median(r.wall_s for r, _ in untraced)),
    })
    metrics.update(_supervisor_metrics(untraced, parallel))
    _check_trace(workload, tracer, metrics)
    if effective_min_batch() != VECTOR_MIN_BATCH:
        tally.problems.append("the ~/.cache/repro calibration was read")
    detail = {"banner": banner, "import_samples": imports,
              "traced_passes": [_pass_summary(r) for r, _ in traced],
              "untraced_passes": [_pass_summary(r) for r, _ in untraced],
              "spans": [s.to_dict() for s in tracer.spans]}
    return metrics, detail


def _supervisor_metrics(untraced, parallel) -> Dict[str, float]:
    """The engine's public counters after the in-process ``--jobs 2``
    pass, and serial engine time over twice the parallel engine time."""
    if parallel is None:
        return {}
    serial_s = median(sum(s.duration for s in spans.engine_runs(t.spans))
                      for _, t in untraced)
    runs = spans.engine_runs(parallel[1].spans)
    parallel_s = sum(s.duration for s in runs)
    out = {f"sweep.supervisor.{k}": sum(s.attrs[k] for s in runs)
           for k in ("pool_tasks", "retries", "pool_restarts", "timeouts")}
    out["sweep.supervisor.parallel_eff"] = serial_s / (2 * parallel_s)
    return out


def _check_trace(workload: Workload, tracer: spans.Tracer,
                 metrics: Dict[str, float]) -> None:
    """The traced pass's own consistency: self times add up per thread,
    spans count what the engine counted, paper groups stayed lowered."""
    problems = workload.tally.problems
    for thread, (own, roots) in spans.thread_sums(tracer.spans).items():
        if abs(own - roots) > 1e-6 * max(roots, 1.0):
            problems.append(f"self times of thread {thread} sum to {own}, "
                            f"its root spans to {roots}")
    runs = spans.engine_runs(tracer.spans)
    builds = sum(s.attrs["builds"] for s in runs)
    if metrics.get("kernels.builds", 0) != builds:
        problems.append(f"{metrics.get('kernels.builds', 0)} build spans, "
                        f"engine counted {builds}")
    if any(s.attrs["failures"] for s in runs):
        problems.append("the traced pass had failed points")
    if (workload.name.startswith("paper")
            and metrics["timing.simulate_s.vector"] > 0):
        problems.append("a paper group ran on the vector backend")


# ----------------------------------------------------------------------

def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep starting passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few points per command (self-tests)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        harness.require_checkout()
    except harness.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    loadavg = os.getloadavg()
    sandbox = harness.Sandbox(f"{args.workload}-s{args.seed}-t{args.trace}")
    sandbox.adopt_env()
    tally = Tally()
    workload = Workload(args.workload, SMOKE if args.smoke else FULL,
                        sandbox, args.seed, tally)
    try:
        harness.precompile(sandbox)
        mode = run_traced if args.trace else run_untraced
        metrics, detail = mode(workload, args.seconds)
    finally:
        sandbox.close()
    metric_units = listed_metrics("per_layer" if args.trace else "end_to_end")
    unlisted = sorted(set(metrics) - set(metric_units))
    if unlisted:
        tally.problems.append(f"metrics missing from BENCHMARK.json: "
                              f"{unlisted}")
    values = {name: float(metrics.get(name, 0.0)) for name in metric_units}
    host = harness.host_record(detail.pop("banner"), loadavg)
    correct = not tally.problems and tally.failed == 0
    _write_results(args, host, values, tally, detail)
    print(f"host: {json.dumps(host, sort_keys=True)}")
    for problem in tally.problems:
        print(f"problem: {problem}")
    for name, value in values.items():
        print(f"{name:32s} {value:16.6f} {metric_units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": metric_units[name]}
                    for name, value in values.items()}}))
    return 0


def listed_metrics(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` lists: the metrics a run prints."""
    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def _write_results(args, host, values, tally, detail) -> None:
    out = harness.WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    size = "-smoke" if args.smoke else ""
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}{size}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "host": host, "metrics": values, "attempted": tally.attempted,
        "failed": tally.failed, "problems": tally.problems, **detail},
        indent=1, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
