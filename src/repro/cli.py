"""Command-line interface: ``python -m repro <command>``.

The CLI exposes the experiment drivers without writing any Python:

* ``list``     — list the available kernels and their descriptions.
* ``run``      — build and simulate one kernel variant and print its metrics.
* ``figure4``  — regenerate the Figure 4 speed-up table.
* ``figure5``  — regenerate the Figure 5 latency-tolerance table.
* ``tables``   — regenerate the Tables 1-9 breakdowns.
* ``sweep``    — run an arbitrary kernels x ISAs x widths x latencies sweep
  through the shared engine.
* ``cache``    — inspect / garbage-collect / clear the on-disk caches
  (``repro cache stats|gc|clear --cache-dir DIR``).
* ``serve``    — run the crash-tolerant HTTP sweep service on a durable
  ``--state-dir``: journal-backed recovery after a kill, idempotent
  submissions, a bounded queue with backpressure, per-job deadlines and
  a graceful SIGTERM drain (see ``docs/service.md``).
* ``client``   — talk to a running service: ``submit`` a sweep, ``watch``
  its live progress, ``fetch`` its results, ``list`` its jobs.  Retries
  with deterministic backoff and honours 429 ``Retry-After``.
* ``calibrate`` — measure the vector backend's loop-vs-vector cut-over on
  this machine and persist it for the ``auto`` backend rule
  (``~/.cache/repro/calibration.json`` or ``$REPRO_CALIBRATION``).

Every sweep-backed command accepts ``--jobs N`` (process-parallel
execution), ``--cache-dir DIR`` (on-disk result + trace caches; warm
re-runs do zero simulations, warm *misses* do zero trace builds; one JSON
file per result), ``--stream-jsonl PATH`` (append one JSON line per point as
it completes, including the sweep's cumulative simulated
instructions/second), ``--resume PATH`` (write-ahead journal: every
completed point is appended durably, and re-running with the same PATH
replays the journal instead of re-simulating — crash-safe sweeps),
``--resume-failed {retry,skip}`` (what a resume does with journaled
*failure* records), ``--task-timeout SECONDS`` / ``--max-pool-restarts N``
(supervised pool execution: hung-worker deadlines, bounded pool respawns
with backoff, poison-point quarantine — see ``docs/sweep-engine.md``) and
``--backend {auto,object,lowered,vector}`` (timing backend for the group
simulations; identical numbers, different wall time).  A live
``done/total`` progress line with the simulated instr/s rate is written
to stderr when it is a TTY, and ``repro cache stats --json`` emits the
cache statistics as one JSON object for scripting.

The streaming sinks are crash-safe: an engine exception, Ctrl-C or
SIGTERM still closes the JSONL stream (its last complete line intact) and
clears the TTY progress line, and an interrupted command run with
``--resume`` prints how to pick up where it stopped.  SIGTERM — what
``kill``, timeouts and process supervisors send — gets full parity with
Ctrl-C: the same teardown at a record boundary, the same resume hint, and
the conventional exit code 143 (128 + SIGTERM) instead of 130.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import time
from dataclasses import replace
from typing import Optional, Sequence

from repro.analysis.metrics import compute_metrics
from repro.analysis.report import (
    format_breakdown_table,
    format_latency_table,
    format_speedup_table,
)
from repro.experiments.figure4 import figure4_speedups, run_figure4
from repro.experiments.figure5 import figure5_cycles, figure5_slowdowns, run_figure5
from repro.experiments.runner import run_kernel_all_isas
from repro.experiments.tables import TABLE_NUMBERS, run_breakdown_tables
from repro.kernels.base import ISA_VARIANTS
from repro.kernels.registry import KERNELS, kernel_names
from repro.sweep import (PointResult, SweepEngine, SweepPoint, cache_stats,
                         clear_cache, gc_cache, resolve_spec)
from repro.timing.config import MachineConfig
from repro.timing.dispatch import BACKENDS
from repro.workloads.generators import WorkloadSpec

__all__ = ["add_sweep_arguments", "build_parser", "engine_from_args",
           "engine_summary", "main", "make_on_result", "stream_sinks",
           "version_string"]


def version_string() -> str:
    """The ``repro --version`` banner: package, model and builder versions."""
    import repro
    from repro.frontend.builders import BUILDER_VERSION
    from repro.timing.core import MODEL_VERSION

    return (f"repro {repro.__version__} "
            f"(timing model v{MODEL_VERSION}, front end v{BUILDER_VERSION})")


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the sweep engine "
                             "(default 1 = serial in-process)")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for the on-disk result + trace "
                             "caches (default: no caching)")
    parser.add_argument("--stream-jsonl", default=None, metavar="PATH",
                        help="append one JSON line per sweep point to PATH "
                             "as results complete")
    parser.add_argument("--resume", default=None, metavar="PATH",
                        help="write-ahead journal: append every completed "
                             "point to PATH and, on a re-run with the same "
                             "PATH, replay it instead of re-simulating "
                             "(crash-safe, resumable sweeps)")
    parser.add_argument("--resume-failed", default="retry",
                        choices=("retry", "skip"),
                        help="what --resume does with journaled failure "
                             "records: re-run those points (default) or "
                             "replay them as failures without re-running")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock deadline per worker-pool task; an "
                             "overdue task's worker is presumed hung, the "
                             "pool recycled and the task re-submitted "
                             "(default: no deadline)")
    parser.add_argument("--max-pool-restarts", type=int, default=None,
                        metavar="N",
                        help="worker-pool respawns (after crashes, hangs or "
                             "submit failures) before the run degrades to "
                             "serial execution (default 6)")
    parser.add_argument("--backend", default="auto", choices=list(BACKENDS),
                        help="timing backend for group simulations "
                             "(default auto: the NumPy vector batch "
                             "backend for large config groups, the "
                             "lowered interpreter otherwise; results are "
                             "identical across backends)")


def add_sweep_arguments(parser: argparse.ArgumentParser,
                        scale_positional: bool = True) -> argparse.ArgumentParser:
    """Attach the sweep-driver arguments shared with the example scripts:
    an optional positional ``scale`` plus ``--jobs`` / ``--cache-dir``."""
    if scale_positional:
        parser.add_argument("scale", type=int, nargs="?", default=None,
                            help="workload scale (default: kernel-specific)")
    _add_engine_flags(parser)
    return parser


def engine_from_args(args: argparse.Namespace) -> SweepEngine:
    """Build a :class:`SweepEngine` from parsed ``--jobs``/``--cache-dir``
    (plus ``--backend``/``--resume`` where the command
    defines them)."""
    return SweepEngine(jobs=args.jobs, cache_dir=args.cache_dir,
                       backend=getattr(args, "backend", "auto"),
                       journal=getattr(args, "resume", None),
                       task_timeout=getattr(args, "task_timeout", None),
                       max_pool_restarts=getattr(args, "max_pool_restarts",
                                                 None),
                       resume_failed=getattr(args, "resume_failed", "retry"))


def engine_summary(engine: SweepEngine) -> str:
    """One-line account of the engine's most recent run."""
    summary = (f"{engine.last_simulated} point(s) simulated, "
               f"{engine.last_cached} from cache")
    if engine.last_journaled:
        summary += f", {engine.last_journaled} from journal"
    if engine.last_failures:
        summary += f", {len(engine.last_failures)} failed"
        if engine.last_quarantined:
            summary += f" ({engine.last_quarantined} quarantined)"
    if engine.trace_cache is not None:
        summary += (f"; {engine.last_trace_hits} trace hit(s), "
                    f"{engine.last_trace_builds} trace build(s)")
    if engine.last_retries or engine.last_pool_restarts or engine.last_timeouts:
        summary += (f"; supervision: {engine.last_retries} retr"
                    f"{'y' if engine.last_retries == 1 else 'ies'}, "
                    f"{engine.last_pool_restarts} pool restart(s), "
                    f"{engine.last_timeouts} timeout(s)")
    if engine.last_fallback_reason:
        summary += (f"; worker pool unavailable, ran serially "
                    f"({engine.last_fallback_reason})")
    return summary


class _ProgressLine:
    """Live ``done/total`` progress on stderr (TTY only, ``\\r``-updated).

    Tracks the cumulative *simulated* instruction count (cache hits
    simulate nothing) and shows the resulting instructions/second — the
    number the backend choice moves, so ``--backend`` A/B runs can be read
    straight off the progress line.
    """

    def __init__(self, total: int, enabled: Optional[bool] = None) -> None:
        self.total = total
        self.done = 0
        self.cached = 0
        self.failed = 0
        self.sim_instructions = 0
        self.started = time.time()
        self.enabled = (sys.stderr.isatty() if enabled is None else enabled)

    @property
    def instr_per_sec(self) -> int:
        """Simulated instructions per wall-clock second so far."""
        elapsed = time.time() - self.started
        if elapsed <= 0 or not self.sim_instructions:
            return 0
        return round(self.sim_instructions / elapsed)

    def update(self, result: PointResult) -> None:
        self.done += 1
        if result.failure is not None:
            self.failed += 1
        elif result.cached:
            self.cached += 1
        else:
            self.sim_instructions += result.sim.instructions
        if not self.enabled:
            return
        elapsed = time.time() - self.started
        rate = (f", {self.instr_per_sec / 1e6:.2f}M instr/s"
                if self.sim_instructions else "")
        failed = f", {self.failed} failed" if self.failed else ""
        sys.stderr.write(
            f"\r[sweep] {self.done}/{self.total} point(s) done "
            f"({self.cached} cached{failed}, {elapsed:.1f}s{rate}) "
            f"last: {result.kernel}/{result.isa}\x1b[K")
        sys.stderr.flush()

    def finish(self, ok: bool = True) -> None:
        """Terminate the progress line (idempotent).

        On success the in-place line is committed with a newline; on
        failure it is *cleared* instead, so a traceback or resume hint
        never lands appended to a stale ``\\r`` line.
        """
        if not self.enabled or not self.done:
            return
        self.enabled = False  # make a second call (finally + except) a no-op
        sys.stderr.write("\n" if ok else "\r\x1b[K")
        sys.stderr.flush()


def make_on_result(args: argparse.Namespace, total: int,
                   engine: Optional[SweepEngine] = None):
    """Build the streaming ``on_result`` callback a command should pass to
    its experiment driver, honouring ``--stream-jsonl`` and TTY progress.

    Returns ``(on_result, finish)`` — call ``finish()`` after the sweep
    (``finish(ok=False)`` when it raised) to close the JSONL file and
    terminate the progress line; both are safe to call twice.
    ``on_result`` is ``None`` when neither sink is active.  Commands
    should prefer the :func:`stream_sinks` context manager, which calls
    ``finish`` correctly on every exit path.

    With an ``engine``, every stream record also carries the cumulative
    supervision telemetry (``retries``/``pool_restarts``/``timeouts``/
    ``quarantined``) at the moment the point completed.
    """
    progress = _ProgressLine(total)
    stream_path = getattr(args, "stream_jsonl", None)
    stream = open(stream_path, "a", encoding="utf-8") if stream_path else None

    def on_result(result: PointResult) -> None:
        progress.update(result)
        if stream is not None:
            record = {
                "index": result.index,
                "kernel": result.kernel,
                "isa": result.isa,
                "config": result.point.config.name,
                "mem_latency": result.point.config.mem_latency,
                "cached": result.cached,
                "journaled": result.journaled,
                "trace_cached": result.trace_cached,
                # Cumulative simulated-instruction throughput of the sweep
                # at the moment this point completed (0 while everything
                # is still coming from the result cache).
                "sim_instr_per_sec": progress.instr_per_sec,
            }
            if result.failure is not None:
                record["failure"] = result.failure.to_dict()
            else:
                record.update({
                    "cycles": result.sim.cycles,
                    "instructions": result.sim.instructions,
                    "operations": result.sim.operations,
                    "ipc": result.sim.ipc,
                })
            if engine is not None:
                record.update({
                    "retries": engine.last_retries,
                    "pool_restarts": engine.last_pool_restarts,
                    "timeouts": engine.last_timeouts,
                    "quarantined": engine.last_quarantined,
                })
            # One write + flush per record: a crash mid-sweep leaves at
            # most one torn *trailing* line, which the journal/JSONL
            # readers detect and skip.
            stream.write(json.dumps(record, sort_keys=True) + "\n")
            stream.flush()

    def finish(ok: bool = True) -> None:
        progress.finish(ok=ok)
        if stream is not None and not stream.closed:
            stream.close()

    if stream is None and not progress.enabled:
        return None, finish
    return on_result, finish


@contextlib.contextmanager
def stream_sinks(args: argparse.Namespace, total: int,
                 engine: Optional[SweepEngine] = None):
    """Context manager over :func:`make_on_result`'s sinks.

    Yields the ``on_result`` callback (or ``None``) and guarantees the
    sinks are released on *every* exit path: normally on success, and with
    ``finish(ok=False)`` when the body raises (including
    ``KeyboardInterrupt``) — the JSONL stream is closed with its last
    complete line intact and the TTY progress line is cleared rather than
    left dangling under the traceback.
    """
    on_result, finish = make_on_result(args, total, engine=engine)
    try:
        yield on_result
    except BaseException:
        finish(ok=False)
        raise
    finish()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the MOM matrix SIMD ISA study (SC'99)",
    )
    parser.add_argument("--version", action="version", version=version_string())
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the available kernels")

    run_p = sub.add_parser("run", help="run one kernel on all four ISAs")
    run_p.add_argument("kernel", choices=kernel_names())
    run_p.add_argument("--way", type=int, default=4, help="issue width (default 4)")
    run_p.add_argument("--mem-latency", type=int, default=1,
                       help="memory latency in cycles (default 1)")
    run_p.add_argument("--scale", type=int, default=None,
                       help="workload scale (default: kernel-specific)")
    run_p.add_argument("--seed", type=int, default=1999, help="workload RNG seed")

    fig4_p = sub.add_parser("figure4", help="regenerate Figure 4")
    fig4_p.add_argument("--kernels", nargs="*", default=None, choices=kernel_names())
    fig4_p.add_argument("--ways", nargs="*", type=int, default=[1, 2, 4, 8])
    fig4_p.add_argument("--scale", type=int, default=None)
    _add_engine_flags(fig4_p)

    fig5_p = sub.add_parser("figure5", help="regenerate Figure 5")
    fig5_p.add_argument("--kernels", nargs="*", default=None, choices=kernel_names())
    fig5_p.add_argument("--latencies", nargs="*", type=int, default=[1, 12, 50])
    fig5_p.add_argument("--scale", type=int, default=None)
    _add_engine_flags(fig5_p)

    tables_p = sub.add_parser("tables", help="regenerate Tables 1-9")
    tables_p.add_argument("--kernels", nargs="*", default=None, choices=kernel_names())
    tables_p.add_argument("--way", type=int, default=4)
    tables_p.add_argument("--scale", type=int, default=None)
    _add_engine_flags(tables_p)

    sweep_p = sub.add_parser(
        "sweep", help="run a custom kernels x ISAs x widths x latencies sweep")
    sweep_p.add_argument("--kernels", nargs="*", default=None, choices=kernel_names())
    sweep_p.add_argument("--isas", nargs="*", default=list(ISA_VARIANTS),
                         choices=list(ISA_VARIANTS))
    sweep_p.add_argument("--ways", nargs="*", type=int, default=[4])
    sweep_p.add_argument("--latencies", nargs="*", type=int, default=[1])
    sweep_p.add_argument("--scale", type=int, default=None)
    sweep_p.add_argument("--seed", type=int, default=1999)
    _add_engine_flags(sweep_p)

    serve_p = sub.add_parser(
        "serve",
        help="run the crash-tolerant HTTP sweep service "
             "(see docs/service.md)")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="interface to bind (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8023,
                         help="TCP port to bind; 0 picks a free port and "
                              "prints it (default 8023)")
    serve_p.add_argument("--state-dir", required=True,
                         help="durable service state: job records and one "
                              "write-ahead journal per job; restarting on "
                              "the same directory resumes every unfinished "
                              "job without re-simulating journaled points")
    serve_p.add_argument("--max-queue", type=int, default=16,
                         help="bound on queued jobs; submissions over it "
                              "get HTTP 429 + Retry-After (default 16)")
    serve_p.add_argument("--max-poll-seconds", type=float, default=30.0,
                         help="server-side cap on any long-poll request's "
                              "wait (default 30)")
    serve_p.add_argument("--jobs", type=int, default=1,
                         help="worker processes per job's engine run "
                              "(default 1 = serial in-process)")
    serve_p.add_argument("--cache-dir", default=None,
                         help="result + trace cache root shared by every "
                              "job (default: no caching)")
    serve_p.add_argument("--backend", default="auto",
                         choices=list(BACKENDS),
                         help="timing backend for group simulations")
    serve_p.add_argument("--task-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per worker-pool task deadline (hung-worker "
                              "recovery; default: none)")
    serve_p.add_argument("--max-pool-restarts", type=int, default=None,
                         metavar="N",
                         help="pool respawns before a job's run degrades "
                              "to serial (default 6)")

    client_p = sub.add_parser(
        "client", help="talk to a running repro serve instance")
    client_p.add_argument("--server", default="http://127.0.0.1:8023",
                          help="service base URL "
                               "(default http://127.0.0.1:8023)")
    client_p.add_argument("--timeout", type=float, default=10.0,
                          help="per-request socket timeout (default 10)")
    client_p.add_argument("--retries", type=int, default=5,
                          help="attempts per request before giving up; "
                               "connection errors, 429 and 5xx retry with "
                               "deterministic backoff (default 5)")
    client_sub = client_p.add_subparsers(dest="client_command", required=True)
    submit_p = client_sub.add_parser(
        "submit", help="submit a sweep (idempotent: resubmitting the same "
                       "sweep attaches to the existing job)")
    submit_p.add_argument("--kernels", nargs="*", default=None,
                          choices=kernel_names())
    submit_p.add_argument("--isas", nargs="*", default=None,
                          choices=list(ISA_VARIANTS))
    submit_p.add_argument("--ways", nargs="*", type=int, default=[4])
    submit_p.add_argument("--latencies", nargs="*", type=int, default=[1])
    submit_p.add_argument("--scale", type=int, default=None)
    submit_p.add_argument("--seed", type=int, default=1999)
    submit_p.add_argument("--deadline-seconds", type=float, default=None,
                          help="wall-clock budget for the job; past it the "
                               "job fails at the next record boundary with "
                               "its completed points journaled (resubmit "
                               "with a longer deadline to continue)")
    submit_p.add_argument("--no-check", action="store_true",
                          help="skip functional result checking")
    submit_p.add_argument("--watch", action="store_true",
                          help="after submitting, stream the job's events "
                               "until it finishes (same as repro client "
                               "watch JOB)")
    watch_p = client_sub.add_parser(
        "watch", help="stream a job's events (one JSON line per completed "
                      "point) until it reaches a terminal state")
    watch_p.add_argument("job_id")
    fetch_p = client_sub.add_parser(
        "fetch", help="print a finished job's full results as JSON")
    fetch_p.add_argument("job_id")
    client_sub.add_parser("list", help="list the server's jobs")

    cal_p = sub.add_parser(
        "calibrate",
        help="measure the vector backend's batch cut-over on this machine "
             "and persist it for the auto backend rule")
    cal_p.add_argument("--path", default=None,
                       help="calibration file to write (default: "
                            "$REPRO_CALIBRATION or "
                            "~/.cache/repro/calibration.json)")
    cal_p.add_argument("--instructions", type=int, default=1536,
                       help="synthetic trace length for the measurement "
                            "(default 1536)")
    cal_p.add_argument("--repeats", type=int, default=3,
                       help="timing repetitions per batch size; the best "
                            "of each is kept (default 3)")
    cal_p.add_argument("--dry-run", action="store_true",
                       help="measure and report without persisting")
    cal_p.add_argument("--json", action="store_true",
                       help="emit the full measurement report as JSON on "
                            "stdout")

    cache_p = sub.add_parser(
        "cache", help="inspect or prune the on-disk result/trace caches")
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (("stats", "show entry counts and sizes"),
                            ("gc", "evict entries by age and/or total size"),
                            ("clear", "remove every cached entry")):
        sub_p = cache_sub.add_parser(name, help=help_text)
        sub_p.add_argument("--cache-dir", required=True,
                           help="cache root (as passed to the sweep commands)")
        if name == "stats":
            sub_p.add_argument("--json", action="store_true",
                               help="emit the stats as one JSON object on "
                                    "stdout (for scripting)")
        if name == "gc":
            sub_p.add_argument("--max-mb", type=float, default=None,
                               help="keep the cache at or under this many "
                                    "megabytes (least-recently-used entries "
                                    "evicted first)")
            sub_p.add_argument("--max-age-days", type=float, default=None,
                               help="evict entries unused for more than this "
                                    "many days")
            sub_p.add_argument("--keep-traces", action="store_true",
                               help="never evict trace entries (prune "
                                    "results only)")
            sub_p.add_argument("--keep-results", action="store_true",
                               help="never evict result entries (prune "
                                    "traces only)")

    return parser


def _spec(scale: Optional[int], seed: int = 1999) -> Optional[WorkloadSpec]:
    if scale is None:
        return None
    return WorkloadSpec(scale=scale, seed=seed)


def _print_engine_summary(engine: SweepEngine) -> None:
    """Print :func:`engine_summary` (the single formatter of the engine's
    counters) plus the cache location, when there is anything to say."""
    if engine.cache is not None:
        print(f"\n[sweep] {engine_summary(engine)} "
              f"({engine.cache.cache_dir})")
    elif (engine.last_fallback_reason or engine.last_journaled
          or engine.last_failures or engine.last_pool_restarts
          or engine.last_retries):
        print(f"\n[sweep] {engine_summary(engine)}")


def _cmd_list() -> int:
    for name, kernel in KERNELS.items():
        print(f"{name:10s} [{kernel.benchmark:12s}] {kernel.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = MachineConfig.for_way(args.way, mem_latency=args.mem_latency)
    spec = _spec(args.scale, args.seed) or WorkloadSpec(
        scale=KERNELS[args.kernel].default_scale, seed=args.seed)
    runs = run_kernel_all_isas(args.kernel, config=config, spec=spec)
    baseline = runs["scalar"].sim
    metrics = {isa: compute_metrics(run.sim, run.stats, baseline)
               for isa, run in runs.items()}
    print(f"{args.kernel} on a {args.way}-way core, "
          f"{args.mem_latency}-cycle memory, scale {spec.scale}")
    print(format_breakdown_table(args.kernel, metrics))
    return 0


def _kernel_count(kernels: Optional[Sequence[str]]) -> int:
    return len(kernels) if kernels is not None else len(kernel_names())


def _cmd_figure4(args: argparse.Namespace) -> int:
    engine = engine_from_args(args)
    total = _kernel_count(args.kernels) * len(args.ways) * len(ISA_VARIANTS)
    with stream_sinks(args, total, engine=engine) as on_result:
        results = run_figure4(kernels=args.kernels, ways=tuple(args.ways),
                              spec=_spec(args.scale), engine=engine,
                              on_result=on_result)
    print(format_speedup_table(figure4_speedups(results), ways=tuple(args.ways)))
    _print_engine_summary(engine)
    return 0


def _cmd_figure5(args: argparse.Namespace) -> int:
    engine = engine_from_args(args)
    total = (_kernel_count(args.kernels) * len(args.latencies)
             * len(ISA_VARIANTS))
    with stream_sinks(args, total, engine=engine) as on_result:
        results = run_figure5(kernels=args.kernels,
                              latencies=tuple(args.latencies),
                              spec=_spec(args.scale), engine=engine,
                              on_result=on_result)
    print(format_latency_table(figure5_cycles(results),
                               latencies=tuple(args.latencies)))
    print("\nSlow-down from the lowest to the highest latency:")
    for kernel, per_isa in figure5_slowdowns(results).items():
        cells = "  ".join(f"{isa}:{v:4.1f}x" for isa, v in per_isa.items())
        print(f"  {kernel:10s} {cells}")
    _print_engine_summary(engine)
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    engine = engine_from_args(args)
    total = _kernel_count(args.kernels) * len(ISA_VARIANTS)
    with stream_sinks(args, total, engine=engine) as on_result:
        tables = run_breakdown_tables(kernels=args.kernels, way=args.way,
                                      spec=_spec(args.scale), engine=engine,
                                      on_result=on_result)
    for kernel in sorted(tables, key=lambda k: TABLE_NUMBERS[k]):
        print(f"\n(paper Table {TABLE_NUMBERS[kernel]})")
        print(format_breakdown_table(kernel, tables[kernel]))
    _print_engine_summary(engine)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    engine = engine_from_args(args)
    configs = [MachineConfig.for_way(way, mem_latency=latency)
               for way in args.ways for latency in args.latencies]
    # A custom --seed must apply even without --scale (where each kernel
    # keeps its own default scale), so resolve the per-kernel spec here
    # instead of leaving it to the sweep expansion.
    points = [
        SweepPoint(kernel=kernel, isa=isa, config=config,
                   spec=replace(resolve_spec(kernel, _spec(args.scale)),
                                seed=args.seed))
        for kernel in (args.kernels if args.kernels is not None
                       else kernel_names())
        for config in configs
        for isa in args.isas
    ]
    with stream_sinks(args, len(points), engine=engine) as on_result:
        results = engine.run(points, on_result=on_result)
    print(f"{'kernel':10s} {'isa':7s} {'config':8s} {'mem':>4s} "
          f"{'cycles':>10s} {'instrs':>8s} {'IPC':>6s}  cached")
    for r in results:
        if r.failure is not None:
            tag = "quarantined" if r.failure.quarantined else "failed"
            print(f"{r.kernel:10s} {r.isa:7s} {r.point.config.name:8s} "
                  f"{r.point.config.mem_latency:4d} "
                  f"{'FAILED':>10s} {'--':>8s} {'--':>6s}  "
                  f"{tag}: {r.failure.error_type} ({r.failure.phase})")
            continue
        source = "journal" if r.journaled else ("yes" if r.cached else "no")
        print(f"{r.kernel:10s} {r.isa:7s} {r.point.config.name:8s} "
              f"{r.point.config.mem_latency:4d} {r.sim.cycles:10d} "
              f"{r.sim.instructions:8d} {r.sim.ipc:6.2f}  "
              f"{source}")
    _print_engine_summary(engine)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.sweep.service import ServiceHTTPServer, SweepService

    service = SweepService(args.state_dir,
                           cache_dir=args.cache_dir,
                           jobs=args.jobs,
                           max_queue=args.max_queue,
                           backend=args.backend,
                           task_timeout=args.task_timeout,
                           max_pool_restarts=args.max_pool_restarts)
    resumed = service.recover()
    if resumed:
        print(f"[serve] resumed {len(resumed)} unfinished job(s): "
              f"{' '.join(resumed)}", file=sys.stderr)
    service.start()
    server = ServiceHTTPServer((args.host, args.port), service,
                               max_poll_seconds=args.max_poll_seconds)
    host, port = server.server_address[:2]
    # Printed on stdout and flushed so scripts (and the chaos smoke) can
    # scrape the bound port even under --port 0.
    print(f"[serve] listening on http://{host}:{port} "
          f"(state: {args.state_dir})", flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        print("[serve] interrupted: draining", file=sys.stderr)
    except _Terminated:
        print("[serve] SIGTERM: draining", file=sys.stderr)
    finally:
        server.server_close()
        service.drain()
        state = service.resume_state()
        if state["pending"]:
            print(f"[serve] {len(state['pending'])} unfinished job(s) "
                  f"journaled; restart with --state-dir {args.state_dir} "
                  f"to resume: {' '.join(state['pending'])}",
                  file=sys.stderr)
    return 0


def _client_submission(args: argparse.Namespace) -> dict:
    return {
        "kernels": args.kernels,
        "isas": args.isas,
        "ways": args.ways,
        "latencies": args.latencies,
        "scale": args.scale,
        "seed": args.seed,
        "deadline_seconds": args.deadline_seconds,
        "check": not args.no_check,
    }


def _client_watch(client: "ServiceClient", job_id: str) -> int:  # noqa: F821
    final = None
    for event in client.watch(job_id):
        if "key" not in event and "job" in event:
            final = event["job"]
            break
        print(json.dumps(event, sort_keys=True), flush=True)
    assert final is not None
    print(f"job {final['id']}: {final['status']} "
          f"({final['done']}/{final['total']} point(s))", file=sys.stderr)
    if final["status"] == "failed":
        error = final.get("error") or {}
        print(f"error: {error.get('message', error)}", file=sys.stderr)
        return 1
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.sweep.client import ServiceClient, ServiceError

    client = ServiceClient(args.server, timeout=args.timeout,
                           retries=args.retries)
    try:
        if args.client_command == "submit":
            job, created = client.submit(_client_submission(args))
            print(f"job {job['id']} {'created' if created else 'attached'}: "
                  f"{job['status']}, {job['total']} point(s)",
                  file=sys.stderr)
            if args.watch:
                return _client_watch(client, job["id"])
            print(job["id"])
            return 0
        if args.client_command == "watch":
            return _client_watch(client, args.job_id)
        if args.client_command == "fetch":
            # Canonical compact JSON: two fetches of the same finished job
            # — even across a server kill and resume — are byte-identical.
            print(json.dumps(client.fetch(args.job_id), sort_keys=True))
            return 0
        if args.client_command == "list":
            for job in client.jobs():
                print(f"{job['id']}  {job['status']:12s} "
                      f"{job['done']}/{job['total']}")
            return 0
        raise AssertionError(
            f"unhandled client command {args.client_command!r}"
        )  # pragma: no cover
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _format_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n:.1f} GiB"  # pragma: no cover - unreachable


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.timing.calibrate import (CALIBRATION_ENV, calibration_path,
                                        measure_vector_cutover,
                                        save_calibration, synthetic_trace)
    from repro.timing.vector import VECTOR_MIN_BATCH, set_min_batch_override

    # Under --json only the report goes to stdout; status lines move to
    # stderr so the output stays machine-readable.
    status = sys.stderr if args.json else sys.stdout

    lowered = synthetic_trace(num_instructions=args.instructions).lower()
    report = measure_vector_cutover(lowered, repeats=args.repeats)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"{'batch':>6s} {'loop ms':>9s} {'vector ms':>10s}  winner")
        for row in report["measurements"]:
            winner = "vector" if row["vector_wins"] else "loop"
            print(f"{row['batch']:6d} {row['loop_s'] * 1e3:9.2f} "
                  f"{row['vector_s'] * 1e3:10.2f}  {winner}")
        print(f"\nmeasured cut-over: {report['vector_min_batch']} "
              f"configuration(s) (constant fallback: {VECTOR_MIN_BATCH})")
    if args.dry_run:
        print("dry run: nothing persisted", file=status)
        return 0
    if calibration_path(args.path) is None:
        print(f"error: calibration persistence is disabled "
              f"({CALIBRATION_ENV} is off); pass --path or --dry-run",
              file=sys.stderr)
        return 2
    path = save_calibration(report, path=args.path)
    # Forget any lazily-cached value so this very process routes on the
    # fresh measurement too.
    set_min_batch_override(None)
    print(f"persisted to {path}", file=status)
    read_path = calibration_path(None)
    if args.path is not None and (
            read_path is None
            or os.path.abspath(read_path) != os.path.abspath(path)):
        # The auto rule only reads $REPRO_CALIBRATION / the default path;
        # an explicit --path elsewhere is inert until pointed at.
        where = (read_path if read_path is not None
                 else f"nothing ({CALIBRATION_ENV} is off)")
        print(f"note: the auto backend rule reads {where}; export "
              f"{CALIBRATION_ENV}={path} to activate this file",
              file=status)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    if args.cache_command == "stats":
        stats = cache_stats(args.cache_dir)
        if args.json:
            print(json.dumps(stats.to_dict(), indent=2, sort_keys=True))
            return 0
        print(f"cache root: {stats.cache_dir}")
        for section in ("results", "traces"):
            print(f"  {section:8s} {stats.entries[section]:6d} entr"
                  f"{'y' if stats.entries[section] == 1 else 'ies'}, "
                  f"{_format_bytes(stats.bytes[section])}")
        print(f"  total    {stats.total_entries:6d} entr"
              f"{'y' if stats.total_entries == 1 else 'ies'}, "
              f"{_format_bytes(stats.total_bytes)}")
        if stats.entries["traces"]:
            print(f"  lowered payloads: {stats.lowered_entries} current, "
                  f"{stats.stale_lowered_entries} stale/absent")
        if stats.tmp_files:
            print(f"  orphaned temp files: {stats.tmp_files} "
                  f"({_format_bytes(stats.tmp_bytes)}), "
                  f"{stats.stale_tmp_files} stale (gc will sweep)")
        if stats.corrupt_files:
            print(f"  quarantined corrupt entries: {stats.corrupt_files} "
                  f"({_format_bytes(stats.corrupt_bytes)}; gc will sweep)")
        if stats.oldest_mtime is not None:
            age = time.time() - stats.oldest_mtime
            print(f"  least recently used entry: {age / 86400:.1f} day(s) ago")
        return 0
    if args.cache_command == "gc":
        max_bytes = (int(args.max_mb * 1024 * 1024)
                     if args.max_mb is not None else None)
        max_age = (args.max_age_days * 86400
                   if args.max_age_days is not None else None)
        keep = ([] if not args.keep_traces else ["traces"]) + (
            [] if not args.keep_results else ["results"])
        report = gc_cache(args.cache_dir, max_bytes=max_bytes,
                          max_age_seconds=max_age, keep=keep)
        print(f"evicted {report.removed} entr"
              f"{'y' if report.removed == 1 else 'ies'} "
              f"({_format_bytes(report.bytes_freed)} freed); "
              f"{report.kept} kept ({_format_bytes(report.bytes_kept)})")
        if report.tmp_removed:
            print(f"swept {report.tmp_removed} stale temp file(s) "
                  f"({_format_bytes(report.tmp_bytes_freed)} freed)")
        if report.corrupt_removed:
            print(f"swept {report.corrupt_removed} quarantined corrupt "
                  f"entr{'y' if report.corrupt_removed == 1 else 'ies'} "
                  f"({_format_bytes(report.corrupt_bytes_freed)} freed)")
        return 0
    if args.cache_command == "clear":
        report = clear_cache(args.cache_dir)
        print(f"cleared {report.removed} entr"
              f"{'y' if report.removed == 1 else 'ies'} "
              f"({_format_bytes(report.bytes_freed)} freed)")
        if report.tmp_removed:
            print(f"swept {report.tmp_removed} temp file(s) "
                  f"({_format_bytes(report.tmp_bytes_freed)} freed)")
        if report.corrupt_removed:
            print(f"swept {report.corrupt_removed} quarantined corrupt "
                  f"entr{'y' if report.corrupt_removed == 1 else 'ies'} "
                  f"({_format_bytes(report.corrupt_bytes_freed)} freed)")
        return 0
    raise AssertionError(
        f"unhandled cache command {args.cache_command!r}")  # pragma: no cover


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "figure4":
        return _cmd_figure4(args)
    if args.command == "figure5":
        return _cmd_figure5(args)
    if args.command == "tables":
        return _cmd_tables(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "client":
        return _cmd_client(args)
    if args.command == "calibrate":
        return _cmd_calibrate(args)
    if args.command == "cache":
        return _cmd_cache(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


def _check_machine_args(parser: argparse.ArgumentParser,
                        args: argparse.Namespace) -> None:
    """Reject issue widths and latencies no machine can have before any
    work runs, with :class:`MachineConfig`'s message naming the field."""
    ways = getattr(args, "ways", None) or [getattr(args, "way", 4)]
    latencies = (getattr(args, "latencies", None)
                 or [getattr(args, "mem_latency", 1)])
    try:
        for way in ways:
            for latency in latencies:
                MachineConfig.for_way(way, mem_latency=latency)
    except ValueError as exc:
        parser.error(str(exc))


class _Terminated(BaseException):
    """Raised by the SIGTERM handler inside :func:`main`.

    Deliberately a ``BaseException`` (like ``KeyboardInterrupt``): it must
    fly past ordinary ``except Exception`` recovery and reach the sink
    teardown (:func:`stream_sinks`) and :func:`main`'s own handler, so a
    ``kill`` gets exactly the Ctrl-C treatment — sinks closed at a record
    boundary, progress line erased, resume hint printed, exit 143.
    """


@contextlib.contextmanager
def _sigterm_raises():
    """Route SIGTERM into a :class:`_Terminated` raise for this block.

    The default SIGTERM disposition kills the process on the spot —
    mid-record, progress line still on the terminal, no resume hint.
    Installing a raising handler turns the signal into a normal exception
    unwind through the same ``finally``/context-manager teardown Ctrl-C
    (KeyboardInterrupt) already exercises.  The previous handler is
    restored on exit; off the main thread (embedded callers) signal
    handling is untouchable and the block runs unchanged.
    """
    def _handler(signum: int, frame: object) -> None:
        raise _Terminated()

    try:
        previous = signal.signal(signal.SIGTERM, _handler)
    except ValueError:  # not the main thread: leave signal handling alone
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _print_interrupt(args: argparse.Namespace, reason: str) -> None:
    print(reason, file=sys.stderr)
    resume = getattr(args, "resume", None)
    if resume:
        print(f"completed points are journaled; re-run with "
              f"--resume {resume} to continue", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Ctrl-C exits with the conventional 130, SIGTERM with 143 (128 + 15) —
    both without a traceback, both after the streaming sinks closed at a
    record boundary.  When the interrupted command carried ``--resume``,
    every completed point is already in the journal and the exit message
    says how to pick up.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_machine_args(parser, args)
    try:
        with _sigterm_raises():
            return _dispatch(args)
    except KeyboardInterrupt:
        _print_interrupt(args, "interrupted")
        return 130
    except _Terminated:
        _print_interrupt(args, "terminated (SIGTERM)")
        return 143
