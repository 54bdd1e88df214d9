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
  ``--state-dir``: log-backed recovery after a kill, idempotent
  submissions, a bounded queue with backpressure, per-job deadlines and
  a graceful SIGTERM drain (see ``docs/service.md``).
* ``client``   — talk to a running service: ``submit`` a sweep, ``watch``
  its live progress, ``fetch`` its results, ``list`` its jobs.  Retries
  with deterministic backoff and honours 429 ``Retry-After``.

Every sweep-backed command accepts ``--jobs N`` (process-parallel
execution), ``--cache-dir DIR`` (on-disk result + trace caches; warm
re-runs do zero simulations, warm *misses* do zero trace builds; results
append to a JSONL segment log), ``--stream-jsonl PATH`` (append one JSON
line per point as it completes, including the sweep's cumulative
simulated instructions/second), ``--resume PATH`` (write-ahead journal: every
completed point is appended durably, and re-running with the same PATH
replays the journal instead of re-simulating — crash-safe sweeps; points
journaled as failed are re-run), ``--task-timeout SECONDS`` (supervised
pool execution: hung-worker deadlines, bounded pool respawns with
backoff, poison-point quarantine — see ``docs/sweep-engine.md``).
The timing backend is not a flag: each trace group's size picks it (see
:func:`repro.timing.dispatch.resolve_execution`).  Verification is not a
flag either: every build, on every command and every service job, is
checked against its NumPy golden reference.  A live
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
import math
import os
import signal
import sys
import time
from functools import partial
from typing import (TYPE_CHECKING, Any, Callable, List, NoReturn, Optional,
                    Sequence, Tuple)

from repro.analysis.report import (
    format_breakdown_table,
    format_latency_table,
    format_speedup_table,
)
from repro.kernels.catalog import ISA_VARIANTS, kernel_names
from repro.sweep.engine import PointResult, SweepEngine, SweepFailed
from repro.sweep.spec import SweepPoint, grid_points
from repro.workloads.generators import WorkloadSpec

if TYPE_CHECKING:
    from repro.sweep.manage import GCReport
    from repro.sweep.service import SweepService

#: What a simulating command runs: its points, the reduction of their
#: results, and the renderer of what the reduction returns.
_Plan = Tuple[List[SweepPoint], Callable[[List[PointResult]], Any],
             Callable[[Any], None]]

__all__ = ["add_sweep_arguments", "build_parser", "engine_from_args",
           "engine_summary", "main", "make_on_result", "stream_sinks",
           "version_string"]


def version_string() -> str:
    """The ``repro --version`` banner: package, model and builder versions."""
    import repro
    from repro import versions

    return (f"repro {repro.__version__} "
            f"(timing model v{versions.MODEL_VERSION}, "
            f"front end v{versions.BUILDER_VERSION})")


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
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock deadline per worker-pool task; an "
                             "overdue task's worker is presumed hung, the "
                             "pool recycled and the task re-submitted "
                             "(default: no deadline)")


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
    (plus ``--resume`` and the supervision flags where the command
    defines them); a command without engine flags gets the default one."""
    return SweepEngine(jobs=getattr(args, "jobs", 1),
                       cache_dir=getattr(args, "cache_dir", None),
                       journal=getattr(args, "resume", None),
                       task_timeout=getattr(args, "task_timeout", None))


def engine_summary(engine: SweepEngine) -> str:
    """One-line account of the engine's most recent run."""
    report = engine.report
    summary = (f"{report.simulated} point(s) simulated, "
               f"{report.cached} from cache")
    if report.journaled:
        summary += f", {report.journaled} from journal"
    if report.failures:
        summary += f", {len(report.failures)} failed"
        if report.quarantined:
            summary += f" ({report.quarantined} quarantined)"
    if engine.cache is not None:
        summary += (f"; {report.trace_hits} trace hit(s), "
                    f"{report.trace_builds} trace build(s)")
    if report.retries or report.pool_restarts or report.timeouts:
        summary += (f"; supervision: {report.retries} retr"
                    f"{'y' if report.retries == 1 else 'ies'}, "
                    f"{report.pool_restarts} pool restart(s), "
                    f"{report.timeouts} timeout(s)")
    if report.fallback_reason:
        summary += (f"; worker pool unavailable, ran serially "
                    f"({report.fallback_reason})")
    return summary


class _ProgressLine:
    """Live ``done/total`` progress on stderr (TTY only, ``\\r``-updated).

    Tracks the cumulative *simulated* instruction count (cache hits
    simulate nothing) and shows the resulting instructions/second.
    """

    def __init__(self, total: int, enabled: Optional[bool] = None) -> None:
        self.total = total
        self.done = 0
        self.cached = 0
        self.failed = 0
        self.sim_instructions = 0
        self.started = time.monotonic()
        self.enabled = (sys.stderr.isatty() if enabled is None else enabled)

    @property
    def instr_per_sec(self) -> int:
        """Simulated instructions per wall-clock second so far."""
        elapsed = time.monotonic() - self.started
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
        elapsed = time.monotonic() - self.started
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
                record.update(engine.supervision())
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


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes no abbreviated long option: a typo
    such as ``--job 2`` is an error, not ``--jobs 2``.  Every subparser is
    one, so the rule holds for every command."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)


class _OneCommandParser(_Parser):
    """The top level of ``build_parser(command)``: it holds one command's
    subparser, so its own usage would list only that command.  Every error
    it reports (an unrecognized argument, or one :func:`main` raises
    through it) is therefore the full parser's, word for word.  An error
    inside the command is its subparser's, a plain :class:`_Parser` built
    as the full parser builds it."""

    def error(self, message: str) -> NoReturn:
        build_parser().error(message)


def _add_list(sub) -> None:
    sub.add_parser("list", help="list the available kernels")


def _add_run(sub) -> None:
    run_p = sub.add_parser("run", help="run one kernel on all four ISAs")
    run_p.add_argument("kernel", choices=kernel_names())
    run_p.add_argument("--way", type=int, default=4, help="issue width (default 4)")
    run_p.add_argument("--mem-latency", type=int, default=1,
                       help="memory latency in cycles (default 1)")
    run_p.add_argument("--scale", type=int, default=None,
                       help="workload scale (default: kernel-specific)")
    run_p.add_argument("--seed", type=int, default=1999, help="workload RNG seed")


def _add_figure4(sub) -> None:
    fig4_p = sub.add_parser("figure4", help="regenerate Figure 4")
    fig4_p.add_argument("--kernels", nargs="*", default=None, choices=kernel_names())
    fig4_p.add_argument("--ways", nargs="*", type=int, default=[1, 2, 4, 8])
    fig4_p.add_argument("--scale", type=int, default=None)
    _add_engine_flags(fig4_p)


def _add_figure5(sub) -> None:
    fig5_p = sub.add_parser("figure5", help="regenerate Figure 5")
    fig5_p.add_argument("--kernels", nargs="*", default=None, choices=kernel_names())
    fig5_p.add_argument("--latencies", nargs="*", type=int, default=[1, 12, 50])
    fig5_p.add_argument("--scale", type=int, default=None)
    _add_engine_flags(fig5_p)


def _add_tables(sub) -> None:
    tables_p = sub.add_parser("tables", help="regenerate Tables 1-9")
    tables_p.add_argument("--kernels", nargs="*", default=None, choices=kernel_names())
    tables_p.add_argument("--way", type=int, default=4)
    tables_p.add_argument("--scale", type=int, default=None)
    _add_engine_flags(tables_p)


def _add_sweep(sub) -> None:
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


def _add_serve(sub) -> None:
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
                         help="durable service state: one record per job "
                              "(and the caches, without --cache-dir); "
                              "restarting on the same directory resumes "
                              "every unfinished job, serving its completed "
                              "points from the result log")
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
                         help="where the result + trace caches every job "
                              "shares live (default: <state-dir>/cache)")
    serve_p.add_argument("--task-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per worker-pool task deadline (hung-worker "
                              "recovery; default: none)")


def _add_client(sub) -> None:
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
                               "its completed points in the result log "
                               "(resubmit with a longer deadline to "
                               "continue)")
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


def _add_cache(sub) -> None:
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


#: Each command's subparser, in the order ``repro -h`` lists them.
_COMMANDS = {"list": _add_list, "run": _add_run, "figure4": _add_figure4,
             "figure5": _add_figure5, "tables": _add_tables,
             "sweep": _add_sweep, "serve": _add_serve,
             "client": _add_client, "cache": _add_cache}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` argument parser.

    With no ``command`` it holds every command's subparser.  Given a
    command name it holds the top level and that command's subparser
    only: it parses an argv that starts with that command to the same
    namespace, and reports the same errors, for a fraction of the set-up
    (:func:`main` builds it for the command it runs)."""
    parser = (_Parser if command is None else _OneCommandParser)(
        prog="repro",
        description="Reproduction of the MOM matrix SIMD ISA study (SC'99)",
    )
    parser.add_argument("--version", action="version", version=version_string())
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for add in (_COMMANDS.values() if command is None
                else [_COMMANDS[command]]):
        add(sub)
    return parser


def _spec(scale: Optional[int]) -> Optional[WorkloadSpec]:
    return None if scale is None else WorkloadSpec(scale=scale)


def _print_engine_summary(engine: SweepEngine) -> None:
    """Print :func:`engine_summary` (the single formatter of the engine's
    report) plus the cache location, when there is anything to say: a
    cache-less run that only simulated says nothing."""
    summary = engine_summary(engine)
    if engine.cache is not None:
        summary += f" ({engine.cache.cache_dir})"
    elif summary.endswith(" from cache"):
        return
    print(f"\n[sweep] {summary}")


def _print_failed(result: PointResult) -> None:
    """One ``repro sweep`` table row for a point that has no numbers."""
    tag = "quarantined" if result.failure.quarantined else "failed"
    print(f"{result.kernel:10s} {result.isa:7s} "
          f"{result.point.config.name:8s} "
          f"{result.point.config.mem_latency:4d} "
          f"{'FAILED':>10s} {'--':>8s} {'--':>6s}  "
          f"{tag}: {result.failure.error_type} ({result.failure.phase})")


def _simulate(args: argparse.Namespace, engine: SweepEngine,
              points: List[SweepPoint],
              reduce: Callable[[List[PointResult]], Any],
              render: Callable[[Any], None]) -> int:
    """Run a simulating command: ``points`` on its one ``engine``, streamed
    to the sinks its flags name, then ``render`` what ``reduce`` makes of
    the results and print the engine footer.  A figure or table whose
    sweep lost points cannot be drawn: the command lists the failed points
    as ``repro sweep`` does, prints the footer and exits 1."""
    try:
        with stream_sinks(args, len(points), engine=engine) as on_result:
            output = reduce(engine.run(points, on_result=on_result))
    except SweepFailed as exc:
        print(f"{len(exc.failed)} point(s) failed; nothing to report:")
        for result in exc.failed:
            _print_failed(result)
        _print_engine_summary(engine)
        return 1
    render(output)
    _print_engine_summary(engine)
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.kernels.registry import KERNELS

    for name, kernel in KERNELS.items():
        print(f"{name:10s} [{kernel.benchmark:12s}] {kernel.description}")
    return 0


def _plan_run(args: argparse.Namespace) -> _Plan:
    from repro.experiments.tables import breakdown_tables

    points = grid_points([args.kernel], ISA_VARIANTS, [args.way],
                         [args.mem_latency], args.scale, args.seed)

    def render(metrics) -> None:
        print(f"{args.kernel} on a {args.way}-way core, "
              f"{args.mem_latency}-cycle memory, "
              f"scale {points[0].spec.scale}")
        print(format_breakdown_table(args.kernel, metrics))

    return (points, lambda results: breakdown_tables(results)[args.kernel],
            render)


def _plan_figure4(args: argparse.Namespace) -> _Plan:
    from repro.experiments.figure4 import (figure4_results, figure4_speedups,
                                           figure4_sweep)

    return (figure4_sweep(args.kernels, args.ways, _spec(args.scale)),
            figure4_results,
            lambda results: print(format_speedup_table(
                figure4_speedups(results), ways=tuple(args.ways))))


def _plan_figure5(args: argparse.Namespace) -> _Plan:
    from repro.experiments.figure5 import (figure5_cycles, figure5_results,
                                           figure5_slowdowns, figure5_sweep)

    def render(results) -> None:
        print(format_latency_table(figure5_cycles(results),
                                   latencies=tuple(args.latencies)))
        print("\nSlow-down from the lowest to the highest latency:")
        for kernel, per_isa in figure5_slowdowns(results).items():
            cells = "  ".join(f"{isa}:{v:4.1f}x"
                              for isa, v in per_isa.items())
            print(f"  {kernel:10s} {cells}")

    return (figure5_sweep(args.kernels, args.latencies,
                          spec=_spec(args.scale)),
            figure5_results, render)


def _plan_tables(args: argparse.Namespace) -> _Plan:
    from repro.experiments.tables import (TABLE_NUMBERS, breakdown_tables,
                                          tables_sweep)

    def render(tables) -> None:
        for kernel in sorted(tables, key=lambda k: TABLE_NUMBERS[k]):
            print(f"\n(paper Table {TABLE_NUMBERS[kernel]})")
            print(format_breakdown_table(kernel, tables[kernel]))

    return (tables_sweep(args.kernels, args.way, spec=_spec(args.scale)),
            breakdown_tables, render)


def _plan_sweep(args: argparse.Namespace) -> _Plan:
    def render(results) -> None:
        print(f"{'kernel':10s} {'isa':7s} {'config':8s} {'mem':>4s} "
              f"{'cycles':>10s} {'instrs':>8s} {'IPC':>6s}  cached")
        for r in results:
            if r.failure is not None:
                _print_failed(r)
                continue
            source = "journal" if r.journaled else ("yes" if r.cached
                                                    else "no")
            print(f"{r.kernel:10s} {r.isa:7s} {r.point.config.name:8s} "
                  f"{r.point.config.mem_latency:4d} {r.sim.cycles:10d} "
                  f"{r.sim.instructions:8d} {r.sim.ipc:6.2f}  "
                  f"{source}")

    return (grid_points(args.kernels, args.isas, args.ways, args.latencies,
                        args.scale, args.seed),
            lambda results: results, render)


#: The simulating commands, each a point list, a reduction and a renderer.
#: A plan imports its own driver, so a command loads no other command's.
_PLANS = {"run": _plan_run, "figure4": _plan_figure4,
          "figure5": _plan_figure5, "tables": _plan_tables,
          "sweep": _plan_sweep}


def _cmd_serve(args: argparse.Namespace, service: SweepService) -> int:
    # The service simulates: load the compute stack before answering
    # /readyz, so the first job does not pay for the imports.
    import repro.experiments.runner  # noqa: F401
    import repro.timing.vector  # noqa: F401
    from repro.sweep.service import ServiceHTTPServer

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
        pending = service.pending()
        if pending:
            print(f"[serve] {len(pending)} unfinished job(s), completed "
                  f"points in the result log; restart with --state-dir "
                  f"{args.state_dir} to resume: {' '.join(pending)}",
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


def _print_garbage_swept(report: GCReport) -> None:
    """The ``gc``/``clear`` lines for files that were never cache entries."""
    if report.corrupt_removed:
        print(f"swept {report.corrupt_removed} quarantined corrupt "
              f"entr{'y' if report.corrupt_removed == 1 else 'ies'} "
              f"({_format_bytes(report.corrupt_bytes_freed)} freed)")
    if report.legacy_removed:
        print(f"removed {report.legacy_removed} pre-segment result file(s) "
              f"({_format_bytes(report.legacy_bytes_freed)} freed)")


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.sweep.manage import cache_stats, clear_cache, gc_cache

    if args.cache_command == "stats":
        stats = cache_stats(args.cache_dir)
        if args.json:
            print(json.dumps(stats.to_dict(), indent=2, sort_keys=True))
            return 0
        print(f"cache root: {stats.cache_dir}")
        for section in ("results", "traces"):
            print(f"  {section:8s} {stats.entries[section]:6d} entr"
                  f"{'y' if stats.entries[section] == 1 else 'ies'}, "
                  f"{_format_bytes(stats.bytes[section])}"
                  + (f" in {stats.segments} segment(s)"
                     if section == "results" else ""))
        print(f"  total    {stats.total_entries:6d} entr"
              f"{'y' if stats.total_entries == 1 else 'ies'}, "
              f"{_format_bytes(stats.total_bytes)}")
        if stats.tmp_files:
            print(f"  orphaned temp files: {stats.tmp_files} "
                  f"({_format_bytes(stats.tmp_bytes)}), "
                  f"{stats.stale_tmp_files} stale (gc will sweep)")
        if stats.corrupt_files:
            print(f"  quarantined corrupt entries: {stats.corrupt_files} "
                  f"({_format_bytes(stats.corrupt_bytes)}; gc will sweep)")
        if stats.legacy_files:
            print(f"  pre-segment result files: {stats.legacy_files} "
                  f"({_format_bytes(stats.legacy_bytes)}; never read, "
                  f"gc will remove)")
        if stats.oldest_mtime is not None:
            age = time.time() - stats.oldest_mtime
            print(f"  least recently used entry: {age / 86400:.1f} day(s) ago")
        return 0
    if args.cache_command == "gc":
        max_bytes = (int(args.max_mb * 1024 * 1024)
                     if args.max_mb is not None else None)
        max_age = (args.max_age_days * 86400
                   if args.max_age_days is not None else None)
        report = gc_cache(args.cache_dir, max_bytes=max_bytes,
                          max_age_seconds=max_age)
        print(f"evicted {report.removed} entr"
              f"{'y' if report.removed == 1 else 'ies'} "
              f"({_format_bytes(report.bytes_freed)} freed); "
              f"{report.kept} kept ({_format_bytes(report.bytes_kept)})")
        if report.tmp_removed:
            print(f"swept {report.tmp_removed} stale temp file(s) "
                  f"({_format_bytes(report.tmp_bytes_freed)} freed)")
        _print_garbage_swept(report)
        return 0
    if args.cache_command == "clear":
        report = clear_cache(args.cache_dir)
        print(f"cleared {report.removed} entr"
              f"{'y' if report.removed == 1 else 'ies'} "
              f"({_format_bytes(report.bytes_freed)} freed)")
        if report.tmp_removed:
            print(f"swept {report.tmp_removed} temp file(s) "
                  f"({_format_bytes(report.tmp_bytes_freed)} freed)")
        _print_garbage_swept(report)
        return 0
    raise AssertionError(
        f"unhandled cache command {args.cache_command!r}")  # pragma: no cover


def _check_dir(parser: argparse.ArgumentParser, flag: str,
               path: str) -> None:
    """Create the directory a flag names, or exit 2 naming the flag."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        parser.error(f"{flag} {path!r} cannot be created: "
                     f"{exc.strerror or exc}")
    if not os.access(path, os.W_OK | os.X_OK):
        parser.error(f"{flag} {path!r} is not writable")


def _check_serve_args(parser: argparse.ArgumentParser,
                      args: argparse.Namespace) -> None:
    """Reject ``repro serve`` settings that could only start a broken
    server, before it binds: each error names its flag."""
    if args.max_queue < 1:
        parser.error(f"--max-queue must be an integer >= 1, "
                     f"got {args.max_queue}")
    if not (math.isfinite(args.max_poll_seconds)
            and args.max_poll_seconds >= 0):
        parser.error(f"--max-poll-seconds must be a finite number >= 0, "
                     f"got {args.max_poll_seconds}")
    if not 0 <= args.port <= 65535:
        parser.error(f"--port must be an integer in 0..65535, "
                     f"got {args.port}")


def _prepare(parser: argparse.ArgumentParser,
             args: argparse.Namespace) -> Callable[[], int]:
    """Build what the command runs and return the call that runs it.

    A simulating command builds its point list and its one engine, ``repro
    serve`` its service, ``repro client submit`` its grid.  Building them
    is the check: a machine, workload or engine setting that makes no
    sense raises :class:`ValueError` with the message of the class that
    owns the rule (:class:`~repro.timing.config.MachineConfig`,
    :class:`WorkloadSpec`, the engine), which names the field, before any
    stream file, cache directory or socket is opened.  A ``--cache-dir``
    or ``--state-dir`` is created here, after those checks, so a path that
    cannot hold one exits 2 naming the flag instead of failing every
    point."""
    if args.command in _PLANS:
        points, reduce, render = _PLANS[args.command](args)
        engine = engine_from_args(args)
        if getattr(args, "cache_dir", None):
            _check_dir(parser, "--cache-dir", args.cache_dir)
        return partial(_simulate, args, engine, points, reduce, render)
    if args.command == "serve":
        from repro.sweep.service import SweepService

        _check_serve_args(parser, args)
        try:
            service = SweepService(args.state_dir, cache_dir=args.cache_dir,
                                   jobs=args.jobs, max_queue=args.max_queue,
                                   task_timeout=args.task_timeout)
        except OSError:
            _check_dir(parser, "--state-dir", args.state_dir)
            raise
        if args.cache_dir:
            _check_dir(parser, "--cache-dir", args.cache_dir)
        return partial(_cmd_serve, args, service)
    if args.command == "client" and args.client_command == "submit":
        grid_points(args.kernels, args.isas or ISA_VARIANTS, args.ways,
                    args.latencies, args.scale, args.seed)
    return partial({"list": _cmd_list, "client": _cmd_client,
                    "cache": _cmd_cache}[args.command], args)


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
    argv = sys.argv[1:] if argv is None else list(argv)
    # -h, --version and a missing or unknown command need every command.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        command = _prepare(parser, args)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        with _sigterm_raises():
            return command()
    except KeyboardInterrupt:
        _print_interrupt(args, "interrupted")
        return 130
    except _Terminated:
        _print_interrupt(args, "terminated (SIGTERM)")
        return 143
