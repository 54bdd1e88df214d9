"""Declarative experiment sweeps: parallel execution, caching, streaming.

The sweep subsystem is the shared engine behind every experiment driver
(Figure 4, Figure 5, the breakdown tables and the ablations):

* :func:`~repro.sweep.spec.grid_points` — the one grid expansion: a sweep
  is a list of :class:`~repro.sweep.spec.SweepPoint`\\ s over kernels x
  ISAs x machine configurations x one workload;
* :class:`~repro.sweep.engine.SweepEngine` — runs a list of points,
  optionally over a :class:`concurrent.futures.ProcessPoolExecutor`
  (or inline, in this process), with streaming results via
  :meth:`~repro.sweep.engine.SweepEngine.iter_results` / ``on_result``,
  and accounts for each run in one frozen
  :class:`~repro.sweep.engine.RunReport` (``engine.report``);
* :class:`~repro.sweep.cache.ResultCache` — content-addressed storage of
  simulation results in an append-only JSONL segment log, keyed by a
  stable hash of (kernel, ISA, machine configuration, workload spec,
  timing-model and builder versions);
* :class:`~repro.sweep.journal.SweepJournal` — a write-ahead JSONL journal
  of completed points enabling crash-safe, resumable sweeps
  (``repro sweep --resume``);
* :class:`~repro.sweep.supervisor.PoolSupervisor` — supervised
  execution, one failure policy over two executors (inline and process
  pool): group splitting and point retries everywhere, plus per-task
  deadlines, bounded pool restarts with backoff and poison-point
  quarantine under the pool; failed points surface as
  :class:`~repro.sweep.supervisor.PointFailure` records;
* :mod:`~repro.sweep.faults` — the deterministic fault-injection harness
  (``REPRO_FAULT_INJECT``) that makes all of the above testable;
* :class:`~repro.sweep.tracecache.TraceCache` — content-addressed storage of
  serialized functional traces keyed by (kernel, ISA, workload spec,
  builder version), shared by the parent and every worker process;
* :mod:`~repro.sweep.manage` — stats / GC / clear over all stores
  (``repro cache`` on the command line);
* :class:`~repro.sweep.service.SweepService` /
  :class:`~repro.sweep.client.ServiceClient` — the crash-tolerant HTTP
  sweep service and its retrying client (``repro serve`` /
  ``repro client``), with log-backed recovery, idempotent
  submissions, bounded queues and deadlines (see ``docs/service.md``).

See ``docs/sweep-engine.md`` for the full guide.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CacheStats",
    "FAULT_ENV",
    "FaultPlan",
    "FaultRule",
    "GCReport",
    "InjectedFault",
    "PointFailure",
    "PointResult",
    "PoolSupervisor",
    "QueueFull",
    "ResultCache",
    "RunReport",
    "ServiceClient",
    "ServiceError",
    "ServiceHTTPServer",
    "SweepEngine",
    "JournalLockedError",
    "SweepJournal",
    "SweepPoint",
    "SweepService",
    "TraceCache",
    "UnknownJob",
    "cache_stats",
    "clear_cache",
    "gc_cache",
    "grid_points",
    "job_id_for",
    "normalize_submission",
    "point_key",
    "read_jsonl",
    "resolve_spec",
    "submission_points",
    "trace_key",
]

# Served on first use: importing one sweep submodule (the result-cache hit
# path needs only ``cache``, ``spec`` and ``engine``) must not load the
# service, the client or the trace cache.
__getattr__ = lazy_exports(__name__, {
    "repro.sweep.cache": ["ResultCache", "point_key", "read_jsonl"],
    "repro.sweep.client": ["ServiceClient", "ServiceError"],
    "repro.sweep.engine": ["PointResult", "RunReport", "SweepEngine"],
    "repro.sweep.faults": ["FAULT_ENV", "FaultPlan", "FaultRule",
                           "InjectedFault"],
    "repro.sweep.journal": ["JournalLockedError", "SweepJournal"],
    "repro.sweep.manage": ["CacheStats", "GCReport", "cache_stats",
                           "clear_cache", "gc_cache"],
    "repro.sweep.service": ["QueueFull", "ServiceHTTPServer", "SweepService",
                            "UnknownJob", "job_id_for",
                            "normalize_submission", "submission_points"],
    "repro.sweep.spec": ["SweepPoint", "grid_points", "resolve_spec"],
    "repro.sweep.supervisor": ["PointFailure", "PoolSupervisor"],
    "repro.sweep.tracecache": ["TraceCache", "trace_key"],
})
