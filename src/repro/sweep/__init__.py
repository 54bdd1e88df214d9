"""Declarative experiment sweeps: parallel execution, caching, streaming.

The sweep subsystem is the shared engine behind every experiment driver
(Figure 4, Figure 5, the breakdown tables and the ablations):

* :class:`~repro.sweep.spec.SweepSpec` — a declarative cartesian product of
  kernels x ISAs x machine configurations x workload specs;
* :class:`~repro.sweep.engine.SweepEngine` — expands a spec into points and
  runs them, optionally over a :class:`concurrent.futures.ProcessPoolExecutor`
  (with a deterministic in-process fallback), with streaming results via
  :meth:`~repro.sweep.engine.SweepEngine.iter_results` / ``on_result``;
* :class:`~repro.sweep.cache.ResultCache` — content-addressed storage of
  simulation results, one JSON file per point, keyed by a stable hash of
  (kernel, ISA, machine configuration, workload spec, timing-model and
  builder versions);
* :class:`~repro.sweep.journal.SweepJournal` — a write-ahead JSONL journal
  of completed points enabling crash-safe, resumable sweeps
  (``repro sweep --resume``);
* :class:`~repro.sweep.supervisor.PoolSupervisor` /
  :class:`~repro.sweep.supervisor.SupervisorPolicy` — supervised pool
  execution: per-task deadlines, bounded pool restarts with deterministic
  backoff, and poison-point quarantine; failed points surface as
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
  ``repro client``), with journal-backed recovery, idempotent
  submissions, bounded queues and deadlines (see ``docs/service.md``).

See ``docs/sweep-engine.md`` for the full guide.
"""

from repro.sweep.cache import ResultCache, point_key
from repro.sweep.client import ServiceClient, ServiceError
from repro.sweep.engine import PointResult, SweepEngine, ensure_engine
from repro.sweep.faults import FAULT_ENV, FaultPlan, FaultRule, InjectedFault
from repro.sweep.journal import (JournalLockedError, SweepJournal,
                                 read_jsonl)
from repro.sweep.manage import (CacheStats, GCReport, cache_stats,
                                clear_cache, gc_cache)
from repro.sweep.service import (QueueFull, ServiceHTTPServer, SweepService,
                                 UnknownJob, job_id_for, normalize_submission,
                                 submission_points)
from repro.sweep.spec import SweepPoint, SweepSpec, resolve_spec
from repro.sweep.supervisor import (PointFailure, PoolSupervisor,
                                    SupervisorPolicy)
from repro.sweep.tracecache import TraceCache, trace_key

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
    "ServiceClient",
    "ServiceError",
    "ServiceHTTPServer",
    "SupervisorPolicy",
    "SweepEngine",
    "JournalLockedError",
    "SweepJournal",
    "SweepPoint",
    "SweepService",
    "SweepSpec",
    "TraceCache",
    "UnknownJob",
    "cache_stats",
    "clear_cache",
    "ensure_engine",
    "gc_cache",
    "job_id_for",
    "normalize_submission",
    "point_key",
    "read_jsonl",
    "resolve_spec",
    "submission_points",
    "trace_key",
]
