"""Content-addressed on-disk cache of serialized functional traces.

Rebuilding a kernel's functional trace (executing the front end instruction
by instruction against the NumPy workload) dominates the cost of every sweep
point the result cache cannot serve — the *warm miss*: same kernel, ISA and
workload, but a machine configuration (or timing-model version) not seen
before.  The trace itself is independent of the machine configuration, so
this cache stores it once per (kernel, ISA, workload spec, builder version)
and every later run — in this process or any worker process — deserializes
it instead of rebuilding.

Key anatomy (SHA-256 over the canonical JSON of)::

    {"builder_version": ..., "kernel": ..., "isa": ...,
     "workload": {"scale": ..., "seed": ...}}

Note what is *absent*: the machine configuration and the timing-model
version.  A trace is a pure function of the front end, so changing the
simulated core must not (and does not) invalidate it; bumping
:data:`repro.frontend.builders.BUILDER_VERSION` invalidates everything.

Layout (shares a root with :class:`~repro.sweep.cache.ResultCache`)::

    <cache_dir>/traces/<key[:2]>/<key>.json

Entries only ever come from builds whose functional output was verified
against the NumPy golden reference (every build is), so a cache hit carries
the original build's correctness guarantee.  The builder version is read
at call time, like the result cache's versions.  Unreadable,
truncated or format-mismatched entries count as plain misses — the trace is
rebuilt rather than crashing the sweep.

Writing an entry is object-free on the cold path: a column-built trace
(:mod:`repro.trace.columns`) serializes its payload straight from the
emission record pool and its lowering is the zero-copy adoption of the
same columns — ``put`` never materialises per-instruction objects.

Each entry also embeds the trace's **lowered payload** (the flat-array
compilation the fast timing backend executes, see
:mod:`repro.timing.lowered`), stamped with
:data:`~repro.timing.lowered.LOWERING_VERSION`.  A hit revives the lowering
together with the trace, so a warm-miss sweep does zero front-end builds
*and* zero lowering passes; a version-mismatched or malformed lowered
payload is simply ignored (the trace re-lowers on demand) — never a miss
for the trace itself.

Reads touch the entry's mtime, making ``repro cache gc`` eviction true LRU
rather than write-time LRU.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional

from repro.common.atomicio import (atomic_write_json, quarantine_corrupt,
                                   stamp_checksum, verify_checksum)
from repro.frontend import builders
from repro.sweep.spec import SweepPoint
from repro.timing.lowered import LoweredTrace
from repro.trace.container import Trace
from repro.workloads.generators import WorkloadSpec

__all__ = ["TraceCache", "trace_key"]

#: Subdirectory (under a shared cache root) holding the trace entries.
TRACE_SUBDIR = "traces"


def trace_key(kernel: str, isa: str, spec: WorkloadSpec) -> str:
    """Stable content hash identifying one functional trace.

    Parameters
    ----------
    kernel, isa:
        Kernel name and ISA variant the trace was built for.
    spec:
        The concrete (resolved) workload spec; only ``scale`` and ``seed``
        matter, matching the result cache's workload fingerprint.

    The live :data:`~repro.frontend.builders.BUILDER_VERSION` is folded in,
    read at call time.
    """
    payload = {
        "builder_version": builders.BUILDER_VERSION,
        "kernel": kernel,
        "isa": isa,
        "workload": {"scale": spec.scale, "seed": spec.seed},
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TraceCache:
    """On-disk store of serialized traces, shared across processes.

    Parameters
    ----------
    cache_dir:
        Directory holding the trace entries (conventionally
        ``<shared cache root>/traces``); created on first write.  Entries
        are keyed by :func:`trace_key`.

    Attributes
    ----------
    hits / misses:
        Running counters over this instance's :meth:`get` calls.
    """

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = os.fspath(cache_dir)
        self.hits = 0
        self.misses = 0
        #: Entries this instance quarantined (``*.corrupt``) because they
        #: failed to parse or their embedded checksum mismatched.
        self.corrupt = 0

    # -- key/path plumbing ------------------------------------------------

    def key_for(self, point: SweepPoint) -> str:
        """Cache key of the trace behind a (resolved) sweep point."""
        point = point.resolved()
        return trace_key(point.kernel, point.isa, point.spec)

    def path_for(self, point: SweepPoint) -> str:
        """On-disk path of the entry for ``point`` (whether or not present)."""
        return self._path(self.key_for(point))

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key[:2], key + ".json")

    # -- cache operations -------------------------------------------------

    def get(self, point: SweepPoint) -> Optional[Trace]:
        """Return the cached :class:`~repro.trace.container.Trace`, or None.

        Any unreadable, corrupt, truncated or format-mismatched entry is a
        plain miss: the caller rebuilds the trace from the front end.  An
        entry that fails to parse or whose embedded content checksum
        mismatches is additionally **quarantined** to ``<entry>.corrupt``
        (counted in :attr:`corrupt` and by ``repro cache stats``; ``gc``
        sweeps it).  A valid entry whose *lowered* payload is stale
        (different :data:`~repro.timing.lowered.LOWERING_VERSION`) or
        malformed is still a hit — the lowering is recomputed from the
        trace on demand.

        A hit touches the entry's mtime so age/size eviction
        (:func:`repro.sweep.manage.gc_cache`) is least-recently-*used*, not
        least-recently-written.
        """
        path = self._path(self.key_for(point))
        try:
            with open(path, "r", encoding="utf-8") as f:
                entry = json.load(f)
        except OSError:
            self.misses += 1
            return None
        except ValueError:
            entry = None  # unparseable bytes: quarantine below
        if entry is None or not verify_checksum(entry):
            quarantine_corrupt(path)
            self.corrupt += 1
            self.misses += 1
            return None
        try:
            trace = Trace.from_payload(entry["trace"])
        except (ValueError, KeyError, IndexError, TypeError):
            # Verified bytes in an unexpected schema (an older writer): a
            # plain miss, not corruption.
            self.misses += 1
            return None
        lowered_payload = entry.get("lowered")
        if isinstance(lowered_payload, dict):
            try:
                trace.attach_lowered(LoweredTrace.from_payload(lowered_payload))
            except (ValueError, KeyError, IndexError, TypeError):
                pass
        try:
            os.utime(path, None)
        except OSError:
            pass
        self.hits += 1
        return trace

    def put(self, point: SweepPoint, trace: Trace) -> str:
        """Store one trace (with its lowered payload); returns the cache key.

        The write is atomic (tempfile + rename), so concurrent sweeps and
        worker processes sharing the directory never observe a half-written
        entry — at worst two processes race to write identical content.
        """
        point = point.resolved()
        key = self.key_for(point)
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry: Dict[str, Any] = {
            "key": key,
            "builder_version": builders.BUILDER_VERSION,
            "kernel": point.kernel,
            "isa": point.isa,
            "workload": {"scale": point.spec.scale, "seed": point.spec.seed},
            "trace": trace.to_payload(),
            # The flat-array compilation, self-stamped with the live
            # LOWERING_VERSION; readers on another lowering version ignore
            # it and re-lower from the trace.
            "lowered": trace.lower().to_payload(),
        }
        atomic_write_json(path, stamp_checksum(entry), sort_keys=True,
                          separators=(",", ":"))
        return key
