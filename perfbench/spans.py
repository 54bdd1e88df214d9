"""In-memory spans around the public functions of each ``repro`` layer.

The benchmark's traced run wraps layer entry points from the outside, so
no file under ``src/`` changes.  A :class:`Tracer` records one
:class:`Span` per wrapped call (name, start, end, parent, thread) and keeps
every span in memory until the run writes them out.  A span's *self time*
is its duration minus the part of its interval that its child spans cover
(:func:`self_times`); :func:`layer_metrics` folds self times and counts
into the per-layer metrics that ``BENCHMARK.json`` lists.

:func:`install_layers` patches the layer functions; :meth:`Tracer.uninstall`
puts every original object back, which :func:`unrestored` checks by
identity.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

ISAS = ("scalar", "mmx", "mdmx", "mom")
BACKENDS = ("lowered", "vector")

#: Span name -> per-layer metric holding the span's summed self time.
SELF_TIME_METRICS = {
    "cli.main": "cli.self_s",
    "kernels.workload": "kernels.workload_s",
    "kernels.emit": "kernels.emit_s",
    "kernels.reference": "kernels.reference_s",
    "kernels.check": "kernels.check_s",
    "trace.lower": "trace.lower_s",
    "trace.stats": "trace.stats_s",
    "timing.simulate": "timing.simulate_s",
    "sweep.cache.get": "sweep.cache.get_s",
    "sweep.cache.put": "sweep.cache.put_s",
    "sweep.tracecache.get": "sweep.tracecache.get_s",
    "sweep.tracecache.put": "sweep.tracecache.put_s",
    "sweep.journal.record": "sweep.journal.record_s",
    "sweep.journal.load": "sweep.journal.load_s",
    "sweep.engine.run": "sweep.engine.self_s",
    "sweep.service.submit": "sweep.service.submit_s",
    "sweep.service.wait": "sweep.service.wait_s",
    "sweep.service.fetch": "sweep.service.fetch_s",
    "analysis.format": "analysis.format_s",
    "bench.pass": "bench.harness_s",
}


@dataclass
class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: Optional[float] = None
    parent: Optional[int] = None
    thread: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "thread": self.thread,
                "attrs": self.attrs}


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        intervals = sorted((max(spans[c].start, span.start),
                            min(spans[c].end, span.end))
                           for c in children.get(index, ()))
        covered = 0.0
        reach = span.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


class Tracer:
    """Records spans per thread and owns the patches that produce them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs: Any) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter(),
                    parent=stack[-1] if stack else None,
                    thread=threading.get_ident(), attrs=attrs)
        self.spans.append(span)  # list.append is atomic under the GIL
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:
            stack.remove(index)
        return span

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        index = self.open(name, **attrs)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn: Callable, name: str,
             describe: Optional[Callable[..., Dict[str, Any]]] = None
             ) -> Callable:
        """``fn`` inside a span; ``describe(args, kwargs, result)`` adds
        attributes after the span has closed, so its cost is not the
        layer's."""
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args: Any, **kwargs: Any):
                index = tracer.open(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.close(index)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer.close(index)
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
            return result
        return wrapper

    def count(self, fn: Callable, name: str) -> Callable:
        """``fn`` counted as a zero-length span (no timing of its own)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            tracer.close(tracer.open(name))
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, owner: Any, attr: str, new: Any) -> None:
        """Set ``owner.attr = new``, remembering what to put back."""
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, new)

    def patch_method(self, cls: type, attr: str, name: str,
                     describe: Optional[Callable] = None) -> None:
        self.patch(cls, attr, self.wrap(vars(cls)[attr], name, describe))

    def patch_function(self, fn: Callable, name: str,
                       describe: Optional[Callable] = None) -> None:
        """Wrap ``fn`` in every loaded ``repro`` module that binds it, so
        ``from module import fn`` copies are traced as well."""
        wrapper = self.wrap(fn, name, describe)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @property
    def patched(self) -> List[Tuple[Any, str, Any, bool]]:
        return list(self._patches)


def unrestored(records: Iterable[Tuple[Any, str, Any, bool]]) -> List[str]:
    """Of the ``(owner, attr, original, had_own)`` patch records taken
    before :meth:`Tracer.uninstall`, the ones whose attribute is not the
    original object again."""
    bad = []
    for owner, attr, original, had_own in records:
        current = vars(owner).get(attr)
        if (current is not original) if had_own else (attr in vars(owner)):
            bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return bad


# ----------------------------------------------------------------------
# The repro layers.

def _definers(kernels: Dict[str, Any], attr: str) -> List[type]:
    """The classes whose own body defines ``attr`` for the registered
    kernels (subclasses override the abstract base)."""
    owners: List[type] = []
    for kernel in kernels.values():
        owner = next(c for c in type(kernel).__mro__ if attr in vars(c))
        if owner not in owners:
            owners.append(owner)
    return owners


def _engine_attrs(args, kwargs, result) -> Dict[str, Any]:
    engine = args[0]
    return {"groups": len(engine.last_batches),
            "builds": engine.last_trace_builds,
            "failures": len(engine.last_failures),
            "pool_tasks": engine.last_pool_tasks,
            "retries": engine.last_retries,
            "pool_restarts": engine.last_pool_restarts,
            "timeouts": engine.last_timeouts}


def install_engine_only(tracer: Tracer) -> None:
    """Only ``SweepEngine.run``: what the untraced in-process passes use to
    read the engine's run time and counters."""
    from repro.sweep.engine import SweepEngine

    tracer.patch_method(SweepEngine, "run", "sweep.engine.run", _engine_attrs)


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (see ``perfbench/README.md``
    for the span -> metric map)."""
    from repro.analysis import report
    from repro.kernels.base import Kernel, KernelBuildResult
    from repro.kernels.registry import KERNELS
    from repro.sweep.cache import ResultCache
    from repro.sweep.client import ServiceClient
    from repro.sweep.journal import SweepJournal
    from repro.sweep.tracecache import TraceCache
    from repro.timing import dispatch
    from repro.trace import stats
    from repro.trace.container import Trace

    install_engine_only(tracer)

    for owner in _definers(KERNELS, "make_workload"):
        tracer.patch_method(owner, "make_workload", "kernels.workload")
    for owner in _definers(KERNELS, "reference"):
        tracer.patch_method(owner, "reference", "kernels.reference")
    tracer.patch_method(
        Kernel, "build", "kernels.emit",
        lambda args, kwargs, result: {"instr": len(args[2].trace)})
    correct = vars(KernelBuildResult)["correct"]
    tracer.patch(KernelBuildResult, "correct",
                 property(tracer.wrap(correct.fget, "kernels.check")))

    tracer.patch_method(Trace, "lower", "trace.lower")
    tracer.patch_function(stats.summarize_trace, "trace.stats")
    tracer.patch_function(dispatch.simulate_batch, "timing.simulate",
                          _simulate_attrs)

    hit = lambda args, kwargs, result: {"hit": result is not None}  # noqa: E731
    tracer.patch_method(ResultCache, "get", "sweep.cache.get", hit)
    tracer.patch_method(ResultCache, "put", "sweep.cache.put")
    tracer.patch_method(TraceCache, "get", "sweep.tracecache.get", hit)
    tracer.patch_method(TraceCache, "put", "sweep.tracecache.put")
    tracer.patch_method(SweepJournal, "record", "sweep.journal.record")
    tracer.patch_method(SweepJournal, "load", "sweep.journal.load")

    for name in ("format_speedup_table", "format_latency_table",
                 "format_breakdown_table"):
        tracer.patch_function(getattr(report, name), "analysis.format")

    tracer.patch_method(ServiceClient, "submit", "sweep.service.submit")
    tracer.patch_method(ServiceClient, "watch", "sweep.service.wait")
    tracer.patch_method(ServiceClient, "fetch", "sweep.service.fetch")
    tracer.patch(ServiceClient, "events",
                 tracer.count(vars(ServiceClient)["events"],
                              "sweep.service.poll"))


def _simulate_attrs(args, kwargs, result) -> Dict[str, Any]:
    from repro.timing.dispatch import resolve_execution

    trace, configs = args[0], args[1]
    backend = args[2] if len(args) > 2 else kwargs.get("backend", "auto")
    return {"backend": resolve_execution(backend, len(configs), len(trace)),
            "isa": trace.isa, "configs": len(configs),
            "instr": sum(r.instructions for r in result)}


# ----------------------------------------------------------------------
# Spans -> per-layer metrics.

def thread_sums(spans: List[Span]) -> Dict[int, Tuple[float, float]]:
    """Per thread: (sum of self times, sum of root-span durations).  The
    two agree when every child lies inside its parent."""
    own = self_times(spans)
    sums: Dict[int, List[float]] = defaultdict(lambda: [0.0, 0.0])
    for span, self_time in zip(spans, own):
        sums[span.thread][0] += self_time
        if span.parent is None:
            sums[span.thread][1] += span.duration
    return {thread: (a, b) for thread, (a, b) in sums.items()}


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Fold one traced pass's spans into the span-derived layer metrics."""
    own = self_times(spans)
    m: Dict[str, float] = defaultdict(float)
    for metric in SELF_TIME_METRICS.values():
        m[metric] = 0.0
    for span, self_time in zip(spans, own):
        metric = SELF_TIME_METRICS.get(span.name)
        if metric is not None:
            m[metric] += self_time
        a = span.attrs
        if span.name == "kernels.emit":
            m["kernels.builds"] += 1
            m["kernels.emitted_instr"] += a.get("instr", 0)
        elif span.name == "trace.lower":
            m["trace.lower_calls"] += 1
        elif span.name == "timing.simulate":
            m["timing.batches"] += 1
            m["timing.configs"] += a.get("configs", 0)
            m["timing.sim_instr"] += a.get("instr", 0)
            m[f"timing.simulate_s.{a.get('backend')}"] += self_time
            m[f"timing.simulate_s.{a.get('isa')}"] += self_time
        elif span.name in ("sweep.cache.get", "sweep.tracecache.get"):
            layer = span.name.rsplit(".", 1)[0]
            m[f"{layer}.gets"] += 1
            m[f"{layer}.hits"] += bool(a.get("hit"))
        elif span.name == "sweep.cache.put":
            m["sweep.cache.puts"] += 1
        elif span.name == "sweep.journal.record":
            m["sweep.journal.records"] += 1
        elif span.name == "sweep.engine.run":
            m["sweep.engine.run_s"] += span.duration
            m["sweep.engine.groups"] += a.get("groups", 0)
        elif span.name == "sweep.service.poll":
            m["sweep.service.polls"] += 1
    for layer in ("sweep.cache", "sweep.tracecache"):
        gets, hits = m[f"{layer}.gets"], m.pop(f"{layer}.hits", 0)
        m[f"{layer}.hit_ratio"] = hits / gets if gets else 0.0
    for name in BACKENDS + ISAS:
        m[f"timing.simulate_s.{name}"] += 0.0
    m["timing.sim_instr_per_s"] = (m["timing.sim_instr"] / m["timing.simulate_s"]
                                   if m["timing.simulate_s"] else 0.0)
    m["bench.spans"] = len(spans)
    return dict(m)


def engine_runs(spans: List[Span]) -> List[Span]:
    return [s for s in spans if s.name == "sweep.engine.run"]


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
