"""Deterministic fault injection for the sweep stack.

Robustness code that is only exercised by real hardware failures is
untestable code.  This module gives the test suite (and the CI chaos step)
a reproducible way to make sweep execution *misbehave on purpose* — a
worker that dies, hangs, raises, or crawls — at exactly the points the
test chose, exactly the number of times it chose.

Activation is via the environment so the faults reach pool workers (which
inherit the parent's environment) without any API plumbing::

    REPRO_FAULT_INJECT='{"state_dir": "/tmp/faults", "faults": [
        {"kind": "crash", "kernel": "comp", "isa": "mmx", "times": 1},
        {"kind": "hang",  "kernel": "h2v2", "seconds": 60, "times": 1},
        {"kind": "raise", "kernel": "addblock", "times": -1}
    ]}'

Each rule fires when a sweep point matching its ``kernel``/``isa``/
``config`` selectors (``None`` = any) reaches the simulation phase:

* ``crash`` — the process SIGKILLs itself (a pool worker death, the
  ``BrokenProcessPool`` path);
* ``hang``  — sleep ``seconds`` (long enough that only a task deadline
  ends it — the hung-worker path);
* ``raise`` — raise :class:`InjectedFault` (the kernel-exception path);
* ``slow``  — sleep ``seconds`` and then proceed normally.

``times`` bounds how often a rule fires (``-1`` = every time: a *poison
point*).  The budget is honoured **across processes**: each firing claims
one slot file in ``state_dir`` with ``O_CREAT | O_EXCL``, so a rule set to
fire once fires once no matter how many workers race for it, and a
re-submitted group finds the budget already spent — which is exactly what
makes "transient" faults deterministic.  Without a ``state_dir`` the
budget is per-process.

``crash`` and ``hang`` default to ``scope: "worker"`` — they only fire
inside a pool worker process (marked by :func:`mark_worker`), never in the
parent, so an injected worker crash cannot take down the sweep process
that is supposed to survive it.  Pass ``"scope": "any"`` to override.

Determinism note: rules fire on the first *matching point* that reaches
them, and sweep expansion order is deterministic — so serially the firing
point is fully determined, and under a pool the set of candidate points is.
Make selectors specific (kernel + ISA + config) when a test needs one
exact point.

Service-level stages
--------------------

Rules default to ``stage: "point"`` — they fire where a sweep point is
simulated.  Code above the engine (the sweep service of
:mod:`repro.sweep.service`) declares its own named stages and calls
:func:`fire_stage` at them; a rule whose ``stage`` names one fires there
instead, with the same kinds, budgets and cross-process slot files::

    {"kind": "crash", "stage": "service.result", "times": 2}

SIGKILLs the server right after a result is durably logged — and,
because the budget lives in ``state_dir`` slot files, a restarted server
dies once more after its next *fresh* result, then the third incarnation
runs to completion: a deterministic kill/restart/kill/restart chaos
sequence from one rule.  Stage rules ignore the point selectors
(there is no point at a service stage) and default to ``scope: "any"``
(the stage site *is* the process under test).
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

__all__ = ["FAULT_ENV", "FAULT_KINDS", "FaultPlan", "FaultRule",
           "InjectedFault", "fire_faults", "fire_stage", "in_worker",
           "mark_worker"]

#: Environment variable holding the JSON fault specification.
FAULT_ENV = "REPRO_FAULT_INJECT"

#: The fault kinds :meth:`FaultPlan.maybe_fire` understands.
FAULT_KINDS = ("crash", "hang", "raise", "slow")

#: Process-local flag: are we inside a pool worker?  Workers are forked
#: (or spawned) from the engine, which marks them in ``_init_pool_worker``.
_IN_WORKER = False


def mark_worker() -> None:
    """Mark this process as a pool worker (crash/hang rules may fire)."""
    global _IN_WORKER
    _IN_WORKER = True


def in_worker() -> bool:
    """Whether this process has been marked as a pool worker."""
    return _IN_WORKER


class InjectedFault(RuntimeError):
    """The exception ``raise`` rules throw: unmistakably synthetic."""


@dataclass
class FaultRule:
    """One injection rule (see the module docstring for the JSON form)."""

    kind: str
    kernel: Optional[str] = None
    isa: Optional[str] = None
    config: Optional[str] = None
    times: int = 1
    seconds: float = 3600.0
    scope: Optional[str] = None  # None = kind default (crash/hang: worker)
    message: str = "injected fault"
    #: Where the rule fires: ``"point"`` (default — the engine's per-point
    #: simulation site) or any named service stage passed to
    #: :func:`fire_stage` (e.g. ``"service.result"``).
    stage: str = "point"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {FAULT_KINDS}")
        if self.scope is None:
            # At a service stage the process at the stage site is the one
            # under test, so worker scoping would make the rule inert.
            self.scope = ("worker" if self.kind in ("crash", "hang")
                          and self.stage == "point" else "any")
        if self.scope not in ("worker", "any"):
            raise ValueError(f"unknown fault scope {self.scope!r}")

    def matches(self, point: "SweepPoint") -> bool:  # noqa: F821
        """Whether the rule's selectors accept this (resolved) point."""
        if self.kernel is not None and point.kernel != self.kernel:
            return False
        if self.isa is not None and point.isa != self.isa:
            return False
        if self.config is not None and point.config.name != self.config:
            return False
        return True


class FaultPlan:
    """A parsed fault specification plus its cross-process firing state."""

    def __init__(self, rules: List[FaultRule],
                 state_dir: Optional[str] = None) -> None:
        self.rules = list(rules)
        self.state_dir = state_dir
        self._local_counts: Dict[int, int] = {}
        #: Firings this process performed (observable by tests; ``crash``
        #: firings are observable only via the process death itself).
        self.fired: List[str] = []

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the JSON spec (an object with ``faults``, or a bare list)."""
        data = json.loads(text)
        if isinstance(data, list):
            data = {"faults": data}
        if not isinstance(data, dict):
            raise ValueError(f"fault spec must be a JSON object or list, "
                             f"got {type(data).__name__}")
        rules = [FaultRule(**entry) for entry in data.get("faults", [])]
        return cls(rules, state_dir=data.get("state_dir"))

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None,
                 ) -> Optional["FaultPlan"]:
        """Build the active plan from :data:`FAULT_ENV`, or ``None``.

        The parse is memoised per spec string — the engine consults the
        plan on every simulated group, and one process keeps one budget
        for one spec.
        """
        env = os.environ if environ is None else environ
        text = env.get(FAULT_ENV)
        if not text:
            return None
        cached = _PLAN_CACHE.get(text)
        if cached is None:
            cached = cls.parse(text)
            _PLAN_CACHE.clear()  # one active spec at a time
            _PLAN_CACHE[text] = cached
        return cached

    # -- firing ------------------------------------------------------------

    def _claim(self, rule_index: int, rule: FaultRule) -> bool:
        """Atomically claim one firing slot of a rule; False = exhausted.

        With a ``state_dir`` the claim is one ``O_CREAT | O_EXCL`` file per
        slot, so the budget holds across every process sharing the spec.
        """
        if rule.times < 0:
            return True
        if rule.times == 0:
            return False
        if self.state_dir:
            os.makedirs(self.state_dir, exist_ok=True)
            for slot in range(rule.times):
                path = os.path.join(self.state_dir,
                                    f"rule{rule_index}.slot{slot}")
                try:
                    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    continue
                os.close(fd)
                return True
            return False
        used = self._local_counts.get(rule_index, 0)
        if used >= rule.times:
            return False
        self._local_counts[rule_index] = used + 1
        return True

    def maybe_fire(self, point: "SweepPoint") -> None:  # noqa: F821
        """Fire the first matching armed rule for this point (if any).

        ``crash`` does not return; ``hang``/``slow`` sleep first; ``raise``
        raises :class:`InjectedFault`.  Rules scoped to workers are inert
        outside one.
        """
        for index, rule in enumerate(self.rules):
            if rule.stage != "point":
                continue
            if rule.scope == "worker" and not in_worker():
                continue
            if not rule.matches(point):
                continue
            if not self._claim(index, rule):
                continue
            self._execute(rule, f"{point.kernel}/{point.isa} on "
                                f"{point.config.name}")
            return

    def fire_stage(self, stage: str, label: str = "") -> None:
        """Fire the first armed rule declared for a named service stage.

        Point selectors do not apply (there is no point at a service
        stage); only ``stage``, ``scope`` and the firing budget do.
        ``label`` annotates the raised message (e.g. a job id).
        """
        for index, rule in enumerate(self.rules):
            if rule.stage != stage:
                continue
            if rule.scope == "worker" and not in_worker():
                continue
            if not self._claim(index, rule):
                continue
            self._execute(rule, f"stage {stage}" + (f", {label}" if label
                                                    else ""))
            return

    def _execute(self, rule: FaultRule, where: str) -> None:
        """Carry out one claimed firing (shared by both fire sites)."""
        self.fired.append(rule.kind)
        if rule.kind == "crash":
            os.kill(os.getpid(), signal.SIGKILL)  # never returns
        elif rule.kind == "hang":
            time.sleep(rule.seconds)
        elif rule.kind == "raise":
            raise InjectedFault(f"{rule.message} ({where})")
        elif rule.kind == "slow":
            time.sleep(rule.seconds)


#: Memoised plans keyed by the exact spec string (see ``from_env``).
_PLAN_CACHE: Dict[str, FaultPlan] = {}


def fire_faults(point: "SweepPoint") -> None:  # noqa: F821
    """Engine hook: fire any armed injected fault for this point.

    A no-op (one dict lookup) when :data:`FAULT_ENV` is unset — the hot
    path pays nothing for the harness's existence.
    """
    plan = FaultPlan.from_env()
    if plan is not None:
        plan.maybe_fire(point)


def fire_stage(stage: str, label: str = "") -> None:
    """Service hook: fire any armed injected fault at a named stage.

    Like :func:`fire_faults` but for sites above the engine — the sweep
    service calls it at its own stages (``"service.result"``,
    ``"service.submit"``, ...).  A no-op when :data:`FAULT_ENV` is unset.
    """
    plan = FaultPlan.from_env()
    if plan is not None:
        plan.fire_stage(stage, label=label)
