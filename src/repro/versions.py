"""The two version stamps that key every stored result.

Both live here, in a module that imports nothing, so the result-cache hit
path (:func:`repro.sweep.cache.point_key`) can read them without loading
the front end, the timing model or NumPy.  Every reader — the result and
trace cache keys, the journal, the service's job ids and ``repro
--version`` — reads ``repro.versions.<NAME>`` at call time, so a bump (or a
test's ``monkeypatch.setattr(repro.versions, ...)``) is seen everywhere.
"""

__all__ = ["BUILDER_VERSION", "MODEL_VERSION"]

#: Version tag of the functional front end's *emitted instruction streams*.
#: Bump whenever a builder or kernel change can alter the trace produced for
#: any (kernel, ISA, workload) — the trace cache folds this into every key,
#: so a bump invalidates all cached traces.  Pure refactors that keep every
#: emitted stream identical must NOT bump it.
BUILDER_VERSION = "1"

#: Version tag of the timing model's *numbers*.  Bump whenever a change can
#: alter simulated cycle counts for any trace/configuration — the sweep
#: result cache folds this into every key, so a bump invalidates all cached
#: results.  Pure-performance refactors that preserve the numbers (checked
#: by tests/test_golden_regression.py) must NOT bump it.
MODEL_VERSION = "1"
