"""Dynamic instruction traces.

The functional front end (:mod:`repro.frontend`) executes kernels at emit
time and records each dynamic instruction — by default into the
:class:`TraceColumns` recorder (flat arrays, zero per-instruction
objects), with :class:`DynInstr` objects materialised lazily on
iteration.  The timing model (:mod:`repro.timing`) consumes the records;
the analysis layer (:mod:`repro.analysis`) derives the paper's
operation-count metrics from them.
"""
