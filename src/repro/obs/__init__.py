"""Observability: execution tracing and derived metrics.

The tracing subsystem records *structured events* from every layer of
the stack — I/O request lifecycle, buffer behaviour, per-operator spans,
session/batch decisions — stamped with the **simulated** clock, and
derives per-operator / per-cluster rollups reported beside the run's
:class:`~repro.sim.stats.Stats` (the only counter store).

Design constraints (see ``docs/observability.md``):

* **zero overhead when off** — every instrumentation site is a single
  ``if tracer is not None`` test, the same discipline as budget
  enforcement in ``EvalContext.charge_call``;
* **non-perturbing when on** — the tracer never touches the simulated
  clock, so traced runs report bit-identical simulated timings;
* **bounded memory** — events land in a ring buffer; the rollups are
  maintained online and survive ring overflow.
"""

from repro.obs.metrics import TraceSummary, format_metrics
from repro.obs.tracer import TraceEvent, Tracer

__all__ = ["TraceEvent", "TraceSummary", "Tracer", "format_metrics"]
