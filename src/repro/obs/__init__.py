"""Unified observability: span tracing plus a process-wide metric registry.

The paper's argument (§4, Figs. 6-8) rests on *measured* memory and time
behaviour; this package is the one place every layer reports into:

* :class:`Tracer` / :func:`maybe_span` — nested, timed spans with
  structured attributes, installed process-wide via :func:`set_tracer`.
  Disabled (the default), every instrumented site costs one ``is None``
  check. Worker processes export their spans through the parallel
  miner's event-replay channel and the parent ingests them
  deterministically.
* :data:`metrics` — a :class:`MetricsRegistry` of counters and gauges
  that components publish their private counters into at phase
  boundaries (buffer-pool hits/faults/evictions, subarray-cache
  hits/misses/evictions/rejections, page I/O).
* :mod:`repro.obs.report` (imported on demand; it pulls in
  :mod:`repro.machine`) — trace parsing, the ``repro stats`` summary
  table, and :func:`repro.obs.report.meter_from_trace`, which rebuilds a
  :class:`repro.machine.Meter` from the span stream.

See docs/observability.md for the span model and the trace file format.
"""

from repro.obs.registry import Histogram, MetricsRegistry, metrics
from repro.obs.tracer import (
    NULL_SPAN,
    Span,
    SpanRecord,
    TRACE_VERSION,
    Tracer,
    get_tracer,
    maybe_span,
    owned_tracer,
    set_tracer,
)

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "metrics",
    "Tracer",
    "Span",
    "SpanRecord",
    "TRACE_VERSION",
    "NULL_SPAN",
    "get_tracer",
    "owned_tracer",
    "set_tracer",
    "maybe_span",
]
