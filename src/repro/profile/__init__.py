"""MPROF: trace-level profiling & observability for the repro machine.

Three layers (see ``docs/PROFILING.md``):

1. :mod:`repro.profile.sink` — the near-zero-overhead trace event sink
   the execution engines feed (ring buffer + per-trace aggregates +
   tcache event log), plus the :class:`StepHub` per-step fan-out.
2. :mod:`repro.profile.registry` — the metrics registry: one
   snapshot/delta API over engine counters, pipeline stalls and sink
   aggregates, with per-mroutine / per-loop attribution via the Metal
   image and its MAS CFGs.
3. :mod:`repro.profile.exporters` — the hot-trace text report and the
   Chrome-trace/Perfetto JSON exporter (plus its validator).

The CLI (``python -m repro profile``) lives in
:mod:`repro.profile.cli`; it is deliberately **not** imported here —
``repro.cpu.functional`` imports this package, and the CLI imports the
machine builder, which would close an import cycle.
"""

from repro.profile.sink import (  # noqa: F401
    DEFAULT_CAPACITY,
    StepHub,
    TraceAggregate,
    TraceEventSink,
)
from repro.profile.registry import (  # noqa: F401
    MetricsRegistry,
    Snapshot,
    TraceAttribution,
    attribute_trace,
)
from repro.profile.exporters import (  # noqa: F401
    chrome_trace,
    format_hot_traces,
    validate_chrome_trace,
)
