"""MPROF: trace-level profiling & observability for the repro machine.

Three layers (see ``docs/PROFILING.md``):

1. :mod:`repro.profile.sink` — the near-zero-overhead trace event sink
   the execution engines feed (ring buffer + per-trace aggregates +
   tcache event log).
2. :mod:`repro.profile.registry` — the metrics registry: one
   snapshot/delta API over engine counters, pipeline stalls and sink
   aggregates, with per-mroutine / per-loop attribution via the Metal
   image and its MAS CFGs.
3. :mod:`repro.profile.exporters` — the hot-trace text report and the
   Chrome-trace/Perfetto JSON exporter (plus its validator).

The CLI (``python -m repro profile``) lives in
:mod:`repro.profile.cli` and is not imported here: ``python -m repro``
imports each subsystem CLI lazily, when its subcommand runs.  The
engines do not import this package; a machine attaches a sink through
:meth:`repro.machine.machine.Machine.set_profiling`.
"""

from repro.profile.sink import (  # noqa: F401
    DEFAULT_CAPACITY,
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
