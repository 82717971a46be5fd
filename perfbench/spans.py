"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around its calls
into each layer's public functions: name, start, end, parent span and
job id.  Nothing is written until the run ends, when the spans become a
Chrome/Perfetto trace (checked with the program's own
``repro.profile.exporters.validate_chrome_trace``).

The untraced run uses :class:`NullRecorder`, which keeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float          # perf_counter seconds
    end: float
    parent: Optional[int]
    job: object
    lane: int = 1


class SpanRecorder:
    """Collects spans; parents are explicit ids, so concurrent jobs
    (the fleet's client coroutines) interleave safely."""

    def __init__(self):
        self.spans = []

    def add(self, name: str, start: float, end: float, job,
            parent: Optional[int] = None, lane: int = 1) -> int:
        span_id = len(self.spans)
        self.spans.append(Span(span_id, name, start, end, parent, job, lane))
        return span_id

    def self_times(self) -> dict:
        """``{span_id: seconds}``: each span's duration minus the part
        of its interval that its children cover."""
        children = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result = {}
        for span in self.spans:
            covered = _union_length(
                [(max(c.start, span.start), min(c.end, span.end))
                 for c in children.get(span.span_id, ())])
            result[span.span_id] = max(0.0, (span.end - span.start) - covered)
        return result

    def self_times_by_name(self) -> dict:
        """``{name: [(job, self seconds), ...]}`` in recording order."""
        own = self.self_times()
        grouped = {}
        for span in self.spans:
            grouped.setdefault(span.name, []).append(
                (span.job, own[span.span_id]))
        return grouped

    def chrome_trace(self, process_name: str) -> dict:
        """The spans as a Chrome-trace ``traceEvents`` payload (integer
        microseconds from the first span's start)."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [{"ph": "M", "pid": 1, "name": "process_name",
                   "args": {"name": process_name}}]
        for span in self.spans:
            ts = int(round((span.start - origin) * 1e6))
            dur = max(0, int(round((span.end - span.start) * 1e6)))
            events.append({
                "ph": "X", "pid": 1, "tid": span.lane, "name": span.name,
                "cat": "perfbench", "ts": ts, "dur": dur,
                "args": {"job": str(span.job), "span": span.span_id,
                         "parent": span.parent},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class NullRecorder:
    """The untraced run's recorder: records nothing."""

    def add(self, name, start, end, job, parent=None, lane=1):
        return None


def _union_length(intervals: list) -> float:
    total = 0.0
    reach = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total
