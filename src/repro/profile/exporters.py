"""Report rendering and trace export: layer 3 of MPROF.

Two output formats over the same recorded data:

* :func:`format_hot_traces` — the human-readable hot-trace report shown
  by ``python -m repro profile``: top-N traces by retired instructions,
  per-mroutine/per-loop attribution, the execution tier currently
  holding each trace head (MJIT ``jit``, or ``step`` for a block only
  ``step()`` has run), and the head of each trace disassembled so the
  hot loop body is visible in the terminal.
* :func:`chrome_trace` — a Chrome-trace / Perfetto ``traceEvents`` JSON
  payload: one complete ("X") event per retired-trace ring record, one
  instant ("i") event per translation-cache event (compiles,
  invalidations, flushes, chain breaks).  Load it at ``ui.perfetto.dev``
  or ``chrome://tracing``.

:func:`validate_chrome_trace` checks a payload against the subset of the
Chrome trace-event schema we emit; the CLI validates every payload
before writing it and the CI ``profile-smoke`` job validates the
artifact again after the fact.
"""

from __future__ import annotations

from repro.isa.disasm import format_instruction
from repro.isa.decoder import decode

#: Synthetic pid/tids for the exported timeline.  One "process" (the
#: machine), one thread lane per namespace plus one for tcache events.
_PID = 1
_TID_MEM = 1
_TID_MRAM = 2
_TID_TCACHE = 3

_LANES = {"mem": _TID_MEM, "mram": _TID_MRAM}

#: Event phases we emit (subset of the Chrome trace-event spec).
_PHASES = {"X", "i", "M"}


# ---------------------------------------------------------------------------
# text report
# ---------------------------------------------------------------------------
def _disasm_head(machine, row, limit: int = 4) -> list:
    """Disassemble up to *limit* instructions at a trace head."""
    lines = []
    if row.ns == "mram":
        unit = machine.core.metal
        if unit is None:
            return lines
        fetch = unit.mram.fetch
    else:
        fetch = machine.read_word
    try:
        for i in range(limit):
            addr = row.head_pc + 4 * i
            instr = decode(fetch(addr))
            lines.append(f"    {addr:#010x}: {format_instruction(instr)}")
    except Exception:
        pass  # out-of-range head or undecodable word: show what we have
    return lines


def format_hot_traces(machine, registry, snapshot=None, top: int = 10,
                      disasm: int = 4) -> str:
    """The hot-trace report: top-*top* traces plus mroutine rollup."""
    if snapshot is None:
        snapshot = registry.snapshot()
    rows = registry.attribute(snapshot, top=top)
    out = []
    out.append(f"hot traces (top {top} by retired instructions)")
    out.append("=" * 60)
    if not rows:
        out.append("  (no traces recorded — is profiling enabled?)")
    for rank, row in enumerate(rows, 1):
        share = (row.instructions / snapshot.guest_instructions
                 if snapshot.guest_instructions else 0.0)
        tier = f"  [tier: {row.tier}]" if row.tier is not None else ""
        out.append(
            f"#{rank:<2} [{row.ns}] {row.head_pc:#010x}  {row.label}{tier}"
        )
        out.append(
            f"    {row.instructions} instrs ({share:.1%} of run), "
            f"{row.hits} retirements, avg chain {row.avg_chain:.1f}, "
            f"{row.cycles} cycles"
        )
        if disasm:
            out.extend(_disasm_head(machine, row, disasm))
    out.append("")
    out.append("per-mroutine attribution")
    out.append("=" * 60)
    report = registry.mroutine_report(snapshot)
    any_routine = False
    for name, hits, instructions, cycles, loops in report:
        if name is None:
            continue
        any_routine = True
        out.append(f"{name:<16} {instructions:>10} instrs  {cycles:>10} "
                   f"cycles  {hits:>6} retirements")
        for loop in loops:
            out.append(f"  loop {loop.label:<20} {loop.instructions:>10} "
                       f"instrs  avg chain {loop.avg_chain:.1f}")
    if not any_routine:
        out.append("  (no mram traces attributed — normal-mode workload "
                   "or no Metal image)")
    other = [r for r in report if r[0] is None]
    if other:
        _, hits, instructions, cycles, _ = other[0]
        out.append(f"{'<mem/unattributed>':<16} {instructions:>10} instrs  "
                   f"{cycles:>10} cycles  {hits:>6} retirements")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------
def chrome_trace(machine, sink, registry=None) -> dict:
    """Build a Chrome-trace ``traceEvents`` payload from the sink.

    Timestamps are guest cycles reported as microseconds (Perfetto wants
    integers; one cycle == one "us" keeps the timeline proportional).
    Trace retirements become complete events on a per-namespace lane;
    tcache events become instant events on their own lane.
    """
    events = []
    for tid, name in ((_TID_MEM, "traces:mem"), (_TID_MRAM, "traces:mram"),
                      (_TID_TCACHE, "tcache events")):
        events.append({
            "ph": "M", "pid": _PID, "tid": tid, "name": "thread_name",
            "args": {"name": name},
        })
    events.append({
        "ph": "M", "pid": _PID, "name": "process_name",
        "args": {"name": "repro machine"},
    })
    attribute = None
    if registry is not None:
        attribute = {
            (row.ns, row.head_pc): row
            for row in registry.attribute(registry.snapshot())
        }
    for rec in sink.records():
        end, ns, pc, chain, instrs, cycles = rec
        name = f"{ns}@{pc:#x}"
        if attribute is not None:
            row = attribute.get((ns, pc))
            if row is not None and row.routine is not None:
                name = row.label
        events.append({
            "ph": "X", "pid": _PID, "tid": _LANES.get(ns, _TID_MEM),
            "name": name, "cat": f"trace,{ns}",
            "ts": end - cycles, "dur": max(cycles, 1),
            "args": {"head_pc": pc, "chain": chain, "instructions": instrs},
        })
    for seq, ts, kind, ns, pc, count in sink.events():
        events.append({
            "ph": "i", "pid": _PID, "tid": _TID_TCACHE,
            "name": f"{kind}:{ns}@{pc:#x}", "cat": f"tcache,{kind}",
            "ts": ts, "s": "p",
            "args": {"kind": kind, "ns": ns, "pc": pc, "count": count,
                     "seq": seq},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "exporter": "repro.profile",
            "total_traces": sink.total_traces,
            "ring_wrapped": sink.wrapped,
            "tcache_events_dropped": sink.events_dropped,
        },
    }


def validate_chrome_trace(payload) -> None:
    """Raise :class:`ValueError` unless *payload* is a structurally valid
    Chrome-trace JSON object (the subset this exporter emits)."""
    if not isinstance(payload, dict):
        raise ValueError("payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("payload['traceEvents'] must be a list")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        ph = ev.get("ph")
        if ph not in _PHASES:
            raise ValueError(f"traceEvents[{i}]: unknown phase {ph!r}")
        if not isinstance(ev.get("name"), str):
            raise ValueError(f"traceEvents[{i}]: missing/invalid 'name'")
        if not isinstance(ev.get("pid"), int):
            raise ValueError(f"traceEvents[{i}]: missing/invalid 'pid'")
        if ph == "X":
            for field in ("ts", "dur", "tid"):
                if not isinstance(ev.get(field), int):
                    raise ValueError(
                        f"traceEvents[{i}]: 'X' event needs int {field!r}")
            if ev["dur"] < 0 or ev["ts"] < 0:
                raise ValueError(
                    f"traceEvents[{i}]: negative ts/dur")
        elif ph == "i":
            if not isinstance(ev.get("ts"), int):
                raise ValueError(
                    f"traceEvents[{i}]: 'i' event needs int 'ts'")
            if ev.get("s") not in ("g", "p", "t"):
                raise ValueError(
                    f"traceEvents[{i}]: 'i' event needs scope s in g/p/t")
