"""The metrics registry: layer 2 of MPROF.

One snapshot/delta API over every host-side metric the simulator keeps:

* the engine's :class:`repro.cpu.stats.PerfCounters` (tcache counters,
  host seconds, guest instructions) — flattened to one ``counters`` dict;
* the pipeline engine's stall counters, when the machine runs one;
* the attached :class:`~repro.profile.sink.TraceEventSink`'s per-trace
  aggregates;
* **per-mroutine attribution**: mram-namespace trace heads joined
  against the :class:`~repro.metal.loader.MetalImage` routine ranges and
  the MAS CFGs, so a hot MRAM pc becomes "routine ``pagefault``, loop at
  ``+0x18``" instead of a bare offset;
* **multi-machine aggregation**: snapshots from distinct machines merge
  without key collisions via shard-id namespacing
  (:meth:`Snapshot.namespaced` / :meth:`Snapshot.merge`) — the MSERVE
  fleet aggregator's ``/metrics`` path.

``snapshot()`` is cheap (dict copies, no simulation state touched) and
``Snapshot.delta(older)`` subtracts two snapshots field-by-field, so
benchmarks and tests can meter exactly one region of interest::

    reg = MetricsRegistry(machine)
    before = reg.snapshot()
    machine.run(...)
    d = reg.snapshot().delta(before)
    assert d.counters["hits"] > 0
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dc_fields
from typing import Optional

from repro.cpu.stats import TcacheStats
from repro.profile.sink import TraceAggregate, hot_sorted

#: TcacheStats counter names, in declaration order.
_TCACHE_FIELDS = tuple(f.name for f in dc_fields(TcacheStats))


@dataclass
class TraceAttribution:
    """One hot trace joined against the loaded Metal image."""

    ns: str
    head_pc: int
    hits: int
    instructions: int
    cycles: int
    avg_chain: float
    #: Owning mroutine name (mram namespace only), or None.
    routine: Optional[str] = None
    #: Byte offset of the head inside the routine's code, or None.
    offset: Optional[int] = None
    #: True when the head sits in a CFG block that is the target of a
    #: back edge — i.e. the trace is (the body of) a static loop.
    loop: bool = False
    #: Execution tier of the block currently cached at the head pc:
    #: ``"jit"`` (MJIT tier 2), ``"step"`` (predecoded, but only
    #: :meth:`~repro.cpu.functional.FunctionalSimulator.step` has run
    #: it), or None when nothing is cached there any more (evicted, or
    #: the machine runs without a tcache).
    tier: Optional[str] = None

    @property
    def label(self) -> str:
        """Human-readable location, e.g. ``pagefault+0x18 (loop)``."""
        if self.routine is not None:
            tag = " (loop)" if self.loop else ""
            return f"{self.routine}+{self.offset:#x}{tag}"
        return f"{self.ns}@{self.head_pc:#x}"


@dataclass
class Snapshot:
    """Point-in-time copy of every registered metric."""

    instret: int = 0
    cycles: int = 0
    host_seconds: float = 0.0
    guest_instructions: int = 0
    counters: dict = field(default_factory=dict)
    #: Pipeline stall counters (load_use/control/fetch) or empty dict.
    stalls: dict = field(default_factory=dict)
    #: (ns, head_pc) -> TraceAggregate from the sink (empty w/o profiling).
    traces: dict = field(default_factory=dict)

    def delta(self, older: "Snapshot") -> "Snapshot":
        """This snapshot minus *older* (all counters and aggregates)."""
        counters = {
            k: v - older.counters.get(k, 0) for k, v in self.counters.items()
        }
        stalls = {k: v - older.stalls.get(k, 0) for k, v in self.stalls.items()}
        traces = {}
        for key, agg in self.traces.items():
            old = older.traces.get(key)
            if old is None:
                traces[key] = agg
                continue
            hits = agg.hits - old.hits
            if hits <= 0 and agg.instructions == old.instructions:
                continue
            traces[key] = TraceAggregate(
                agg.ns, agg.head_pc, hits,
                agg.instructions - old.instructions,
                agg.chain_total - old.chain_total,
                agg.cycles - old.cycles,
            )
        return Snapshot(
            instret=self.instret - older.instret,
            cycles=self.cycles - older.cycles,
            host_seconds=self.host_seconds - older.host_seconds,
            guest_instructions=(self.guest_instructions
                                - older.guest_instructions),
            counters=counters,
            stalls=stalls,
            traces=traces,
        )

    def hot_traces(self, top: Optional[int] = None,
                   key: str = "instructions") -> list:
        """Hottest traces with the shared stable ``(-count, ns, head_pc)``
        ordering (:func:`repro.profile.sink.hot_sorted`) — byte-identical
        whether this snapshot was recorded inline or rebuilt by
        :meth:`merge`/:meth:`add` from shard deltas in any order."""
        return hot_sorted(self.traces.values(), top=top, key=key)

    # -- multi-machine aggregation (MSERVE fleet) ------------------------
    def add(self, other: "Snapshot") -> "Snapshot":
        """This snapshot plus *other*, key-unioned.

        For accumulating successive *deltas of the same machine* (one
        shard's per-request deltas into its running total).  Snapshots
        of *different* machines must be :meth:`namespaced` first —
        their counter names collide otherwise.
        """
        counters = dict(self.counters)
        for k, v in other.counters.items():
            counters[k] = counters.get(k, 0) + v
        stalls = dict(self.stalls)
        for k, v in other.stalls.items():
            stalls[k] = stalls.get(k, 0) + v
        traces = dict(self.traces)
        for key, agg in other.traces.items():
            mine = traces.get(key)
            if mine is None:
                traces[key] = agg
            else:
                traces[key] = TraceAggregate(
                    agg.ns, agg.head_pc, mine.hits + agg.hits,
                    mine.instructions + agg.instructions,
                    mine.chain_total + agg.chain_total,
                    mine.cycles + agg.cycles,
                )
        return Snapshot(
            instret=self.instret + other.instret,
            cycles=self.cycles + other.cycles,
            host_seconds=self.host_seconds + other.host_seconds,
            guest_instructions=(self.guest_instructions
                                + other.guest_instructions),
            counters=counters, stalls=stalls, traces=traces,
        )

    def namespaced(self, shard_id) -> "Snapshot":
        """A copy with every key prefixed by *shard_id*.

        Counter and stall names become ``"<shard>/<name>"`` and trace
        namespaces ``"<shard>:<ns>"``, so snapshots taken from distinct
        Machine instances can be merged without key collisions — the
        historical bug was that two shards' ``hits`` counters silently
        shadowed each other in a plain dict update.
        """
        prefix = f"{shard_id}/"
        return Snapshot(
            instret=self.instret,
            cycles=self.cycles,
            host_seconds=self.host_seconds,
            guest_instructions=self.guest_instructions,
            counters={prefix + k: v for k, v in self.counters.items()},
            stalls={prefix + k: v for k, v in self.stalls.items()},
            traces={
                (f"{shard_id}:{ns}", pc): TraceAggregate(
                    f"{shard_id}:{agg.ns}", agg.head_pc, agg.hits,
                    agg.instructions, agg.chain_total, agg.cycles)
                for (ns, pc), agg in self.traces.items()
            },
        )

    @staticmethod
    def merge(parts: dict) -> "Snapshot":
        """Merge ``{shard_id: Snapshot}`` into one fleet snapshot.

        Scalar totals (instret, cycles, host seconds, guest
        instructions) sum across shards; counters, stalls and traces
        are namespaced by shard id first (:meth:`namespaced`), so no
        per-shard key can collide with another shard's.  This is the
        API the MSERVE fleet aggregator feeds ``/metrics`` from.
        """
        merged = Snapshot()
        for shard_id in sorted(parts, key=str):
            merged = merged.add(parts[shard_id].namespaced(shard_id))
        return merged

    # -- transport (across the shard process boundary) -------------------
    def to_dict(self) -> dict:
        """A pickle/JSON-safe dict (see :meth:`from_dict`)."""
        return {
            "instret": self.instret,
            "cycles": self.cycles,
            "host_seconds": self.host_seconds,
            "guest_instructions": self.guest_instructions,
            "counters": dict(self.counters),
            "stalls": dict(self.stalls),
            "traces": [
                [agg.ns, agg.head_pc, agg.hits, agg.instructions,
                 agg.chain_total, agg.cycles]
                for agg in self.traces.values()
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Snapshot":
        """Rebuild a snapshot serialized with :meth:`to_dict`."""
        traces = {}
        for ns, pc, hits, instructions, chain_total, cycles in (
                payload.get("traces") or []):
            traces[(ns, pc)] = TraceAggregate(
                ns, pc, hits, instructions, chain_total, cycles)
        return cls(
            instret=payload.get("instret", 0),
            cycles=payload.get("cycles", 0),
            host_seconds=payload.get("host_seconds", 0.0),
            guest_instructions=payload.get("guest_instructions", 0),
            counters=dict(payload.get("counters") or {}),
            stalls=dict(payload.get("stalls") or {}),
            traces=traces,
        )


class MetricsRegistry:
    """Snapshot/delta façade over one machine's metrics."""

    def __init__(self, machine):
        self.machine = machine

    def snapshot(self) -> Snapshot:
        machine = self.machine
        sim = machine.sim
        perf = sim.perf
        tc = perf.tcache
        counters = {name: getattr(tc, name) for name in _TCACHE_FIELDS}
        stalls = {}
        timer = sim.timer
        if hasattr(timer, "stall_load_use"):
            stalls = {
                "load_use": timer.stall_load_use,
                "control": timer.stall_control,
                "fetch": timer.stall_fetch,
            }
        sink = sim.profile_sink
        traces = sink.trace_table() if sink is not None else {}
        return Snapshot(
            instret=machine.core.instret,
            cycles=timer.cycles,
            host_seconds=perf.host_seconds,
            guest_instructions=perf.guest_instructions,
            counters=counters,
            stalls=stalls,
            traces=traces,
        )

    # -- attribution --------------------------------------------------------
    def attribute(self, snapshot: Optional[Snapshot] = None,
                  top: Optional[int] = None,
                  key: str = "instructions") -> list:
        """Hot traces of *snapshot* (default: a fresh one) joined against
        the Metal image: a list of :class:`TraceAttribution`, hottest
        first."""
        if snapshot is None:
            snapshot = self.snapshot()
        return [
            attribute_trace(self.machine, agg)
            for agg in snapshot.hot_traces(top=top, key=key)
        ]

    def mroutine_report(self, snapshot: Optional[Snapshot] = None) -> list:
        """Per-mroutine rollup: ``(routine, hits, instructions, cycles,
        loop_rows)`` where *loop_rows* are the routine's loop-headed
        traces — "time per mroutine, per loop".  Traces outside any
        routine roll up under ``None``."""
        rows = self.attribute(snapshot)
        by_routine = {}
        for row in rows:
            slot = by_routine.setdefault(
                row.routine, {"hits": 0, "instructions": 0, "cycles": 0,
                              "loops": []})
            slot["hits"] += row.hits
            slot["instructions"] += row.instructions
            slot["cycles"] += row.cycles
            if row.loop:
                slot["loops"].append(row)
        report = [
            (name, s["hits"], s["instructions"], s["cycles"], s["loops"])
            for name, s in by_routine.items()
        ]
        report.sort(key=lambda r: r[2], reverse=True)
        return report


def attribute_trace(machine, agg: TraceAggregate) -> TraceAttribution:
    """Join one aggregate against the machine's loaded Metal image."""
    row = TraceAttribution(
        ns=agg.ns, head_pc=agg.head_pc, hits=agg.hits,
        instructions=agg.instructions, cycles=agg.cycles,
        avg_chain=agg.avg_chain,
    )
    tcache = getattr(machine.sim, "tcache", None)
    if tcache is not None:
        row.tier = tcache.tier_of(agg.ns, agg.head_pc)
    if agg.ns != "mram":
        return row
    image = getattr(machine, "metal_image", None)
    if image is None:
        return row
    routine = image.routine_at(agg.head_pc)
    if routine is None:
        return row
    row.routine = routine.name
    row.offset = agg.head_pc - routine.code_offset
    result = image.analysis.get(routine.name)
    if result is not None:
        cfg = result.cfg
        block_index = cfg.block_of_word.get(row.offset // 4)
        if block_index is not None:
            row.loop = any(dst == block_index for _src, dst in cfg.back_edges)
    return row
