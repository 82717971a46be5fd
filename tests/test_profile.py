"""MPROF tests: trace event sink, metrics registry, exporters and the
profile CLI.

The load-bearing properties:

* the sink is guest-invisible — enabling profiling never changes
  architectural state, instruction counts or cycle counts, and with no
  sink attached the counters don't move;
* the ring buffer wraps without losing the aggregates;
* snapshot/delta isolates exactly the metered region;
* exported Chrome-trace JSON is schema-valid (and the validator actually
  rejects malformed payloads).
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from repro import MRoutine, build_metal_machine
from repro.cpu.exceptions import Cause
from repro.machine.builder import MachineConfig
from repro.osdemo.scheduler import boot_scheduler_demo
from repro.profile.exporters import chrome_trace, validate_chrome_trace
from repro.profile.registry import MetricsRegistry, Snapshot
from repro.profile.sink import TraceAggregate, TraceEventSink
from repro.profile.workloads import WORKLOADS, workload_source

LOOP = """
_start:
    li   s0, %d
loop:
    addi a0, a0, 1
    addi s0, s0, -1
    bnez s0, loop
    halt
"""

#: Pure mroutine with an internal loop.
SPIN = MRoutine(name="spin", entry=0, source="""
    li   t0, 12
spin_loop:
    addi t1, t1, 3
    xor  t2, t1, t0
    addi t0, t0, -1
    bnez t0, spin_loop
    mexit
""")

MCODE = """
_start:
    li   s0, %d
loop:
    menter MR_SPIN
    addi s0, s0, -1
    bnez s0, loop
    halt
"""


#: Guest words the crossing program's timer handler counts its
#: deliveries in, and its intercepted ``lw`` reads.
TICKS = 0x3F00
DATA = 0x3000

#: The ``lw`` intercept match spec (opcode LOAD, funct3 2).
LW = 0x503

#: Timer handler: counts the delivery at TICKS and stops the timer.
TICK = MRoutine(name="tick", entry=1, mregs=(10, 11), source=f"""
    wmr  m10, t0
    wmr  m11, t1
    li   t0, {TICKS}
    mpld t1, 0(t0)
    addi t1, t1, 1
    mpst t1, 0(t0)
    li   t0, TIMER_CTRL
    mpst zero, 0(t0)
    rmr  t1, m11
    rmr  t0, m10
    mexit
""")

#: Routes the timer to TICK, enables interrupts and intercepts ``lw``
#: with EMUL.
BOOT = MRoutine(name="boot", entry=2, source=f"""
    li   t0, CAUSE_INTERRUPT_TIMER
    li   t1, MR_TICK
    mivec t0, t1
    li   t0, 1
    mintc t0
    li   t0, {LW}
    li   t1, MR_EMUL
    micept t0, t1
    mexit
""")

#: ECALL handler: resumes after the ``ecall``.
SYSH = MRoutine(name="sysh", entry=3, mregs=(12,), source="""
    wmr  m12, t0
    rmr  t0, m31
    addi t0, t0, 4
    wmr  m31, t0
    rmr  t0, m12
    mexit
""")

#: Emulates the intercepted ``lw``: loads the word and commits it into
#: the ``lw``'s rd (``mexitm``).
EMUL = MRoutine(name="emul", entry=4, mregs=(13, 14), source="""
    wmr  m13, t0
    wmr  m14, t1
    rmr  t0, m29
    srai t1, t0, 20
    rmr  t0, m25
    add  t0, t0, t1
    lw   t1, 0(t0)
    wmr  m27, t1
    rmr  t0, m29
    srli t0, t0, 7
    andi t0, t0, 31
    wmr  m26, t0
    rmr  t1, m14
    rmr  t0, m13
    mexitm
""")

#: A loop whose every pass crosses into an intercept handler and an
#: ECALL handler; the timer interrupts it once.
CROSSINGS = f"""
_start:
    menter MR_BOOT
    li   s2, {DATA}
    li   s0, 40
loop:
    lw   a2, 0(s2)
    add  a5, a5, a2
    ecall
    addi s0, s0, -1
    bnez s0, loop
    halt
"""


def _machine(**kwargs):
    return build_metal_machine([SPIN], with_caches=False, **kwargs)


def _crossing_machine(tcache: bool):
    """A ``MachineConfig()`` machine loaded with :data:`CROSSINGS`."""
    m = build_metal_machine([TICK, BOOT, SYSH, EMUL],
                            config=MachineConfig(tcache=tcache))
    m.route_cause(Cause.ECALL, "sysh")
    m.write_word(DATA, 7)
    m.timer.compare = 500
    m.timer.irq_enabled = True
    m.load(m.assemble(CROSSINGS))
    m.core.pc = 0x1000
    return m


def _arch_state(m):
    return (list(m.core.regs), m.core.pc, m.core.instret, m.cycles,
            m.core.halted)


class TestSink:
    def test_ring_wraparound_keeps_aggregates(self):
        sink = TraceEventSink(capacity=8)
        for i in range(20):
            sink.note_trace("mem", 0x1000 + 4 * (i % 3), i % 5, 10, 100 * i, 7)
        assert sink.total_traces == 20
        assert sink.wrapped
        assert len(sink) == 8
        records = sink.records()
        assert len(records) == 8
        # Oldest-first: the surviving records are the last 8 notes.
        assert [r[0] for r in records] == [100 * i for i in range(12, 20)]
        # Aggregates cover all 20 notes, not just the ring survivors.
        table = sink.trace_table()
        assert sum(a.hits for a in table.values()) == 20
        assert sum(a.instructions for a in table.values()) == 200

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TraceEventSink(capacity=0)

    def test_hot_traces_ordering(self):
        sink = TraceEventSink()
        sink.note_trace("mem", 0x1000, 1, 50, 0, 5)
        sink.note_trace("mem", 0x2000, 1, 500, 0, 5)
        sink.note_trace("mram", 0x0, 1, 100, 0, 5)
        hot = sink.hot_traces(top=2)
        assert [(a.ns, a.head_pc) for a in hot] == [("mem", 0x2000),
                                                   ("mram", 0x0)]

    def test_event_log_bounded(self):
        sink = TraceEventSink(capacity=4)
        for i in range(10):
            sink.tcache_event("compile", "mem", 4 * i)
        assert len(sink.events()) == 4
        assert sink.events_dropped == 6

    def test_clear(self):
        sink = TraceEventSink(capacity=4)
        sink.note_trace("mem", 0, 0, 1, 0, 1)
        sink.tcache_event("flush", "mem", 0)
        sink.clear()
        assert len(sink) == 0
        assert sink.total_traces == 0
        assert sink.events() == []


class TestGuestInvisibility:
    def test_profiling_on_is_bit_identical(self):
        m_off = _machine()
        m_on = _machine()
        m_on.set_profiling(True)
        src = MCODE % 50
        m_off.load_and_run(src)
        m_on.load_and_run(src)
        assert _arch_state(m_off) == _arch_state(m_on)
        assert m_on.profiler.total_traces > 0

    def test_profiling_off_zero_counter_deltas(self):
        m = _machine()
        sink = m.set_profiling(True)
        m.load_and_run(LOOP % 100)
        recorded = sink.total_traces
        assert recorded > 0
        m.set_profiling(False)
        assert m.profiler is None
        m.reset(pc=0x1000)
        m.run(max_instructions=400, raise_on_limit=False)
        # Detached sink sees nothing new.
        assert sink.total_traces == recorded

    def test_detach_restores_unbounded_chains(self):
        m = _machine()
        m.set_profiling(True)
        quantum = m.sim.PROFILE_CHAIN_QUANTUM
        m.load_and_run(LOOP % 2000)
        assert m.perf.tcache.chain_longest <= quantum
        m2 = _machine()
        m2.load_and_run(LOOP % 2000)
        assert m2.perf.tcache.chain_longest > quantum


class TestRegistry:
    def test_snapshot_delta_isolates_region(self):
        m = _machine()
        m.set_profiling(True)
        reg = MetricsRegistry(m)
        m.load_and_run(LOOP % 1000)
        before = reg.snapshot()
        m.reset(pc=0x1000)
        m.run(max_instructions=350, raise_on_limit=False)
        delta = reg.snapshot().delta(before)
        assert delta.guest_instructions == 350
        assert delta.counters["fast_instructions"] > 0
        # Every delta aggregate reflects only the second run.
        total = sum(a.instructions for a in delta.traces.values())
        assert 0 < total <= 350

    def test_zero_delta_when_idle(self):
        m = _machine()
        reg = MetricsRegistry(m)
        m.load_and_run(LOOP % 50)
        snap = reg.snapshot()
        delta = reg.snapshot().delta(snap)
        assert delta.guest_instructions == 0
        assert all(v == 0 for v in delta.counters.values())
        assert delta.traces == {}

    def test_mroutine_attribution(self):
        m = _machine()
        m.set_profiling(True)
        reg = MetricsRegistry(m)
        m.load_and_run(MCODE % 60)
        rows = reg.attribute()
        spin = [r for r in rows if r.routine == "spin"]
        assert spin, "no trace attributed to the spin mroutine"
        assert spin[0].ns == "mram"
        assert spin[0].offset == 0
        report = reg.mroutine_report()
        named = {name for name, *_ in report}
        assert "spin" in named
        top_name, _, top_instrs, _, _ = report[0]
        assert top_name == "spin" and top_instrs > 0

    def test_loop_head_attribution(self):
        """A trace headed at a CFG back-edge target is flagged as a loop."""
        from repro.profile.registry import attribute_trace
        from repro.profile.sink import TraceAggregate

        m = _machine()
        routine = m.metal_image.routines["spin"]
        # spin_loop is the third instruction: byte offset 8 (li expands
        # to lui+addi).
        head = routine.code_offset + 8
        row = attribute_trace(m, TraceAggregate("mram", head, 1, 1, 0, 1))
        assert row.routine == "spin"
        assert row.loop, "back-edge target not flagged as a loop head"
        entry = attribute_trace(
            m, TraceAggregate("mram", routine.code_offset, 1, 1, 0, 1))
        assert not entry.loop


class TestShardMergeDeterminism:
    """Regression: hot-trace ranking must be a pure function of the
    aggregate contents.  Equal-count traces used to rank in dict
    insertion order, so a snapshot rebuilt from shard deltas (whose
    union order depends on merge order) disagreed with the inline
    snapshot of the same run — the stable ``(-count, ns, head_pc)``
    tie-break makes every path byte-identical."""

    @staticmethod
    def _snap(*rows):
        traces = {}
        for ns, pc, instrs in rows:
            traces[(ns, pc)] = TraceAggregate(ns, pc, 1, instrs, 0, instrs)
        return Snapshot(traces=traces)

    def test_equal_count_tie_break_stable_under_add_order(self):
        a = self._snap(("mem", 0x2000, 100))
        b = self._snap(("mem", 0x1000, 100), ("mram", 0x40, 100))
        ab = [(r.ns, r.head_pc) for r in a.add(b).hot_traces()]
        ba = [(r.ns, r.head_pc) for r in b.add(a).hot_traces()]
        # Both orders agree, and on the documented key: count desc,
        # then (ns, head_pc) ascending.
        assert ab == ba == [("mem", 0x1000), ("mem", 0x2000),
                            ("mram", 0x40)]

    def test_pool_accumulation_matches_inline_ordering(self):
        # One logical profile split over two per-request deltas of the
        # same machine (MSERVE's pool path), recorded in opposite
        # orders.  An inline sink that saw every event and the pooled
        # (delta-accumulated) snapshot must rank identically.
        inline = TraceEventSink()
        for pc in (0x3000, 0x1000, 0x2000):
            inline.note_trace("mem", pc, 1, 64, 0, 64)
        delta_a = self._snap(("mem", 0x3000, 64), ("mem", 0x2000, 64))
        delta_b = self._snap(("mem", 0x1000, 64))
        pooled = Snapshot().add(delta_a).add(delta_b)
        assert [(r.ns, r.head_pc) for r in pooled.hot_traces()] == \
            [(r.ns, r.head_pc) for r in inline.hot_traces()]

    def test_merge_is_insertion_order_independent(self):
        a = self._snap(("mem", 0x2000, 7), ("mem", 0x1000, 7))
        b = self._snap(("mem", 0x1000, 7), ("mem", 0x3000, 7))
        fwd = Snapshot.merge({"s0": a, "s1": b})
        rev = Snapshot.merge({"s1": b, "s0": a})
        assert json.dumps(fwd.to_dict(), sort_keys=True) == \
            json.dumps(rev.to_dict(), sort_keys=True)
        assert [(r.ns, r.head_pc) for r in fwd.hot_traces()] == \
            [(r.ns, r.head_pc) for r in rev.hot_traces()]


class TestExporters:
    def _profiled_machine(self):
        m = _machine()
        m.set_profiling(True)
        m.load_and_run(MCODE % 40)
        return m

    def test_chrome_trace_schema_valid(self):
        m = self._profiled_machine()
        payload = chrome_trace(m, m.profiler, registry=MetricsRegistry(m))
        validate_chrome_trace(payload)                  # must not raise
        json.dumps(payload)                             # serialisable
        events = payload["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        assert any(e["ph"] == "i" for e in events)      # tcache compiles
        # mram retirements carry their attribution as the event name.
        assert any(e["name"].startswith("spin+") for e in events
                   if e["ph"] == "X")

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])                   # not an object
        with pytest.raises(ValueError):
            validate_chrome_trace({})                   # no traceEvents
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "Q", "name": "x", "pid": 1}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "x", "pid": 1,
                                  "tid": 1, "ts": 0}]})  # missing dur
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "i", "name": "x", "pid": 1,
                                  "ts": 0, "s": "z"}]})  # bad scope

    def test_hot_trace_report_contents(self):
        from repro.profile.exporters import format_hot_traces

        m = self._profiled_machine()
        reg = MetricsRegistry(m)
        text = format_hot_traces(m, reg, top=5)
        assert "spin+0x0" in text
        assert "per-mroutine attribution" in text
        assert "addi" in text                           # disassembly


class TestStepHub:
    def test_multiple_subscribers(self):
        m = _machine()
        seen_a, seen_b = [], []
        m.sim.add_step_hook(seen_a.append)
        m.sim.add_step_hook(seen_b.append)
        m.load_and_run(LOOP % 5)
        assert len(seen_a) == len(seen_b) > 0
        # A re-bound method compares equal to the subscribed one, so
        # this unsubscribes seen_a's hook.
        m.sim.remove_step_hook(seen_a.append)
        m.sim.remove_step_hook(seen_b[0])      # not a hook: a no-op
        a, b = len(seen_a), len(seen_b)
        m.reset(pc=0x1000)
        m.run(max_instructions=10, raise_on_limit=False)
        assert len(seen_a) == a
        assert len(seen_b) == b + 10

    def test_tracer_composes_with_profiling(self):
        from repro.machine.trace import Tracer

        m = _machine()
        m.set_profiling(True)
        with Tracer(m, limit=100) as tracer:
            m.load_and_run(LOOP % 10)
        assert len(tracer) > 0
        assert m.profiler.total_traces > 0

    def test_tracer_sees_the_interpreters_stream(self):
        """A Tracer on a tcache-on machine records the tcache-off
        machine's (pc, mnemonic, mode) sequence through a timer
        interrupt, an ``ecall`` into its mroutine and an intercepted
        ``lw``; while it is attached nothing retires at tier 2."""
        from repro.machine.trace import Tracer

        streams = []
        for tcache in (False, True):
            m = _crossing_machine(tcache)
            with Tracer(m, limit=100_000) as tracer:
                m.run(max_instructions=100_000)
            assert m.core.halted
            assert m.read_word(TICKS) == 1                 # the interrupt
            assert m.core.metal.intercept.hits == 40
            assert m.core.metal.stats.deliveries[Cause.ECALL] == 40
            streams.append([(r.pc, r.mnemonic, r.in_metal)
                            for r in tracer.records])
        assert streams[0] == streams[1]
        assert len(streams[1]) == m.core.instret
        tc = m.perf.tcache
        assert tc.hits + tc.misses > 0
        assert tc.jit_instructions == 0


class TestCoverage:
    """Every retired instruction lands in the trace table, including
    those the engine runs on ``step()`` up to a budget's end or the
    interrupt horizon."""

    @staticmethod
    def _table_instructions(sink) -> int:
        return sum(agg.instructions for agg in sink.trace_table().values())

    def test_budget_chunks(self):
        w = WORKLOADS["tight_loop"]
        m = build_metal_machine(list(w.routines))
        sink = m.set_profiling(True)
        m.load(m.assemble(workload_source("tight_loop", 200)))
        m.core.pc = 0x1000
        for _ in range(7):
            m.run(max_instructions=97, raise_on_limit=False)
        assert m.core.instret == 7 * 97
        assert self._table_instructions(sink) == m.core.instret

    def test_preemptive_scheduler(self):
        m = boot_scheduler_demo(config=MachineConfig())
        sink = m.set_profiling(True)
        m.run(max_instructions=50_000, raise_on_limit=False)
        assert m.core.instret == 50_000
        assert m.core.metal.stats.deliveries[Cause.interrupt(0)] > 10
        assert self._table_instructions(sink) == m.core.instret

    def test_paging_example(self, monkeypatch, capsys):
        """While paging is on no normal-mode block runs, so every
        normal-mode instruction retires on a blockless ``step()``."""
        path = (pathlib.Path(__file__).parent.parent / "examples"
                / "custom_page_tables.py")
        spec = importlib.util.spec_from_file_location("page_tables", path)
        example = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(example)
        built = []

        def build(*args, **kwargs):
            machine = build_metal_machine(*args, **kwargs)
            built.append((machine, machine.set_profiling(True)))
            return machine

        monkeypatch.setattr(example, "build_metal_machine", build)
        example.main()
        assert "forwarded to the OS" in capsys.readouterr().out
        (m, sink), = built
        assert m.core.tlb.enabled
        assert m.core.instret == 1194
        assert self._table_instructions(sink) == m.core.instret


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", "profile", *args],
            capture_output=True, text=True, timeout=120,
        )

    def test_list(self):
        result = self._run("--list")
        assert result.returncode == 0
        assert "mcode_heavy" in result.stdout

    def test_workload_report(self):
        result = self._run("mcode_heavy", "--iters", "50", "--top", "3")
        assert result.returncode == 0, result.stderr
        assert "hot traces" in result.stdout
        assert "spin" in result.stdout                  # attribution
        assert "per-mroutine attribution" in result.stdout

    def test_json_export(self, tmp_path):
        out = tmp_path / "trace.json"
        result = self._run("tight_loop", "--iters", "200",
                           "--json", str(out))
        assert result.returncode == 0, result.stderr
        payload = json.loads(out.read_text())
        validate_chrome_trace(payload)
        assert payload["traceEvents"]

    def test_source_file(self, tmp_path):
        path = tmp_path / "prog.s"
        path.write_text(LOOP % 100)
        result = self._run(str(path))
        assert result.returncode == 0, result.stderr
        assert "[halt]" in result.stdout

    def test_unknown_target(self):
        result = self._run("/nonexistent/x.s")
        assert result.returncode == 2
