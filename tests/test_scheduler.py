"""Preemptive multitasking via Metal-delivered timer interrupts."""

import pytest

from repro import MachineConfig
from repro.osdemo.layout import MemoryLayout
from repro.osdemo.scheduler import (
    CTX_BASE,
    CTX_STRIDE,
    SCHED_SWITCHES,
    boot_scheduler_demo,
    demo_processes,
)
from repro.serve.api import architectural_digest

COUNTER0 = 0x6000
COUNTER1 = 0x6004
ERRFLAG = 0x6008


@pytest.fixture(scope="module")
def ran_machine():
    m = boot_scheduler_demo(quantum=3000)
    m.run(max_instructions=300_000, raise_on_limit=False)
    return m


class TestPreemption:
    def test_both_processes_progress(self, ran_machine):
        m = ran_machine
        assert m.read_word(COUNTER0) > 50
        assert m.read_word(COUNTER1) > 50

    def test_context_switches_happened(self, ran_machine):
        assert ran_machine.read_word(SCHED_SWITCHES) > 10

    def test_register_state_isolated(self, ran_machine):
        # each process checks its private s4 every iteration
        assert ran_machine.read_word(ERRFLAG) == 0

    def test_fair_interleaving(self, ran_machine):
        m = ran_machine
        c0, c1 = m.read_word(COUNTER0), m.read_word(COUNTER1)
        # round-robin with equal quanta: within 3x of each other
        assert min(c0, c1) * 3 > max(c0, c1)

    def test_no_faults(self, ran_machine):
        assert "F" not in ran_machine.output

    def test_processes_run_at_user_level(self, ran_machine):
        # when we stopped, whichever process was running is at level 1
        # (unless we happened to stop mid-kernel/mroutine)
        m = ran_machine
        level = m.mreg(0)
        assert level in (0, 1)

    def test_timer_keeps_rearming(self, ran_machine):
        m = ran_machine
        # compare is always in the near future relative to count
        assert m.timer.compare > 0


class TestQuantumScaling:
    def test_smaller_quantum_more_switches(self):
        results = {}
        for quantum in (2000, 8000):
            m = boot_scheduler_demo(quantum=quantum)
            m.run(max_instructions=150_000, raise_on_limit=False)
            results[quantum] = m.read_word(SCHED_SWITCHES)
        assert results[2000] > results[8000]

    def test_pipeline_engine_also_schedules(self):
        m = boot_scheduler_demo(quantum=3000, engine="pipeline")
        m.run(max_instructions=100_000, raise_on_limit=False)
        assert m.read_word(SCHED_SWITCHES) > 5
        assert m.read_word(ERRFLAG) == 0


def _lockstep_state(m):
    core = m.core
    return {
        "regs": list(core.regs),
        "pc": core.pc,
        "instret": core.instret,
        "cycles": m.cycles,
        "icache": (core.icache.stats.hits, core.icache.stats.misses),
        "dcache": (core.dcache.stats.hits, core.dcache.stats.misses),
        "stalls": getattr(m.sim, "stalls", None),
        "switches": m.read_word(SCHED_SWITCHES),
    }


@pytest.mark.parametrize("engine", ["functional", "pipeline"])
def test_lockstep_tcache_off_and_on(engine):
    """The scheduler's processes run with interrupts live; the
    tcache-on machine runs their blocks as MJIT code as long as they
    cannot reach the bus horizon, and on ``step()`` near it.  In
    97-instruction chunks, whose ends fall inside blocks, both machines
    agree on every compared field after every chunk, and at least 85%
    of the tcache-on machine's instructions retire at tier 2."""
    machines = [boot_scheduler_demo(config=MachineConfig(engine=engine,
                                                         tcache=tcache))
                for tcache in (False, True)]
    for chunk in range(620):
        for m in machines:
            m.run(max_instructions=97, raise_on_limit=False)
        ref, got = (_lockstep_state(m) for m in machines)
        for key in ref:
            assert ref[key] == got[key], (
                f"chunk {chunk}: {key} diverges "
                f"(tcache off={ref[key]!r}, on={got[key]!r})")
    assert ref["switches"] > 10
    tc = machines[1].perf.tcache
    assert tc.jit_instructions >= 0.85 * machines[1].core.instret


@pytest.mark.parametrize("engine,quantum", [("functional", 2007),
                                            ("pipeline", 2000)])
def test_every_switch_matches_the_interpreter(engine, quantum):
    """Over 40 context switches both machines stop at the kernel's
    interrupt entry, where the tcache-on machine's full state (the
    architectural digest, cycles, cache counts, stalls) equals the
    tcache-off machine's.  Every pc of both user loops shows up as an
    interrupted pc saved in a context block: each engine's quantum is
    picked so that the timer walks through all the loops' phases."""
    layout = MemoryLayout()
    machines = [boot_scheduler_demo(
        quantum=quantum, config=MachineConfig(engine=engine, tcache=tcache))
        for tcache in (False, True)]
    saved = set()
    for switch in range(40):
        states = []
        for m in machines:
            m.run(max_instructions=100_000, stop_pc=layout.irq_entry,
                  raise_on_limit=False)
            states.append(dict(_lockstep_state(m),
                               digest=architectural_digest(m)))
            m.run(max_instructions=1, raise_on_limit=False)
        assert states[0] == states[1], f"switch {switch}"
        saved.update(machines[0].read_word(CTX_BASE + CTX_STRIDE * pid)
                     for pid in (0, 1))
    symbols = machines[0].assemble(demo_processes(),
                                   base=layout.user_base).symbols
    loop_pcs = set()
    for proc in ("p0", "p1"):
        # li (lui + addi), beq; then lw, addi, sw, j.
        loop_pcs.update(symbols[f"{proc}loop"] + 4 * k for k in range(3))
        loop_pcs.update(symbols[f"{proc}ok"] + 4 * k for k in range(4))
    assert loop_pcs <= saved, sorted(hex(pc) for pc in loop_pcs - saved)
    tc = machines[1].perf.tcache
    assert tc.jit_instructions >= 0.85 * machines[1].core.instret
