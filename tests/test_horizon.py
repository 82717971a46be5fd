"""The device event horizon: exact interrupts without per-entry polling.

Devices lag behind the engine below the bus horizon (the earliest cycle
at which one of them can raise an interrupt line or write RAM), and
while interrupts are deliverable a block runs compiled only if its
last entry's worst-case start is short of it (else its longest prefix
that is).  Every test here compares the
fast path against the tcache-off interpreter, whose ``step()`` ticks
every device after every instruction and samples interrupts before
every one, on both engines.
"""

from __future__ import annotations

import pytest

from repro import MRoutine, build_metal_machine
from repro.cpu.exceptions import Cause
from repro.cpu.tcache import F_ICEPT
from repro.fault.injector import FaultSpec, Trigger, run_with_fault
from repro.machine.builder import MachineConfig, build_palcode_machine
from repro.osdemo.scheduler import boot_scheduler_demo
from repro.profile.workloads import WORKLOADS, workload_source
from repro.verify.translate import validate_region

ENGINES = ("functional", "pipeline")

#: Guest RAM the interrupt handler logs to: delivery count, last cause,
#: last interrupted pc.
LOG = 0x3F00


def _handler(quiesce: str) -> MRoutine:
    """A transparent interrupt handler: log the delivery, run
    *quiesce* (which silences the source), return to the interrupted
    instruction."""
    return MRoutine(name="irqh", entry=2, mregs=(10, 11), source=f"""
        wmr  m10, t0
        wmr  m11, t1
        li   t0, {LOG}
        mpld t1, 0(t0)
        addi t1, t1, 1
        mpst t1, 0(t0)
        rmr  t1, m28
        mpst t1, 4(t0)
        rmr  t1, m30
        mpst t1, 8(t0)
{quiesce}
        rmr  t1, m11
        rmr  t0, m10
        mexit
    """)


def _irq_on(line: int) -> MRoutine:
    """Route *line* to the handler and make interrupts deliverable."""
    return MRoutine(name="irq_on", entry=1, source=f"""
        li   t0, {Cause.interrupt(line)}
        li   t1, MR_IRQH
        mivec t0, t1
        li   t0, 1
        mintc t0
        mexit
    """)


def _state(machine):
    core = machine.core
    return {
        "pc": core.pc,
        "instret": core.instret,
        "cycles": machine.cycles,
        "regs": list(core.regs),
        "log": [machine.read_word(LOG + 4 * i) for i in range(3)],
        "deliveries": dict(core.metal.stats.deliveries),
        "stalls": getattr(machine.sim, "stalls", None),
    }


def _lockstep(engine, line, quiesce, source, drive, **config):
    """Run *source* with the tcache off and on; *drive(machine)* runs
    it.  Returns the tcache-on machine after checking both agree."""
    states = []
    for tcache in (False, True):
        machine = build_metal_machine(
            [_handler(quiesce), _irq_on(line)],
            config=MachineConfig(engine=engine, tcache=tcache, **config))
        program = machine.assemble(source)
        machine.load(program)
        machine.core.pc = program.symbols["_start"]
        drive(machine)
        states.append(_state(machine))
    assert states[0] == states[1]
    assert states[1]["log"][0] >= 1, "no interrupt was delivered"
    return machine


SPURIOUS_LOOP = """
_start:
    menter MR_IRQ_ON
    li   s1, TIMER_COUNT
    li   s0, 30
loop:
    addi a1, a1, 1
    addi a2, a2, 3
    lw   a3, 0(s1)
    addi a4, a4, 1
    addi a5, a5, 2
    addi s0, s0, -1
    bnez s0, loop
    halt
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_mmio_fault_on_a_load_mid_block(engine):
    """An MFI ``mmio`` trigger latches a spurious routed line from
    inside the timer read in the middle of a compiled block: the
    interrupt is taken right after the load."""
    spec = FaultSpec("irq_spurious", Trigger("mmio", 7, device="timer"),
                     line=5)
    machine = _lockstep(
        engine, 5, "        li   t0, 5\n        miack t0", SPURIOUS_LOOP,
        lambda m: run_with_fault(m, spec, 10_000))
    log = [machine.read_word(LOG + 4 * i) for i in range(3)]
    load_pc = machine.assemble(SPURIOUS_LOOP).symbols["loop"] + 8
    assert log == [1, Cause.interrupt(5), load_pc + 4]
    assert machine.perf.tcache.jit_instructions > 0


NIC_LOOP = """
_start:
    menter MR_IRQ_ON
    li   t0, NIC_IRQ_CTRL
    li   t1, 1
    sw   t1, 0(t0)
    li   s0, 400
loop:
    addi a1, a1, 1
    xor  a2, a2, a1
    addi a3, a3, 7
    addi s0, s0, -1
    bnez s0, loop
    halt
"""

NIC_POP = """
        li   t0, NIC_DMA_ADDR
        li   t1, 0x3E00
        mpst t1, 0(t0)
        li   t0, NIC_RX_POP
        li   t1, 1
        mpst t1, 0(t0)"""


@pytest.mark.parametrize("engine", ENGINES)
def test_packet_scheduled_between_runs(engine):
    """``schedule_packet`` between two runs makes a packet due before
    the horizon the first run ended with (a far timer compare): the
    second run recomputes the horizon and takes the NIC interrupt at
    the same boundary as the interpreter."""

    def drive(machine):
        machine.timer.compare = 1_000_000
        machine.timer.irq_enabled = True
        machine.run(max_instructions=300, raise_on_limit=False)
        machine.nic.schedule_packet(machine.cycles + 57, b"pkt!")
        machine.run(max_instructions=10_000)

    machine = _lockstep(engine, 1, NIC_POP, NIC_LOOP, drive)
    assert machine.read_word(LOG + 4) == Cause.interrupt(1)
    assert machine.nic.delivered == 1
    assert machine.read_bytes(0x3E00, 4) == b"pkt!"


DMA_LOOP = """
_start:
    menter MR_IRQ_ON
    li   t0, BLK_SECTOR
    li   t1, 3
    sw   t1, 0(t0)
    li   s2, 0x3C00
    li   t0, BLK_DMA_ADDR
    sw   s2, 0(t0)
    li   t0, BLK_CMD
    li   t1, 1
    sw   t1, 0(t0)
    li   s0, 150
loop:
    addi a1, a1, 1
    addi a2, a2, 2
    addi a3, a3, 3
    lw   t2, 0(s2)
    add  s3, s3, t2
    addi a4, a4, 4
    addi a5, a5, 5
    lw   t3, 4(s2)
    add  s4, s4, t3
    addi s0, s0, -1
    bnez s0, loop
    li   t0, TIMER_CTRL
    li   t1, 1
    sw   t1, 0(t0)
    halt
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_dma_lands_mid_block(engine):
    """A block-device read completes in the middle of a loop block, and
    the loads later in that block see the DMA buffer exactly when the
    interpreter's do.  (The program ends by firing the timer, so one
    interrupt is delivered.)"""

    def drive(machine):
        machine.blockdev.preload(3, bytes(range(1, 9)))
        machine.timer.compare = 0
        machine.run(max_instructions=10_000)

    machine = _lockstep(engine, 0, "        li   t0, TIMER_CTRL\n"
                        "        mpst zero, 0(t0)", DMA_LOOP, drive)
    assert machine.blockdev.completed == 1
    word = 0x04030201
    assert machine.reg("t2") == word
    assert machine.reg("s3") not in (0, 150 * word & 0xFFFFFFFF)


TIMER_ENABLE = """
_start:
    menter MR_IRQ_ON
    li   s4, TIMER_CTRL
    li   t5, 1
    li   s0, 40
loop:
    addi a1, a1, 1
    addi s0, s0, -1
    bnez s0, loop
    addi a2, a2, 1
    sw   t5, 0(s4)
    addi a3, a3, 1
    addi a4, a4, 1
    halt
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_store_enables_an_overdue_timer(engine):
    """A store to TIMER_CTRL enables the timer when COUNT has already
    passed COMPARE: the line rises at the store, and the interrupt is
    taken at the very next boundary."""

    def drive(machine):
        machine.timer.compare = 50
        machine.run(max_instructions=10_000)

    machine = _lockstep(engine, 0, "        li   t0, TIMER_CTRL\n"
                        "        mpst zero, 0(t0)", TIMER_ENABLE, drive)
    store_pc = machine.assemble(TIMER_ENABLE).symbols["loop"] + 16
    assert machine.read_word(LOG + 8) == store_pc + 4


# ---------------------------------------------------------------------------
# mipend observes the devices
# ---------------------------------------------------------------------------

PEND = MRoutine(name="pend", entry=1, source="\n".join(
    ["    addi t0, t0, 1"] * 200 + ["    mipend a0", "    mexit"]))


@pytest.mark.parametrize("caches", (False, True))
@pytest.mark.parametrize("engine", ENGINES)
def test_mipend_sees_a_line_that_rose_in_the_mroutine(engine, caches):
    """The timer comes due 100 cycles into a 200-instruction mroutine
    that ends in ``mipend``: the interpreter, the compiled path and the
    hooked machine's ``step()`` prefix path all read the timer line as
    pending."""
    outcomes = []
    for run in ("interpreter", "compiled", "hooked"):
        machine = build_metal_machine([PEND], config=MachineConfig(
            engine=engine, with_caches=caches, tcache=run != "interpreter"))
        if run == "hooked":
            machine.sim.add_step_hook(lambda step: None)
        machine.timer.compare = 100
        machine.timer.irq_enabled = True
        machine.load_and_run("_start:\n    menter 1\n    halt\n")
        outcomes.append((machine.reg("a0"), machine.cycles,
                         machine.core.instret))
        if run == "compiled":
            # The synced mipend terminator validates like any block.
            tcache = machine.sim.tcache
            for region in tcache.iter_regions():
                assert validate_region(region, tcache.line_size,
                                       tcache.scoreboard) == []
    assert outcomes[0][0] == 1
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]


# ---------------------------------------------------------------------------
# starts, the worst-case cycle count at which each entry begins
# ---------------------------------------------------------------------------

def _trace(machine, budget):
    """Run *machine* (tcache off) with a step hook; return one
    ``(pc, cycles before, cycles after, normal mode)`` per retired
    instruction."""
    timer = machine.sim.timer
    metal = machine.core.metal
    steps = []
    last = [timer.cycles, True]

    def hook(step):
        steps.append((step.pc, last[0], timer.cycles, last[1]))
        last[0] = timer.cycles
        last[1] = not metal.in_metal

    machine.sim.add_step_hook(hook)
    machine.run(max_instructions=budget, raise_on_limit=False)
    return steps


#: Re-arms the timer 97 cycles ahead (the handler of a live tick).
TICK = MRoutine(name="tick", entry=4, mregs=(10, 11), source="""
    wmr  m10, t0
    wmr  m11, t1
    li   t0, TIMER_COUNT
    lw   t1, 0(t0)
    addi t1, t1, 97
    li   t0, TIMER_COMPARE
    sw   t1, 0(t0)
    rmr  t1, m11
    rmr  t0, m10
    mexit
""")

#: Routes the timer line to ``tick``, arms and enables the timer and
#: makes interrupts deliverable.
TICK_ON = MRoutine(name="tick_on", entry=5, source="""
    li   t0, CAUSE_INTERRUPT_TIMER
    li   t1, MR_TICK
    mivec t0, t1
    li   t0, TIMER_COUNT
    lw   t1, 0(t0)
    addi t1, t1, 97
    li   t0, TIMER_COMPARE
    sw   t1, 0(t0)
    li   t0, TIMER_CTRL
    li   t1, 1
    sw   t1, 0(t0)
    li   t0, 1
    mintc t0
    li   t0, 0
    li   t1, 0
    mexit
""")


def _step_trace(machine, calls):
    """Call the interpreter's ``step()`` *calls* times: one ``(pc,
    cycles before, normal mode, intercept rule set, instret, intercept
    hits)`` per call, and the same after the last.  A call retires one
    instruction or takes one delivery (intercept, trap or interrupt)."""
    sim = machine.sim
    core = machine.core
    intercept = core.metal.intercept
    records = []
    for _ in range(calls + 1):
        records.append((core.pc, sim.timer.cycles, not core.in_metal,
                        intercept.signature, core.instret, intercept.hits))
        if core.halted:
            break
        sim.step()
    return records


def _intercepted_starts_hold(machine, calls):
    """Check ``starts`` at every entry of every straight run of a mem
    block in *calls* interpreter steps of *machine*, compiling each
    block under the rule set installed when it starts: an intercepted
    block's run ends once its last word is delivered to the handler.
    Returns the (all, intercepted) runs checked."""
    records = _step_trace(machine, calls)
    tcache = machine.sim.tcache
    checked = intercepted = 0
    for i, (pc, before, normal, rules, instret, hits) in enumerate(records):
        if not normal:
            continue
        tcache.select_rules(rules)
        block = tcache.mem_block(pc, machine.bus)
        if block is None:
            continue
        n = len(block.entries)
        run = records[i:i + n + 1]
        icept = bool(block.entries[-1][2] & F_ICEPT)
        if (len(run) <= n
                or [r[0] for r in run[:n]] != [e[1] for e in block.entries]
                or not all(r[2] for r in run[:n])
                or run[n][4] - instret != n - icept
                or run[n][5] - hits != icept):
            continue  # trapped, interrupted or redirected early
        for j in range(n):
            spent = run[j][1] - before
            assert spent <= block.starts[j], (hex(pc), j, spent,
                                              block.starts[j])
        checked += 1
        intercepted += icept
    return checked, intercepted


@pytest.mark.parametrize("engine", ENGINES)
def test_block_bound_holds(engine):
    """Every time one of a mem block's straight runs retires on the
    interpreter, from cold caches on, each entry ``i`` begins at most
    ``starts[i]`` cycles after the block's first: loop programs, Metal
    transitions (also with the PALcode-style machine's slow
    transitions), the scheduler's context switches with their MMIO
    accesses, the caches-off configuration, and blocks ending in an
    intercepted word with timer interrupts live."""
    w = WORKLOADS["intercept_heavy"]
    source = workload_source("intercept_heavy", 300).replace(
        "_start:\n", "_start:\n    menter MR_TICK_ON\n")
    for caches in (True, False):
        m = build_metal_machine(
            [MRoutine(name=r.name, entry=r.entry, source=r.source,
                      shared_mregs=r.shared_mregs) for r in w.routines]
            + [TICK, TICK_ON],
            config=MachineConfig(engine=engine, with_caches=caches,
                                 tcache=False))
        m.load(m.assemble(source))
        m.core.pc = 0x1000
        checked, intercepted = _intercepted_starts_hold(m, 12_000)
        assert m.core.metal.stats.deliveries[Cause.interrupt(0)] > 20
        assert intercepted > 100 and checked > 2 * intercepted
    cases = []
    for name in ("tight_loop", "hash_mix", "poly_branch", "syscall_heavy",
                 "mcode_heavy"):
        w = WORKLOADS[name]
        for caches in (True, False):
            m = build_metal_machine(list(w.routines), config=MachineConfig(
                engine=engine, with_caches=caches, tcache=False))
            if w.setup is not None:
                w.setup(m)
            program = m.assemble(workload_source(name, 40))
            m.load(program)
            m.core.pc = program.symbols.get("_start", 0x1000)
            cases.append((name, m))
    w = WORKLOADS["syscall_heavy"]
    m = build_palcode_machine(list(w.routines), config=MachineConfig(
        engine=engine, tcache=False))
    w.setup(m)
    program = m.assemble(workload_source("syscall_heavy", 40))
    m.load(program)
    m.core.pc = program.symbols.get("_start", 0x1000)
    cases.append(("palcode syscall_heavy", m))
    cases.append(("scheduler", boot_scheduler_demo(
        config=MachineConfig(engine=engine, tcache=False))))
    checked = 0
    for name, m in cases:
        steps = _trace(m, 20_000)
        tcache = m.sim.tcache
        for i, (pc, before, _after, normal) in enumerate(steps):
            if not normal:
                continue
            block = tcache.mem_block(pc, m.bus)
            if block is None:
                continue
            run = steps[i:i + len(block.entries)]
            if [s[0] for s in run] != [e[1] for e in block.entries]:
                continue  # trapped, interrupted or redirected early
            for j, step in enumerate(run):
                spent = step[1] - before
                assert spent <= block.starts[j], (
                    name, engine, hex(pc), j, spent, block.starts[j])
            checked += 1
    assert checked > 1000
