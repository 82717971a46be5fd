"""Metal transitions inside the trace: one dispatch crosses namespaces.

After a block that ends in ``menter``, ``mexit``/``mexitm``, or whose
terminator traps into an mroutine, the engine follows the block's chain
target map into the other namespace instead of returning to the
dispatcher (``FunctionalSimulator._exec_block``).  Every crossing rule
is pinned here by a tcache-off vs tcache-on comparison on both engines
with the cache models on: registers, pc, mode, instret, cycles, MRegs,
I-/D-cache counts and pipeline stalls must agree.
"""

from __future__ import annotations

import pytest

from repro import MRoutine, build_metal_machine
from repro.cpu.exceptions import Cause
from repro.errors import MetalError
from repro.machine.builder import MachineConfig
from repro.profile.workloads import WORKLOADS, workload_source

ENGINES = ("functional", "pipeline")

#: Guest RAM the interrupt handler logs to: delivery count, last
#: interrupted pc.
LOG = 0x3F00

#: ECALL handler: bump m15 by a0, commit the sum into a2 (``mexitm``),
#: resume after the ecall.
ECALLH = MRoutine(name="ecallh", entry=1, mregs=(14, 15), source="""
    wmr  m14, t6
    rmr  t6, m15
    add  t6, t6, a0
    wmr  m15, t6
    wmr  m27, t6
    li   t6, 12
    wmr  m26, t6
    rmr  t6, m30
    addi t6, t6, 4
    wmr  m31, t6
    rmr  t6, m14
    mexitm
""")

#: A routine with an internal loop and a guest-RAM store.
SPIN = MRoutine(name="spin", entry=2, source="""
    li   t0, 5
spin_loop:
    addi a1, a1, 3
    addi t0, t0, -1
    bnez t0, spin_loop
    li   t0, 0x2000
    sw   a1, 0(t0)
    li   t0, 0
    mexit
""")

#: ecall and menter in one loop: both transitions, both directions.
TRANSITIONS = """
_start:
    li   s0, 12
loop:
    addi a0, a0, 5
    ecall
    menter MR_SPIN
    addi s0, s0, -1
    bnez s0, loop
    halt
"""


def _machine(engine, routines, tcache, route_ecall=True):
    """A ``MachineConfig()`` machine with fresh copies of *routines*
    (the loader fills them in); ECALL goes to ``ecallh`` when it is
    among them and *route_ecall* holds."""
    machine = build_metal_machine(
        [MRoutine(name=r.name, entry=r.entry, source=r.source,
                  mregs=r.mregs, shared_mregs=r.shared_mregs)
         for r in routines],
        config=MachineConfig(engine=engine, tcache=tcache))
    if route_ecall and any(r.name == "ecallh" for r in routines):
        machine.route_cause(Cause.ECALL, "ecallh")
    return machine


def _state(machine):
    core = machine.core
    icache, dcache = core.icache.stats, core.dcache.stats
    return {
        "pc": core.pc,
        "in_metal": core.in_metal,
        "instret": core.instret,
        "cycles": machine.cycles,
        "regs": list(core.regs),
        "mregs": core.metal.mregs.snapshot(),
        "icache": (icache.hits, icache.misses),
        "dcache": (dcache.hits, dcache.misses),
        "stalls": getattr(machine.sim, "stalls", None),
        "deliveries": dict(core.metal.stats.deliveries),
        "log": [machine.read_word(LOG + 4 * i) for i in range(2)],
    }


def _pair(engine, routines, source, drive, route_ecall=True):
    """Run *source* with the tcache off and on, *drive(machine)*
    returning a list of states; both must agree.  Returns the
    tcache-on machine."""
    runs = []
    for tcache in (False, True):
        machine = _machine(engine, routines, tcache, route_ecall)
        machine.load(machine.assemble(source, base=0x1000))
        machine.core.pc = 0x1000
        runs.append((machine, drive(machine)))
    (_, off), (machine, on) = runs
    assert on == off
    return machine


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 13])
def test_budget_ends_inside_the_mroutine(engine, chunk):
    """A budget that ends inside an mroutine stops exactly where the
    interpreter stops, however the chunks fall on the crossings."""
    def drive(machine):
        states = []
        while not machine.core.halted:
            machine.run(max_instructions=chunk, raise_on_limit=False)
            states.append(_state(machine))
        return states

    machine = _pair(engine, (ECALLH, SPIN), TRANSITIONS, drive)
    assert machine.reg("a2") == 5 * 12 * 13 // 2


@pytest.mark.parametrize("engine", ENGINES)
def test_whole_run_crosses_on_chain_links(engine):
    """Run to halt: each pass crosses into both mroutines and back on
    chain links (counted as chain hits), with one dispatch for the
    whole run once the links are warm."""
    def drive(machine):
        machine.run(max_instructions=100_000)
        return [_state(machine)]

    machine = _pair(engine, (ECALLH, SPIN), TRANSITIONS, drive)
    stats = machine.perf.tcache
    assert stats.chain_hits >= 4 * 10
    assert stats.hits + stats.misses <= 12
    assert machine.core.metal.stats.deliveries[Cause.ECALL] == 12


#: Returns from a routine entered at the start of the program.
RETURN_PC = """
_start:
    menter MR_SPIN
after:
    addi a3, a3, 1
    addi a3, a3, 2
    addi a3, a3, 4
    halt
"""


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("offset", [0, 4, 8])
def test_stop_pc_after_mexit_in_a_metal_mode_dispatch(engine, offset):
    """``run(stop_pc=…)`` stops at the return pc of an ``mexit`` (or a
    pc behind it) in a dispatch that began in Metal mode."""
    def drive(machine):
        machine.run(max_instructions=3, raise_on_limit=False)
        assert machine.core.in_metal
        stop = machine.assemble(RETURN_PC, base=0x1000).symbols["after"]
        result = machine.run(stop_pc=stop + offset)
        assert result.stop_reason == "stop_pc"
        assert machine.core.pc == stop + offset
        return [_state(machine)]

    _pair(engine, (ECALLH, SPIN), RETURN_PC, drive)


#: Installs the ``lw`` intercept rule (a0 = spec, a1 = entry) and
#: returns: normal-mode code after this ``mexit`` runs under the new
#: rule set.
MICEPT = MRoutine(name="setup", entry=3, source="""
    micept a0, a1
    mexit
""")

#: Emulating ``lw`` handler: the loaded value plus 1000.
EMUL = MRoutine(name="emul", entry=4, mregs=(13, 12), source="""
    wmr  m13, t0
    wmr  m12, t1
    rmr  t0, m29
    srai t1, t0, 20
    rmr  t0, m25
    add  t0, t0, t1
    lw   t1, 0(t0)
    addi t1, t1, 1000
    wmr  m27, t1
    rmr  t0, m29
    srli t0, t0, 7
    andi t0, t0, 31
    wmr  m26, t0
    rmr  t1, m12
    rmr  t0, m13
    mexitm
""")


@pytest.mark.parametrize("engine", ENGINES)
def test_micept_before_mexit_ends_the_dispatch(engine):
    """An mroutine that installs an intercept rule ends the dispatch at
    its ``micept``; its ``mexit`` crossing then selects the new rule
    set, under which the ``lw`` after it is an intercept terminator."""
    source = """
_start:
    li   s2, 0x3000
    li   t2, 7
    sw   t2, 0(s2)
    li   s0, 4
warm:
    lw   a4, 0(s2)
    addi s0, s0, -1
    bnez s0, warm
    li   a0, 0x503
    li   a1, MR_EMUL
    menter MR_SETUP
    lw   a5, 0(s2)
    halt
"""

    def drive(machine):
        machine.run(max_instructions=10_000)
        return [_state(machine)]

    machine = _pair(engine, (MICEPT, EMUL), source, drive)
    assert machine.reg("a4") == 7
    assert machine.reg("a5") == 1007


def _irq_handler() -> MRoutine:
    """A transparent timer handler: log the delivery and the
    interrupted pc, disable the timer, return to the interrupted
    instruction."""
    return MRoutine(name="irqh", entry=5, mregs=(10, 11), source=f"""
        wmr  m10, t0
        wmr  m11, t1
        li   t0, {LOG}
        mpld t1, 0(t0)
        addi t1, t1, 1
        mpst t1, 0(t0)
        rmr  t1, m30
        mpst t1, 4(t0)
        li   t0, TIMER_CTRL
        sw   zero, 0(t0)
        rmr  t1, m11
        rmr  t0, m10
        mexit
    """)


#: Routes the timer line, then enables delivery right before ``mexit``
#: while the line may already be pending.
IRQ_LATE_ON = MRoutine(name="irq_on", entry=6, source=f"""
    li   t0, {Cause.interrupt(0)}
    li   t1, MR_IRQH
    mivec t0, t1
    li   t0, 1
    mintc t0
    mexit
""")

#: Arms the timer to fire a0 cycles from now, with delivery already
#: enabled: the store pulls the horizon in before ``mexit``.
ARM = MRoutine(name="arm", entry=7, source="""
    li   t0, TIMER_COUNT
    lw   t1, 0(t0)
    add  t1, t1, a0
    li   t0, TIMER_COMPARE
    sw   t1, 0(t0)
    li   t0, TIMER_CTRL
    li   t1, 1
    sw   t1, 0(t0)
    li   t0, 0
    li   t1, 0
    mexit
""")

#: Normal-mode code after the routine: a counted loop the interrupt
#: lands in.
AFTER_LOOP = """
    li   s0, 40
tick:
    addi a3, a3, 1
    addi s0, s0, -1
    bnez s0, tick
    halt
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_mintc_with_a_pending_line_before_mexit(engine):
    """A routed line is already pending when the mroutine enables
    delivery: the instruction at the return pc is interrupted, exactly
    as step() would take it."""
    source = """
_start:
    li   t0, TIMER_COMPARE
    li   t1, 5
    sw   t1, 0(t0)
    li   t0, TIMER_CTRL
    li   t1, 1
    sw   t1, 0(t0)
    li   s1, 30
spin:
    addi s1, s1, -1
    bnez s1, spin
    menter MR_IRQ_ON
""" + AFTER_LOOP

    def drive(machine):
        machine.run(max_instructions=10_000)
        return [_state(machine)]

    machine = _pair(engine, (_irq_handler(), IRQ_LATE_ON), source, drive)
    assert machine.read_word(LOG) == 1
    ret = machine.assemble(source, base=0x1000).symbols["spin"] + 12
    assert machine.read_word(LOG + 4) == ret


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("delta", [1, 20, 60, 150])
def test_timer_store_before_mexit(engine, delta):
    """With delivery enabled, an mroutine's timer store pulls the bus
    horizon in: the ``mexit`` crossing reads the fresh horizon, so the
    interrupt lands at the same instruction of the normal-mode loop."""
    source = f"""
_start:
    menter MR_IRQ_ON
    li   a0, {delta}
    menter MR_ARM
""" + AFTER_LOOP

    def drive(machine):
        machine.run(max_instructions=10_000)
        return [_state(machine)]

    machine = _pair(engine, (_irq_handler(), IRQ_LATE_ON, ARM), source,
                    drive)
    assert machine.read_word(LOG) == 1


def _probe(value: int) -> MRoutine:
    return MRoutine(name="probe", entry=8, source=f"""
        addi a4, a4, {value}
        mexit
    """)


@pytest.mark.parametrize("engine", ENGINES)
def test_reload_between_runs_with_a_warm_link(engine):
    """``reload_mroutines`` between two runs while the loop's mem→mram
    link is warm: the next crossing honours the lazy ``code_version``
    flush and runs the new mroutine."""
    source = """
_start:
    li   s0, 20
loop:
    menter MR_PROBE
    addi s0, s0, -1
    bnez s0, loop
    halt
"""

    def drive(machine):
        machine.run(max_instructions=31, raise_on_limit=False)
        assert not machine.core.in_metal
        before = _state(machine)
        machine.reload_mroutines([_probe(100)])
        machine.run(max_instructions=10_000)
        return [before, _state(machine)]

    machine = _pair(engine, (_probe(1),), source, drive)
    # 31 instructions: ``li`` and six 5-instruction passes.
    assert machine.reg("a4") == 6 + 14 * 100


#: Skip handler at a known MRAM offset, and the router for it.
VECSKIP = MRoutine(name="vecskip", entry=9, source="""
    rmr  t6, m30
    addi t6, t6, 4
    wmr  m31, t6
    mexit
""")
VECINIT = MRoutine(name="vecinit", entry=10, source="""
    li   t5, MR_VECSKIP
    li   t6, CAUSE_MISALIGNED_LOAD
    mivec t6, t5
    mexit
""")


@pytest.mark.parametrize("engine", ENGINES)
def test_trap_at_an_inner_entry_ends_the_dispatch(engine):
    """A misaligned load in the middle of a chainable block traps into
    ``vecskip``.  The loop head sits at the mem pc equal to vecskip's
    MRAM offset, so the block's target map holds that pc: the trap must
    end the dispatch rather than follow the map."""
    probe = _machine(engine, (VECSKIP, VECINIT), True, route_ecall=False)
    head = probe.core.metal.image.entry_offset(VECSKIP.entry)
    loop = f"""
loop:
    andi t2, s0, 1
    j    body
body:
    add  t3, s1, t2
    li   t1, 0
    lw   t1, 0(t3)
    add  a5, a5, t1
    addi s0, s0, -1
    bnez s0, loop
    halt
"""
    states = []
    for tcache in (False, True):
        machine = _machine(engine, (VECSKIP, VECINIT), tcache,
                           route_ecall=False)
        body = machine.assemble(loop, base=head)
        start = machine.assemble(f"""
_start:
    li   s1, 0x3000
    li   t1, 9
    sw   t1, 0(s1)
    li   s0, 30
    menter MR_VECINIT
    j    loop
""", base=0x8000, extra_symbols={"loop": head})
        machine.load(body)
        machine.load(start)
        machine.core.pc = 0x8000
        machine.run(max_instructions=10_000)
        states.append(_state(machine))
        assert machine.reg("a5") == 9 * 15
        assert machine.core.metal.stats.deliveries[
            Cause.MISALIGNED_LOAD] == 15
    assert states[0] == states[1]


@pytest.mark.parametrize("engine", ENGINES)
def test_unrouted_ecall_raises_as_the_interpreter_does(engine):
    """An ECALL nobody routed raises the same MetalError, with the same
    instret, with the tcache off and on; the dispatch that raised still
    publishes what it retired."""
    outcomes = []
    for tcache in (False, True):
        machine = _machine(engine, (ECALLH, SPIN), tcache,
                           route_ecall=False)
        with pytest.raises(MetalError) as info:
            machine.load_and_run(TRANSITIONS)
        outcomes.append((str(info.value), machine.core.instret,
                         machine.cycles))
    assert outcomes[0] == outcomes[1]
    assert machine.perf.tcache.fast_instructions == machine.core.instret


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name,bound", [("syscall_heavy", 0.01),
                                        ("mcode_heavy", 0.005)])
def test_dispatches_per_instruction_on_the_default_config(engine, name,
                                                          bound):
    """On ``MachineConfig()`` a Metal-heavy workload rarely returns to
    the dispatcher: its crossings are chain hits."""
    workload = WORKLOADS[name]
    machine = build_metal_machine(list(workload.routines),
                                  config=MachineConfig(engine=engine))
    if workload.setup is not None:
        workload.setup(machine)
    result = machine.load_and_run(workload_source(name, 2_000),
                                  max_instructions=10_000_000)
    stats = machine.perf.tcache
    assert (stats.hits + stats.misses) / result.instructions <= bound
    assert stats.chain_hits >= 2 * 1_900


def test_a_profile_sink_ends_the_dispatch_at_a_crossing():
    """With the MPROF sink attached every trace record covers one
    namespace: syscall_heavy returns to the dispatcher at every
    crossing, as before crossings existed."""
    workload = WORKLOADS["syscall_heavy"]
    machine = build_metal_machine(list(workload.routines),
                                  config=MachineConfig())
    workload.setup(machine)
    machine.set_profiling(True)
    result = machine.load_and_run(workload_source("syscall_heavy", 500))
    stats = machine.perf.tcache
    assert (stats.hits + stats.misses) / result.instructions > 0.2
