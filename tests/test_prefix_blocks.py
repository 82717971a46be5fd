"""Prefix blocks: nothing falls back to ``step()`` short of a due interrupt.

When a dispatch refuses a block, the first or one its chain reaches —
the budget ends inside it, it holds the entry at ``stop_pc``, or its
last entry may start at or past the interrupt horizon — the engine runs
its longest admissible prefix compiled (``TranslationCache.prefix``):
the block of its first k entries, cached on it and evicted with it, that
falls through to entry k.  ``step()`` then runs only to deliver an
interrupt that is due.  Every test here runs the tcache off against on,
on both engines with the cache models on and off: registers, pc, mode,
instret, cycles, MRegs, cache, stall and delivery counts must agree.
"""

from __future__ import annotations

import pytest

from repro import MRoutine, build_metal_machine
from repro.asm import assemble
from repro.cpu.exceptions import Cause
from repro.machine.builder import MachineConfig
from repro.osdemo.scheduler import SCHED_SWITCHES, boot_scheduler_demo
from repro.profile.sink import TraceEventSink

CONFIGS = [(engine, caches) for engine in ("functional", "pipeline")
           for caches in (True, False)]

#: Guest RAM the interrupt handler logs to: delivery count, last cause,
#: last interrupted pc.
LOG = 0x3F00

#: Logs the delivery, turns the timer off and returns to the
#: interrupted instruction.
HANDLER = MRoutine(name="irqh", entry=2, mregs=(10, 11), source=f"""
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
    li   t0, TIMER_CTRL
    mpst zero, 0(t0)
    rmr  t1, m11
    rmr  t0, m10
    mexit
""")

#: Routes the timer line to the handler and makes interrupts
#: deliverable.
IRQ_ON = MRoutine(name="irq_on", entry=1, source=f"""
    li   t0, {Cause.interrupt(0)}
    li   t1, MR_IRQH
    mivec t0, t1
    li   t0, 1
    mintc t0
    mexit
""")

#: A loop block of 11 entries mixing line-head loads (``loop`` starts an
#: I-cache line and the second load the next one), a store, a muldiv
#: and plain entries.
LOOP = """
_start:
    menter MR_IRQ_ON
    li   s1, 0x3000
    li   s0, 6
    j    loop
    .align 5
loop:
    lw   t0, 0(s1)
    addi a1, a1, 1
    sw   a1, 4(s1)
    addi a2, a2, 2
    xor  a3, a3, a1
    mul  a4, a1, a2
    addi a5, a5, 3
    add  a6, a6, t0
    lw   t1, 4(s1)
    addi s0, s0, -1
    bnez s0, loop
    halt
"""
LOOP_LEN = 11


def _word(source: str) -> int:
    return assemble(source, base=0).words()[0]


def _state(machine):
    core = machine.core
    caches = [(cache.stats.hits, cache.stats.misses)
              for cache in (core.icache, core.dcache) if cache is not None]
    return {
        "pc": core.pc,
        "in_metal": core.in_metal,
        "instret": core.instret,
        "cycles": machine.cycles,
        "regs": list(core.regs),
        "mregs": core.metal.mregs.snapshot(),
        "caches": caches,
        "stalls": getattr(machine.sim, "stalls", None),
        "deliveries": dict(core.metal.stats.deliveries),
        "log": [machine.read_word(LOG + 4 * i) for i in range(3)],
    }


def _machine(engine, caches, tcache, routines, source):
    machine = build_metal_machine(list(routines), config=MachineConfig(
        engine=engine, with_caches=caches, tcache=tcache))
    program = machine.assemble(source)
    machine.load(program)
    machine.core.pc = program.symbols["_start"]
    return machine, program.symbols


def _record_prefixes(machine) -> list:
    """Every prefix block the engine runs on *machine*, in order."""
    tcache = machine.sim.tcache
    real = tcache.prefix
    made = []

    def prefix(block, k):
        block = real(block, k)
        if block not in made:
            made.append(block)
        return block

    tcache.prefix = prefix
    return made


def _pair(engine, caches, routines, source, drive):
    """Run *source* with the tcache off and on; ``drive(machine,
    symbols, made)`` returns a list of states, which must agree, *made*
    being the prefix blocks run (none with the tcache off).  Returns the
    tcache-on machine and its *made*."""
    runs = []
    for tcache in (False, True):
        machine, symbols = _machine(engine, caches, tcache, routines, source)
        made = _record_prefixes(machine)
        runs.append(drive(machine, symbols, made))
    assert runs[0] == runs[1]
    stats = machine.perf.tcache
    assert stats.jit_instructions == machine.core.instret
    return machine, made


def _entry_starts(engine, caches):
    """The cycle count at which each entry of LOOP's third iteration
    begins on the interpreter, the timer off."""
    machine, symbols = _machine(engine, caches, False, (HANDLER, IRQ_ON),
                                LOOP)
    timer = machine.sim.timer
    trace = []
    begin = [0]

    def hook(step):
        trace.append((step.pc, begin[0]))
        begin[0] = timer.cycles

    machine.sim.add_step_hook(hook)
    machine.run(max_instructions=10_000)
    heads = [i for i, (pc, _c) in enumerate(trace) if pc == symbols["loop"]]
    third = trace[heads[2]:heads[2] + LOOP_LEN]
    assert [pc for pc, _c in third] == [symbols["loop"] + 4 * i
                                        for i in range(LOOP_LEN)]
    return [cycles for _pc, cycles in third]


@pytest.mark.parametrize("engine,caches", CONFIGS)
def test_horizon_before_each_entry(engine, caches):
    """The timer comes due at the cycle each entry of the loop block
    begins at in turn: the interrupt is taken at that entry, as on the
    interpreter, and every instruction retires compiled; inside the
    block, the entries before it run as a prefix."""
    starts = _entry_starts(engine, caches)
    for j, compare in enumerate(starts):
        def drive(machine, symbols, made):
            machine.timer.compare = compare
            machine.timer.irq_enabled = True
            machine.run(max_instructions=10_000)
            return [_state(machine)]

        machine, made = _pair(engine, caches, (HANDLER, IRQ_ON), LOOP,
                              drive)
        loop = machine.assemble(LOOP).symbols["loop"]
        assert machine.core.halted
        assert ([machine.read_word(LOG + 4 * i) for i in range(3)]
                == [1, Cause.interrupt(0), loop + 4 * j]), j
        assert made or j == 0, j


def _record_dispatches(machine) -> list:
    """What the engine does on *machine*, in order: ``("dispatch",
    block)`` at each dispatch, ``("chain", block)`` for each block a
    chain lookup returns, ``("prefix", block)`` for each block whose
    prefix runs."""
    sim = machine.sim
    tcache = sim.tcache
    log = []
    exec_block, chain_next, prefix = (sim._exec_block, tcache.chain_next,
                                      tcache.prefix)

    def dispatch(block, *args):
        log.append(("dispatch", block))
        return exec_block(block, *args)

    def chain(*args):
        block = chain_next(*args)
        log.append(("chain", block))
        return block

    def cut(block, k):
        log.append(("prefix", block))
        return prefix(block, k)

    sim._exec_block, tcache.chain_next, tcache.prefix = dispatch, chain, cut
    return log


@pytest.mark.parametrize("engine,caches", CONFIGS)
def test_a_chain_runs_the_refused_blocks_prefix(engine, caches):
    """The timer comes due at each entry of the loop block's third
    iteration in turn.  The chain that reaches the block, refused at
    the horizon, runs its prefix in the same dispatch: every prefix
    follows the chain lookup of its block, and the run makes as many
    dispatches wherever in the block the interrupt falls."""
    starts = _entry_starts(engine, caches)
    dispatches = []
    for j, compare in enumerate(starts):
        log = []

        def drive(machine, symbols, made):
            nonlocal log
            if machine.sim.tcache_enabled:
                log = _record_dispatches(machine)
            machine.timer.compare = compare
            machine.timer.irq_enabled = True
            machine.run(max_instructions=10_000)
            return [_state(machine)]

        _pair(engine, caches, (HANDLER, IRQ_ON), LOOP, drive)
        prefixes = [i for i, (what, _b) in enumerate(log) if what == "prefix"]
        assert prefixes or j == 0, j
        for i in prefixes:
            assert log[i - 1] == ("chain", log[i][1]), j
        dispatches.append(sum(1 for what, _b in log if what == "dispatch"))
    assert len(set(dispatches)) == 1, dispatches


@pytest.mark.parametrize("engine,caches", CONFIGS)
def test_every_budget_up_to_the_block_length(engine, caches):
    """``run(max_instructions=k)``, repeated to the halt, for every k up
    to the loop block's length: each budget's tail runs as a prefix."""
    for k in range(1, LOOP_LEN + 1):
        def drive(machine, symbols, made):
            states = []
            while not machine.core.halted:
                machine.run(max_instructions=k, raise_on_limit=False)
                states.append(_state(machine))
            return states

        _, made = _pair(engine, caches, (HANDLER, IRQ_ON), LOOP, drive)
        assert made, k


@pytest.mark.parametrize("engine,caches", CONFIGS)
def test_stop_pc_at_each_entry(engine, caches):
    """``run(stop_pc=…)`` at each entry of the loop block, three times
    over: the entries before it run as a prefix, and the run stops
    there."""
    for j in range(LOOP_LEN):
        def drive(machine, symbols, made):
            stop = symbols["loop"] + 4 * j
            states = []
            for _ in range(3):
                result = machine.run(stop_pc=stop, max_instructions=10_000)
                assert result.stop_reason == "stop_pc"
                states.append(_state(machine))
                machine.run(max_instructions=1, raise_on_limit=False)
            return states

        _, made = _pair(engine, caches, (HANDLER, IRQ_ON), LOOP, drive)
        assert made, j


#: The store in the loop rewrites the very next instruction, ``patch``,
#: on the same page: a prefix holding both must end after the store and
#: run the new word.
SMC = f"""
_start:
    li   s0, 3
    li   t6, patch
    li   t5, {_word("addi a3, a3, 5")}
loop:
    addi a1, a1, 1
    sw   t5, 0(t6)
patch:
    addi a3, a3, 1
    addi a4, a4, 1
    addi s0, s0, -1
    bnez s0, loop
    halt
"""


@pytest.mark.parametrize("engine,caches", CONFIGS)
def test_smc_inside_a_prefix_evicts_it(engine, caches):
    """A budget ends just past ``patch``: the prefix that runs holds the
    store and the instruction it rewrites.  The store evicts the parent
    block and every prefix of it, so the running prefix leaves before
    the stale word and the new one runs."""
    def drive(machine, symbols, made):
        first = None
        states = []
        while not machine.core.halted:
            machine.run(max_instructions=6, raise_on_limit=False)
            states.append(_state(machine))
            if first is None:
                first = list(made)
        if machine.sim.tcache_enabled:
            assert first and all(not prefix.valid and prefix.jit_fn is None
                                 for prefix in first)
        return states

    machine, _ = _pair(engine, caches, (), SMC, drive)
    assert machine.reg("a3") == 3 * 5
    assert machine.perf.tcache.invalidations > 0


#: A block-device read lands on the loop's own page while budget tails
#: run as prefixes: the sector is the code from ``loop`` on, the loop's
#: bytes unchanged and ``tail`` rewritten.
DMA = """
_start:
    li   t0, BLK_SECTOR
    li   t1, 3
    sw   t1, 0(t0)
    li   s2, loop
    li   t0, BLK_DMA_ADDR
    sw   s2, 0(t0)
    li   t0, BLK_CMD
    li   t1, 1
    sw   t1, 0(t0)
    li   s0, 200
    li   s3, 0x3C00
loop:
    lw   t2, 0(s3)
    addi a1, a1, 1
    lw   t3, 4(s3)
    addi a2, a2, 2
    addi s0, s0, -1
    bnez s0, loop
tail:
    addi a3, a3, 1
    halt
"""


@pytest.mark.parametrize("engine,caches", CONFIGS)
def test_dma_onto_the_parents_page_evicts_its_prefixes(engine, caches):
    def drive(machine, symbols, made):
        start, tail = symbols["loop"], symbols["tail"]
        sector = bytearray(machine.read_bytes(start, 512))
        sector[tail - start:tail - start + 4] = _word(
            "addi a3, a3, 5").to_bytes(4, "little")
        machine.blockdev.preload(3, bytes(sector))
        states = []
        landed_on = []
        while not machine.core.halted:
            if not machine.blockdev.completed:
                landed_on = list(made)
            machine.run(max_instructions=4, raise_on_limit=False)
            states.append(_state(machine))
        if machine.sim.tcache_enabled:
            assert landed_on and all(
                not prefix.valid and prefix.jit_fn is None
                for prefix in landed_on)
        return states

    machine, _ = _pair(engine, caches, (), DMA, drive)
    assert machine.blockdev.completed == 1
    assert machine.reg("a3") == 5


#: An mroutine of one long block, entered in a loop.
LONG = MRoutine(name="long", entry=1, source="\n".join(
    ["    addi a0, a0, 1", "    xor  a1, a1, a0"] * 10 + ["    mexit"]))

LONG_LOOP = """
_start:
    li   s0, 4
loop:
    menter MR_LONG
    addi s0, s0, -1
    bnez s0, loop
    halt
"""


@pytest.mark.parametrize("engine,caches", CONFIGS)
def test_mram_budget_tails(engine, caches):
    """Budgets that end inside the mroutine's block run its prefixes in
    the mram namespace."""
    for k in (1, 2, 3, 5, 7, 13, 20):
        def drive(machine, symbols, made):
            states = []
            while not machine.core.halted:
                machine.run(max_instructions=k, raise_on_limit=False)
                states.append(_state(machine))
            return states

        _, made = _pair(engine, caches, (LONG,), LONG_LOOP, drive)
        assert any(prefix.mram for prefix in made), k


#: 80 plain entries from 256 bytes short of a page's end: the block at
#: ``_start`` is 64 entries (the length cap), all on that page, and the
#: block at its eleventh entry runs on into the next page.
STRAIGHT = "_start:\n" + "    addi a0, a0, 1\n" * 80 + "    halt\n"


def test_a_prefix_chain_break_reports_mem():
    """A mem prefix's link leads to a block evicted on its own (it runs
    on into a page the prefix's parent does not touch): the chain break
    an attached sink records carries the prefix's namespace, ``mem``,
    though the prefix is not in the block table."""
    base = 0x2000 - 256
    machine = build_metal_machine([], config=MachineConfig(
        with_caches=False))
    machine.load(machine.assemble(STRAIGHT, base=base))
    sink = TraceEventSink()
    machine.sim.set_profile_sink(sink)
    machine.core.pc = base
    machine.run(max_instructions=10, raise_on_limit=False)
    parent = machine.sim.tcache._mem[base]
    prefix = parent.prefixes[10]
    successor = prefix.links[base + 40]
    machine.write_word(0x2800, 0)
    assert parent.valid and prefix.valid and not successor.valid
    machine.core.pc = base
    machine.run(max_instructions=10, raise_on_limit=False)
    assert [event[2:5] for event in sink.events()
            if event[2] == "chain_break"] == [("chain_break", "mem", base)]
    assert machine.reg("a0") == 20


def test_a_block_run_only_as_prefixes_reports_tier_jit():
    """The hot-trace report's tier label of a block that only ever ran
    as prefixes, a budget cutting every dispatch, is the tier that ran
    it."""
    machine, symbols = _machine("functional", True, True, (), "_start:\n"
                                + "    addi a0, a0, 1\n" * 6 + "    halt\n")
    while not machine.core.halted:
        machine.run(max_instructions=2, raise_on_limit=False)
    tcache = machine.sim.tcache
    assert tcache._mem[symbols["_start"]].jit_fn is None
    assert tcache.tier_of("mem", symbols["_start"]) == "jit"


@pytest.mark.parametrize("engine,caches", CONFIGS)
def test_scheduler_retires_every_instruction_compiled(engine, caches):
    """The booted preemptive scheduler, timer interrupts live, retires
    every one of 50k instructions compiled; ``step()`` only delivers
    the interrupts."""
    states = []
    for tcache in (False, True):
        machine = boot_scheduler_demo(config=MachineConfig(
            engine=engine, with_caches=caches, tcache=tcache))
        machine.run(max_instructions=50_000, raise_on_limit=False)
        states.append(_state(machine))
    assert states[0] == states[1]
    assert machine.read_word(SCHED_SWITCHES) > 10
    assert machine.perf.tcache.jit_instructions == machine.core.instret
