"""Translation-cache correctness: invalidation, exactness, counters.

The tcache (:mod:`repro.cpu.tcache`) is a host-side fast path and must be
architecture-invisible.  Every test here runs with the cache on and off,
on both engines, and expects bit-identical guest behaviour: self-modifying
code, mroutine reloads, interception enabled mid-run, and interrupt-heavy
workloads.
"""

from __future__ import annotations

import pytest

from repro import MRoutine, assemble, build_metal_machine, build_trap_machine
from repro.cpu.exceptions import Cause
from repro.cpu.functional import FunctionalSimulator
from repro.cpu.pipeline import PipelineSimulator
from repro.cpu.tcache import F_TERM
from repro.machine.builder import MachineConfig
from repro.mem.cache import Cache
from repro.profile.workloads import SYS, WORKLOADS, workload_source

ENGINES = ("functional", "pipeline")
TCACHE = (True, False)
NOOP = MRoutine(name="noop", entry=0, source="mexit\n")


def _word_of(source: str) -> int:
    """Encode a single instruction and return its 32-bit word."""
    program = assemble(source, base=0)
    return int.from_bytes(program.data[:4], "little")


def _machines(**kwargs):
    for caches in (False, True):
        yield build_metal_machine([NOOP], with_caches=caches, **kwargs)
        yield build_trap_machine(with_caches=caches, **kwargs)


def _outcome(machine, result) -> tuple:
    """Instructions, cycles, registers and (caches on) the I-cache and
    D-cache hit and miss counts of one run."""
    core = machine.core
    caches = None
    if core.icache is not None:
        caches = (core.icache.stats.hits, core.icache.stats.misses,
                  core.dcache.stats.hits, core.dcache.stats.misses)
    return (result.instructions, result.cycles, tuple(core.regs), caches)


# ---------------------------------------------------------------------------
# self-modifying code
# ---------------------------------------------------------------------------

SMC_PROGRAM = f"""
_start:
    li   s1, patch
    li   s3, {{new_word:#x}}
again:
patch:
    addi a0, a0, 1           # first pass; becomes "addi a0, a0, 100"
    bnez s0, done
    sw   s3, 0(s1)           # overwrite the instruction we just ran
    li   s0, 1
    j    again
done:
    halt
"""


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("tcache", TCACHE)
def test_self_modifying_code(engine, tcache):
    """A store over an already-executed instruction must take effect the
    next time that address is reached (store-hook eviction)."""
    new_word = _word_of("addi a0, a0, 100")
    source = SMC_PROGRAM.format(new_word=new_word)
    for machine in _machines(engine=engine, tcache=tcache):
        machine.load_and_run(source, max_instructions=10_000)
        assert machine.reg("a0") == 101, (
            f"{machine.name}: stale translation executed after SMC store"
        )


@pytest.mark.parametrize("engine", ENGINES)
def test_host_poke_invalidates(engine):
    """Host-side Machine.write_word into code must also evict blocks."""
    noop = MRoutine(name="noop", entry=0, source="mexit\n")
    machine = build_metal_machine([noop], engine=engine, with_caches=False)
    program = machine.assemble("""
_start:
    addi a0, a0, 1
    halt
""", base=0x1000)
    machine.load(program)
    machine.core.pc = 0x1000
    machine.run(max_instructions=10)
    assert machine.reg("a0") == 1
    # Rewrite the first instruction from the host, then re-run it.
    machine.write_word(0x1000, _word_of("addi a0, a0, 50"))
    machine.core.halted = False
    machine.core.pc = 0x1000
    machine.run(max_instructions=10)
    assert machine.reg("a0") == 51


# ---------------------------------------------------------------------------
# mroutine reload
# ---------------------------------------------------------------------------

def _probe_routine(value: int) -> MRoutine:
    return MRoutine(name="probe", entry=0, source=f"""
        wmr  m13, t0
        li   t0, {value}
        wmr  m14, t0
        rmr  t0, m13
        mexit
    """, shared_mregs=(13, 14))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("tcache", TCACHE)
def test_mroutine_reload_invalidates(engine, tcache):
    """After reload_mroutines, menter must run the *new* mcode, not a
    cached translation of the old MRAM contents."""
    machine = build_metal_machine([_probe_routine(111)], engine=engine,
                                  with_caches=False, tcache=tcache)
    machine.load_and_run("""
_start:
    menter MR_PROBE
    halt
""", max_instructions=1_000)
    assert machine.mreg(14) == 111

    machine.reload_mroutines([_probe_routine(222)])
    machine.core.halted = False
    machine.core.pc = 0x1000
    machine.run(max_instructions=1_000)
    assert machine.mreg(14) == 222, (
        "stale MRAM translation survived reload_mroutines"
    )


# ---------------------------------------------------------------------------
# interception enabled mid-run
# ---------------------------------------------------------------------------

SETUP = MRoutine(name="setup", entry=0, source="""
    micept a0, a1
    mexit
""")

# lw handler that emulates the load and adds 1000 to the result.
EMUL_PLUS = MRoutine(name="emul", entry=1, source="""
    wmr  m13, t0
    wmr  m14, t1
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
    rmr  t1, m14
    rmr  t0, m13
    mexitm
""", shared_mregs=(13, 14))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("tcache", TCACHE)
def test_intercept_enable_mid_run(engine, tcache):
    """Blocks compiled while the intercept table was empty must not keep
    running once a rule is installed mid-run."""
    machine = build_metal_machine([SETUP, EMUL_PLUS], engine=engine,
                                  with_caches=False, tcache=tcache)
    machine.load_and_run("""
_start:
    li   s2, 0x3000
    li   t2, 7
    sw   t2, 0(s2)
    li   s0, 50
warm:
    lw   a0, 0(s2)           # plain loads: translations get hot
    addi s0, s0, -1
    bnez s0, warm
    li   a0, 0x503           # opcode LOAD, funct3 2: lw only
    li   a1, MR_EMUL
    menter MR_SETUP
    lw   a2, 0(s2)           # must now be intercepted and emulated
    halt
""", max_instructions=10_000)
    assert machine.core.metal.intercept.hits == 1
    assert machine.reg("a2") == 1007, (
        "load after micept was not intercepted (stale fast-path block)"
    )


# ---------------------------------------------------------------------------
# tcache on/off differential (cycle exactness)
# ---------------------------------------------------------------------------

def _timer_interrupt_machine(engine, tcache):
    handler = MRoutine(name="tick", entry=0, source="""
        wmr  m10, t0
        wmr  m11, t1
        li   t0, 0x3F00
        mpld t1, 0(t0)
        addi t1, t1, 1
        mpst t1, 0(t0)
        li   t0, TIMER_CTRL
        mpst zero, 0(t0)
        rmr  t1, m11
        rmr  t0, m10
        mexit
    """, mregs=(10, 11))
    enable = MRoutine(name="irq_on", entry=1, source="""
        li   t0, CAUSE_INTERRUPT_TIMER
        li   t1, MR_TICK
        mivec t0, t1
        li   t0, 1
        mintc t0
        mexit
    """)
    machine = build_metal_machine([handler, enable], engine=engine,
                                  with_caches=False, tcache=tcache)
    machine.timer.compare = 500
    machine.timer.irq_enabled = True
    return machine


TIMER_WORKLOAD = """
_start:
    menter MR_IRQ_ON
spin:
    li   t2, 0x3F00
    lw   t3, 0(t2)
    addi t4, t4, 1
    beqz t3, spin
    halt
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_timer_interrupt_workload_identical(engine):
    """Interrupt mid-loop: instructions, cycles, registers and memory all
    identical with the tcache on and off."""
    outcomes = {}
    for tcache in TCACHE:
        machine = _timer_interrupt_machine(engine, tcache)
        result = machine.load_and_run(TIMER_WORKLOAD, max_instructions=100_000)
        outcomes[tcache] = (
            result.instructions,
            result.cycles,
            tuple(machine.core.regs),
            machine.read_word(0x3F00),
        )
        assert machine.read_word(0x3F00) == 1
    assert outcomes[True] == outcomes[False], (
        f"tcache changed guest-visible state: {outcomes}"
    )


FIB_WORKLOAD = """
_start:
    li   s0, 24
    li   a0, 0
    li   a1, 1
    li   s2, 0x3800
fib:
    add  a2, a0, a1
    mv   a0, a1
    mv   a1, a2
    sw   a2, 0(s2)
    addi s2, s2, 4
    addi s0, s0, -1
    bnez s0, fib
    halt
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_plain_workload_identical(engine):
    outcomes = {}
    for tcache in TCACHE:
        outcomes[tcache] = [
            _outcome(machine, machine.load_and_run(FIB_WORKLOAD,
                                                   max_instructions=10_000))
            for machine in _machines(engine=engine, tcache=tcache)]
    assert outcomes[True] == outcomes[False]


@pytest.mark.parametrize("engine", ENGINES)
def test_set_tcache_mid_machine(engine):
    """The flag is switchable on a live machine; both halves of the run
    retire the same architecture."""
    noop = MRoutine(name="noop", entry=0, source="mexit\n")
    machine = build_metal_machine([noop], engine=engine, with_caches=False)
    program = machine.assemble(FIB_WORKLOAD, base=0x1000)
    machine.load(program)
    machine.core.pc = 0x1000
    machine.run(max_instructions=20, raise_on_limit=False)  # fast path
    machine.set_tcache(False)
    machine.run(max_instructions=10_000)       # seed path finishes the run
    assert machine.core.halted

    reference = build_metal_machine([noop], engine=engine,
                                    with_caches=False, tcache=False)
    reference.load_and_run(FIB_WORKLOAD, max_instructions=10_000)
    assert machine.cycles == reference.cycles
    assert machine.core.regs == reference.core.regs


# ---------------------------------------------------------------------------
# counters and snapshot interaction
# ---------------------------------------------------------------------------

#: A loop whose ``menter`` round-trip through the ``noop`` mroutine
#: crosses into MRAM and back inside one dispatch: after the first pass
#: every block transition, crossings included, is a chain hit.
MENTER_LOOP = """
_start:
    li   s0, 24
loop:
    addi a0, a0, 3
    menter 0
    addi s0, s0, -1
    bnez s0, loop
    halt
"""


def test_perf_counters_surface():
    noop = MRoutine(name="noop", entry=0, source="mexit\n")
    machine = build_metal_machine([noop], with_caches=False)
    machine.load_and_run(MENTER_LOOP, max_instructions=10_000)
    perf = machine.perf
    stats = perf.tcache
    assert perf.guest_instructions > 0
    assert perf.host_seconds > 0
    assert perf.host_mips > 0
    assert stats.blocks_compiled > 0
    assert stats.hits > 0
    assert stats.chain_hits >= 3 * 20
    assert stats.hit_rate > 0.5
    assert stats.fast_instructions > 0
    assert stats.fast_instructions <= perf.guest_instructions
    summary = perf.summary()
    assert "host MIPS" in summary and "hit rate" in summary


def test_snapshot_restore_evicts_patched_code():
    from repro.machine.snapshot import restore_snapshot, take_snapshot

    noop = MRoutine(name="noop", entry=0, source="mexit\n")
    machine = build_metal_machine([noop], with_caches=False)
    program = machine.assemble(SMC_PROGRAM.format(
        new_word=_word_of("addi a0, a0, 100")), base=0x1000)
    machine.load(program)
    machine.core.pc = 0x1000
    snap = take_snapshot(machine)
    machine.run(max_instructions=10_000)
    assert machine.reg("a0") == 101
    # Restore rewrites the patched page through the write hook; cached
    # translations of the patched code must not survive.
    restore_snapshot(machine, snap)
    machine.run(max_instructions=10_000)
    assert machine.reg("a0") == 101


# ---------------------------------------------------------------------------
# superblock chaining
# ---------------------------------------------------------------------------

def _hop_program(machine, new_word):
    """A loop at 0x1000 chained through a one-instruction stub on a
    *different* page at 0x2000; the guest patches the stub mid-run while
    the predecessor's chain link is warm.

    Iterations 1..97 add 1, iterations 98..100 add 100: a0 ends at 397.
    """
    main = machine.assemble(f"""
_start:
    li   s1, hop
    li   s2, {new_word:#x}
    li   s0, 100
loop:
    j    hop
back:
    addi s0, s0, -1
    li   t1, 3
    bne  s0, t1, cont
    sw   s2, 0(s1)           # evict hop's block while loop chains to it
cont:
    bnez s0, loop
    halt
""", base=0x1000, extra_symbols={"hop": 0x2000})
    stub = machine.assemble("""
hop:
    addi a0, a0, 1           # becomes "addi a0, a0, 100" when s0 == 3
    j    back
""", base=0x2000, extra_symbols={"back": main.symbols["back"]})
    machine.load(main)
    machine.load(stub)
    machine.core.pc = 0x1000


@pytest.mark.parametrize("engine", ENGINES)
def test_chained_successor_evicted_mid_run(engine):
    """Evicting the *successor* of a chained pair mid-run must break the
    link: the predecessor's next traversal has to re-dispatch and see the
    patched code, with identical results to the tcache-off run."""
    new_word = _word_of("addi a0, a0, 100")
    outcomes = {}
    for tcache in TCACHE:
        noop = MRoutine(name="noop", entry=0, source="mexit\n")
        machine = build_metal_machine([noop], engine=engine,
                                      with_caches=False, tcache=tcache)
        _hop_program(machine, new_word)
        result = machine.run(max_instructions=10_000)
        assert machine.reg("a0") == 397, (
            f"tcache={tcache}: stale chained successor executed after "
            f"cross-page SMC store"
        )
        outcomes[tcache] = (result.instructions, result.cycles,
                            tuple(machine.core.regs))
        if tcache and engine == "functional":
            stats = machine.perf.tcache
            assert stats.chain_hits > 0
            assert stats.chain_breaks >= 1, (
                "evicting a chained successor must sever the link"
            )
    assert outcomes[True] == outcomes[False]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("tcache", TCACHE)
def test_intercept_edge_severs_warm_chain(engine, tcache):
    """Installing the first intercept rule while a chained trampoline
    loop is hot must keep every mem block — including blocks only
    reachable through chain links — from running the intercepted load."""
    machine = build_metal_machine([SETUP, EMUL_PLUS], engine=engine,
                                  with_caches=False, tcache=tcache)
    machine.load_and_run("""
_start:
    li   s2, 0x3000
    li   t2, 7
    sw   t2, 0(s2)
    li   s0, 60
warm:
    lw   a0, 0(s2)
    j    mid                 # unconditional hop: warms a chain link
mid:
    addi s0, s0, -1
    bnez s0, warm
    li   a0, 0x503           # opcode LOAD, funct3 2: lw only
    li   a1, MR_EMUL
    menter MR_SETUP
    lw   a2, 0(s2)           # must be intercepted, not run from a chain
    halt
""", max_instructions=10_000)
    assert machine.core.metal.intercept.hits == 1
    assert machine.reg("a2") == 1007, (
        "load after micept escaped interception through a warm chain"
    )
    if tcache and engine == "functional":
        assert machine.perf.tcache.chain_hits > 0, (
            "trampoline loop should have followed chain links"
        )


def test_snapshot_restore_severs_chains():
    """The eviction on snapshot restore must also kill chained
    successors: a link into a dropped block may never execute stale
    code."""
    from repro.machine.snapshot import restore_snapshot, take_snapshot

    noop = MRoutine(name="noop", entry=0, source="mexit\n")
    machine = build_metal_machine([noop], with_caches=False)
    new_word = _word_of("addi a0, a0, 100")
    _hop_program(machine, new_word)
    snap = take_snapshot(machine)
    machine.run(max_instructions=10_000)
    assert machine.reg("a0") == 397
    restore_snapshot(machine, snap)
    machine.run(max_instructions=10_000)
    assert machine.reg("a0") == 397, (
        "chain link survived snapshot restore and replayed patched code"
    )


# ---------------------------------------------------------------------------
# I-cache fetch plan (cache models on)
# ---------------------------------------------------------------------------

#: One 18-instruction block that starts 12 bytes into a line and spans
#: three 32-byte lines, with a load, a MULDIV and a store at and off
#: line heads.
MIDLINE_BLOCK = """
_start:
    li   s0, 40
    li   s1, 0x3000
    j    body
    .align 6
    nop
    nop
    nop
body:
    addi t1, t1, 1
    addi t2, t2, 3
    xor  t3, t1, t2
    slli t4, t1, 2
    add  t5, t3, t4
    lw   t6, 0(s1)           # first fetch of the second line
    mul  a1, t5, t2
    add  a2, a1, t6
    srli a3, a2, 1
    or   a4, a3, t1
    and  a5, a4, t2
    sub  a6, a5, t3
    addi a7, a7, 1
    sw   a6, 4(s1)           # first fetch of the third line
    addi t1, t1, 5
    xor  t2, t2, t1
    addi s0, s0, -1
    bnez s0, body
    halt
"""


#: The tcache-on runs the fetch-plan tests compare with the
#: interpreter: hooked, where a no-op step hook sends every block to
#: ``step()``, and compiled, where MJIT's emitted plan runs every block
#: from its first dispatch.  Compiled runs last.
TCACHE_RUNS = ("hooked", "compiled")


def _tcache_run(machine, run) -> None:
    """Set *machine* up for one of :data:`TCACHE_RUNS`."""
    if run == "hooked":
        machine.sim.add_step_hook(lambda step: None)


def _fetch_plan_pair(source, engine, routines=(NOOP,), setup=None):
    """Run *source* with the cache models on, tcache off and (for each
    of :data:`TCACHE_RUNS`) on; assert identical instructions, cycles,
    registers, cache counts and (pipeline engine) stall counters, and
    return the compiled run's machine."""
    outcomes = []
    for run in (None, *TCACHE_RUNS):
        machine = build_metal_machine(list(routines), engine=engine,
                                      tcache=run is not None)
        _tcache_run(machine, run)
        if setup is not None:
            setup(machine)
        result = machine.load_and_run(source, max_instructions=100_000)
        outcomes.append((_outcome(machine, result),
                         getattr(machine.sim, "stalls", None)))
    assert outcomes[1:] == outcomes[:1] * len(TCACHE_RUNS), (
        f"fetch plan diverged from the interpreter: {outcomes}")
    return machine


@pytest.mark.parametrize("engine", ENGINES)
def test_fetch_plan_midline_block_spanning_three_lines(engine):
    machine = _fetch_plan_pair(MIDLINE_BLOCK, engine)
    body = machine.assemble(MIDLINE_BLOCK).symbols["body"]
    block = machine.sim.tcache.mem_block(body, machine.bus)
    line = machine.core.icache.line_size
    assert body % line == 12
    assert (block.end - 4) // line - body // line == 2


@pytest.mark.parametrize("line_size,ways,sets", [
    (4, 1, 2), (16, 4, 1), (32, 2, 1), (64, 1, 1)])
def test_fetch_plan_exact_for_any_geometry(line_size, ways, sets):
    """I-caches too small for the loop: every geometry keeps missing,
    and the plan reproduces each hit, miss and LRU eviction, on either
    engine, compiled and under a step hook."""
    for simulator in (FunctionalSimulator, PipelineSimulator):
        outcomes = []
        for run in (None, *TCACHE_RUNS):
            tcache = run is not None
            machine = build_metal_machine([NOOP], tcache=tcache)
            core = machine.core
            # The engine compiles its fetch plans for the I-cache it is
            # built with, so swap the cache in and rebuild the engine.
            core.icache = Cache(size=sets * line_size * ways,
                                line_size=line_size, ways=ways,
                                name="icache",
                                miss_latency=core.timing.mem_latency)
            machine.sim = simulator(core, tcache=tcache)
            _tcache_run(machine, run)
            result = machine.load_and_run(MIDLINE_BLOCK,
                                          max_instructions=10_000)
            outcomes.append((_outcome(machine, result),
                             getattr(machine.sim, "stalls", None)))
        assert outcomes[1:] == outcomes[:1] * len(TCACHE_RUNS), simulator
        # I-cache misses: at least one per pass.
        assert outcomes[0][0][3][1] > 40
        assert machine.perf.tcache.jit_instructions > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_fetch_plan_load_trap_on_second_instruction_of_a_line(engine):
    """The trap stops the plan after the faulting fetch; the handler
    resumes mid-line, where a fresh block starts."""
    source = """
_start:
    li   s0, 30
    li   s1, 0x3001          # misaligned for lw
    j    loop
    .align 5
loop:
    addi t1, t1, 1
    lw   t2, 0(s1)           # second instruction of the line: traps
    addi t3, t3, 1
    addi s0, s0, -1
    bnez s0, loop
    halt
"""
    # SYS resumes at epc + 4, skipping the faulting load.
    machine = _fetch_plan_pair(
        source, engine, routines=(SYS,),
        setup=lambda m: m.route_cause(Cause.MISALIGNED_LOAD, "sys"))
    assert machine.assemble(source).symbols["loop"] % 32 == 0
    assert machine.reg("t2") == 0 and machine.reg("t3") == 30


@pytest.mark.parametrize("engine", ENGINES)
def test_fetch_plan_smc_store_aborts_mid_block(engine):
    """A store that rewrites a later instruction of its own block aborts
    the block mid-line; the re-dispatch fetches the new bytes."""
    source = f"""
_start:
    li   s1, patch
    li   s3, {_word_of("addi a0, a0, 100"):#x}
    li   s0, 3
    j    loop
    .align 5
loop:
    addi t1, t1, 1
    sw   s3, 0(s1)           # evicts this block
    addi t2, t2, 1           # re-dispatch starts here, mid-line
patch:
    addi a0, a0, 1
    addi s0, s0, -1
    bnez s0, loop
    halt
"""
    machine = _fetch_plan_pair(source, engine)
    assert machine.reg("a0") == 300
    assert machine.perf.tcache.invalidations >= 3


@pytest.mark.parametrize("engine", ENGINES)
def test_fetch_plan_chain_into_predecessors_last_line(engine):
    """The successor's first fetch re-reads the line its predecessor
    ended in: a real access that hits and leaves the LRU state alone."""
    source = """
_start:
    li   s0, 100
    j    loop
    .align 5
loop:
    addi t1, t1, 1
    addi t2, t2, 2
    j    hop
hop:
    xor  t3, t1, t2
    addi s0, s0, -1
    bnez s0, loop
    halt
"""
    machine = _fetch_plan_pair(source, engine)
    hop = machine.assemble(source).symbols["hop"]
    assert hop // 32 == (hop - 4) // 32
    assert machine.perf.tcache.chain_hits > 0


#: Metal-mode loop over guest RAM: each pass loads a word, stores it
#: back incremented 64 bytes further on, writes it to the console and
#: adds the timer count into t6, so the routine's blocks carry F_SYNC
#: entries and a late device sync changes t6.
RAM_COPY = MRoutine(name="copy", entry=1, source="""
    li   t0, 0x3000
    li   t1, 8
    li   t3, CONSOLE_TX
    li   t4, TIMER_COUNT
copy_loop:
    lw   t2, 0(t0)
    addi t2, t2, 1
    sw   t2, 64(t0)
    sw   t2, 0(t3)
    lw   t5, 0(t4)
    add  t6, t6, t5
    addi t0, t0, 4
    addi t1, t1, -1
    bnez t1, copy_loop
    mexit
""")


@pytest.mark.parametrize("engine", ENGINES)
def test_fetch_plan_mroutine_loads_stores_and_writes_a_device(engine):
    """An mroutine that loads and stores guest RAM and writes a device
    register runs at tier 2 on either engine: its fetches cost
    ``mram_fetch`` and leave the I-cache alone, and its data accesses
    and device sync match the interpreter's."""
    source = """
_start:
    li   s1, 0x3000
    li   a0, 0x41
    li   s2, 8
fill:
    sw   a0, 0(s1)
    addi a0, a0, 1
    addi s1, s1, 4
    addi s2, s2, -1
    bnez s2, fill
    li   s0, 5
again:
    menter MR_COPY
    addi s0, s0, -1
    bnez s0, again
    halt
"""
    machine = _fetch_plan_pair(source, engine, routines=(RAM_COPY,))
    assert machine.console.text == "BCDEFGHI" * 5
    assert machine.reg("t6") > 0
    assert machine.read_word(0x3040) == 0x42
    tc = machine.perf.tcache
    assert tc.jit_instructions == machine.perf.guest_instructions


def test_profile_trace_table_same_with_caches():
    """The MPROF trace heads, hits, instruction and chain counts of
    tight_loop do not depend on the cache models."""
    source = workload_source("tight_loop", 2_000)
    tables = []
    for caches in (False, True):
        machine = build_metal_machine([NOOP], with_caches=caches)
        sink = machine.set_profiling(True)
        machine.load_and_run(source)
        tables.append({key: (agg.hits, agg.instructions, agg.chain_total)
                       for key, agg in sink.trace_table().items()})
    assert tables[0] == tables[1]


def test_default_machine_runs_unguarded():
    """On ``MachineConfig()`` loop-heavy workloads retire at least 90%
    of their instructions through the block fast path, on either
    engine's timer."""
    for engine, workload in (("functional", "tight_loop"),
                             ("pipeline", "tight_loop"),
                             ("pipeline", "mcode_heavy")):
        w = WORKLOADS[workload]
        machine = build_metal_machine(list(w.routines),
                                      config=MachineConfig(engine=engine))
        machine.load_and_run(workload_source(workload, 2_000))
        perf = machine.perf
        tc = perf.tcache
        assert tc.fast_instructions >= 0.9 * perf.guest_instructions, (
            engine, workload, perf.summary())


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("workload", ("syscall_heavy", "intercept_heavy",
                                      "mcode_heavy"))
def test_metal_workloads_retire_nothing_guarded(engine, workload):
    """Metal-mode blocks run compiled like mem blocks, whether or not
    MAS proved their routine store-free: on ``MachineConfig()`` the
    Metal-heavy workloads retire every instruction at tier 2."""
    w = WORKLOADS[workload]
    machine = build_metal_machine(list(w.routines),
                                  config=MachineConfig(engine=engine))
    if w.setup is not None:
        w.setup(machine)
    machine.load_and_run(workload_source(workload, 200))
    tc = machine.perf.tcache
    assert tc.jit_instructions == machine.perf.guest_instructions > 0, (
        machine.perf.summary())


def _tier_two_run(engine, workload, share):
    """Run *workload* on ``MachineConfig()`` — cache models on — with the
    tcache off and on; assert the tcache-on run retires *share* of its
    instructions at tier 2 with the tcache-off run's instructions,
    cycles, registers, I-cache and D-cache counts and (pipeline engine)
    stall counters."""
    w = WORKLOADS[workload]
    source = workload_source(workload)
    outcomes = []
    for tcache in (False, True):
        machine = build_metal_machine(
            list(w.routines),
            config=MachineConfig(engine=engine, tcache=tcache))
        if w.setup is not None:
            w.setup(machine)
        result = machine.load_and_run(source)
        outcomes.append((_outcome(machine, result),
                         getattr(machine.sim, "stalls", None)))
    assert outcomes[0] == outcomes[1], (engine, workload)
    tc = machine.perf.tcache
    assert tc.jit_instructions >= share * outcomes[1][0][0], (
        engine, workload, machine.perf.summary())


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("workload", ("tight_loop", "hash_mix",
                                      "chain_trampoline", "poly_branch"))
def test_loop_workloads_run_at_tier_two(engine, workload):
    """The loop programs retire at least 90% at tier 2 on either
    engine, I-cache fetch plan and pipeline scoreboard included."""
    _tier_two_run(engine, workload, 0.9)


@pytest.mark.parametrize("workload", ("syscall_heavy", "intercept_heavy",
                                      "mcode_heavy"))
def test_metal_workloads_run_at_tier_two(workload):
    """The Metal-heavy workloads retire at least 70% at tier 2 on either
    engine (intercept_heavy's emulation routine loads guest RAM)."""
    for engine in ENGINES:
        _tier_two_run(engine, workload, 0.7)


# ---------------------------------------------------------------------------
# stop_pc and budgets end a dispatch at a block boundary
# ---------------------------------------------------------------------------

STOP_LOOP = """
_start:
    li   s0, 300
    li   s1, 0x3000
loop:
    lw   t0, 0(s1)
    addi t0, t0, 1
    sw   t0, 0(s1)
    addi s1, s1, 4
    addi s0, s0, -1
    bnez s0, loop
after:
    addi a0, a0, 7
    addi a1, a1, 9
    halt
"""


def _stop_run(engine, tcache, stop):
    """Run STOP_LOOP on ``MachineConfig()`` to the *stop* label and
    return the stop's outcome and the machine.  ``"loop+8"`` first runs
    1,000 instructions, so the loop block is compiled and the budget
    ends inside it, then stops inside that block on its next pass;
    ``"after"`` stops at the head of the loop's chained successor."""
    machine = build_metal_machine(
        [NOOP], config=MachineConfig(engine=engine, tcache=tcache))
    program = machine.assemble(STOP_LOOP, base=0x1000)
    machine.load(program)
    machine.core.pc = 0x1000
    if stop == "loop+8":
        machine.run(max_instructions=1_000, raise_on_limit=False)
        stop_pc = program.symbols["loop"] + 8
    else:
        stop_pc = program.symbols["after"]
    result = machine.run(stop_pc=stop_pc, raise_on_limit=False)
    core = machine.core
    outcome = (result.stop_reason, core.pc, core.instret, machine.cycles,
               tuple(core.regs),
               (core.icache.stats.hits, core.icache.stats.misses),
               (core.dcache.stats.hits, core.dcache.stats.misses),
               getattr(machine.sim, "stalls", None))
    assert outcome[:2] == ("stop_pc", stop_pc)
    return outcome, machine


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("stop", ("loop+8", "after"))
def test_stop_pc_matches_the_interpreter_at_tier_two(engine, stop):
    """stop_pc inside a block earlier passes compiled, and stop_pc at
    the head of a chained successor: the tcache-on run stops where the
    interpreter does, with its instructions, cycles, registers, cache
    counts and stall counters, after retiring at least 90% at tier 2."""
    reference, _ = _stop_run(engine, False, stop)
    outcome, machine = _stop_run(engine, True, stop)
    assert outcome == reference
    tc = machine.perf.tcache
    assert tc.jit_instructions >= 0.9 * machine.core.instret, (
        machine.perf.summary())


# ---------------------------------------------------------------------------
# blocks that continue through direct jumps
# ---------------------------------------------------------------------------

#: Records the faulting pc of a MISALIGNED_FETCH in a4 and resumes at
#: the address in t6.
REFETCH = MRoutine(name="refetch", entry=1, source="""
    rmr  a4, m30
    wmr  m31, t6
    mexit
""")

#: Routes MISALIGNED_FETCH to ``refetch``.
FETCHVEC = MRoutine(name="fetchvec", entry=2, source="""
    li   t5, MR_REFETCH
    li   t6, CAUSE_MISALIGNED_FETCH
    mivec t6, t5
    mexit
""")

#: One superblock loop whose ``j`` leaves the head's page for a target
#: page.  On the iteration where s0 is 20 the store rewrites ``patch``
#: (on the target page) from ``addi a1, a1, 1`` to ``addi a1, a1,
#: 100``; every other iteration stores to the data word.
FAR_LOOP = """
_start:
    li   s0, 30
    li   s1, 0x6000
    li   s3, {new_word:#x}
    li   s4, patch
    sub  s4, s4, s1
loop:
    addi t1, s0, -20
    sltiu t1, t1, 1
    sub  t1, zero, t1
    and  t1, t1, s4
    add  t2, s1, t1
    sw   s3, 0(t2)
    j    far
back:
    addi s0, s0, -1
    bnez s0, loop
    halt
    .org 0x3000
far:
    addi a0, a0, 3
patch:
    addi a1, a1, 1
    addi a2, a2, 5
    j    back
"""

#: A loop whose block jumps below its own head and back.
BELOW_LOOP = """
_start:
    li   s0, 20
    j    loop
below:
    addi a1, a1, 2
    addi a2, a2, 3
    j    back
loop:
    addi a0, a0, 1
    j    below
back:
    addi s0, s0, -1
    bnez s0, loop
    halt
"""

#: ``jal ra`` to a target two bytes into the next word: the jal links
#: and jumps, and the fetch at the target traps.
MISALIGNED_JAL = """
_start:
    menter MR_FETCHVEC
    li   t6, recover
    li   s0, 6
loop:
    addi a0, a0, 1
    jal  ra, odd+2
odd:
    addi a1, a1, 1
    addi a1, a1, 1
recover:
    addi s0, s0, -1
    bnez s0, loop
    halt
"""

#: A ``j`` back into the block's own body (not its head): an endless
#: loop, run to a budget.
BODY_LOOP = """
_start:
    li   s0, 7
head:
    addi a0, a0, 1
body:
    addi a1, a1, 2
    addi a2, a1, 3
    j    body
"""

#: A call through ``jal ra`` (the block continues into the callee)
#: whose callee returns through ``jalr``.
CALL_LOOP = """
_start:
    li   s0, 20
loop:
    addi a0, a0, 1
    jal  ra, leaf
    addi a1, a1, 1
    addi s0, s0, -1
    bnez s0, loop
    halt
leaf:
    addi a2, a2, 3
    jalr zero, 0(ra)
"""


def _jump_state(machine) -> tuple:
    core = machine.core
    caches = tuple((c.stats.hits, c.stats.misses)
                   for c in (core.icache, core.dcache) if c is not None)
    return (core.pc, core.in_metal, core.instret, machine.cycles,
            tuple(core.regs), caches, getattr(machine.sim, "stalls", None))


def _jump_pair(source, engine, caches, drive):
    """Run *source* at 0x1000 with the tcache off and on; *drive(machine,
    symbols)* returns a list of states, which must agree.  Returns the
    tcache-on machine and the program's symbols."""
    states = []
    for tcache in (False, True):
        machine = build_metal_machine(
            [MRoutine(name=r.name, entry=r.entry, source=r.source)
             for r in (REFETCH, FETCHVEC)],
            config=MachineConfig(engine=engine, with_caches=caches,
                                 tcache=tcache))
        program = machine.assemble(source, base=0x1000)
        machine.load(program)
        machine.core.pc = 0x1000
        states.append(drive(machine, program.symbols))
    assert states[1] == states[0]
    return machine, program.symbols


def _to_halt(machine, _symbols):
    machine.run(max_instructions=100_000)
    return [_jump_state(machine)]


def _block_pcs(machine, pc):
    return [epc for _instr, epc, _flags in machine.sim.tcache._mem[pc].entries]


@pytest.mark.parametrize("caches", (True, False))
@pytest.mark.parametrize("engine", ENGINES)
def test_store_to_a_jump_targets_page_evicts_the_block(engine, caches):
    """The loop is one block from ``loop`` through ``far``'s page and
    back; the store into that page (not the head's) evicts it, and the
    patched word runs from that iteration on."""
    source = FAR_LOOP.format(new_word=_word_of("addi a1, a1, 100"))
    machine, symbols = _jump_pair(source, engine, caches, _to_halt)
    assert machine.reg("a1") == 10 * 1 + 20 * 100
    assert machine.reg("a0") == 30 * 3
    assert symbols["far"] >> 12 != symbols["loop"] >> 12
    assert symbols["patch"] in _block_pcs(machine, symbols["loop"])
    assert machine.perf.tcache.invalidations >= 1


@pytest.mark.parametrize("caches", (True, False))
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("source,label", [
    (FAR_LOOP.format(new_word=_word_of("nop")), "patch"),
    (BELOW_LOOP, "below"),
], ids=("after_a_jump", "below_the_head"))
def test_stop_pc_past_a_jump(source, label, engine, caches):
    """``run(stop_pc=…)`` at an entry the block reaches through a jump,
    after it and (BELOW_LOOP) below its head, stops there: first from
    the start, then after a budget that leaves the loop's block
    compiled and mid-iteration."""
    def drive(machine, symbols):
        stop = symbols[label] + 4
        states = []
        for budget in (0, 25, 40):
            if budget:
                machine.run(max_instructions=budget, raise_on_limit=False)
            result = machine.run(stop_pc=stop, max_instructions=10_000)
            assert (result.stop_reason, machine.core.pc) == ("stop_pc", stop)
            states.append(_jump_state(machine))
            machine.run(max_instructions=1, raise_on_limit=False)
        return states + _to_halt(machine, symbols)

    machine, symbols = _jump_pair(source, engine, caches, drive)
    assert symbols[label] + 4 in _block_pcs(machine, symbols["loop"])


@pytest.mark.parametrize("caches", (True, False))
@pytest.mark.parametrize("engine", ENGINES)
def test_budget_shorter_than_a_superblock(engine, caches):
    """Budgets of 1 to 9 instructions, each shorter than the loop's
    block, end every run at the interpreter's instruction."""
    def drive(machine, _symbols):
        states = []
        budget = 1
        while not machine.core.halted:
            machine.run(max_instructions=budget, raise_on_limit=False)
            states.append(_jump_state(machine))
            budget = budget % 9 + 1
        return states

    source = FAR_LOOP.format(new_word=_word_of("addi a1, a1, 100"))
    machine, symbols = _jump_pair(source, engine, caches, drive)
    assert len(_block_pcs(machine, symbols["loop"])) > 9


@pytest.mark.parametrize("caches", (True, False))
@pytest.mark.parametrize("engine", ENGINES)
def test_jal_to_a_misaligned_target(engine, caches):
    """A ``jal`` whose target is 2 mod 4 ends its block: it links and
    jumps, and the fetch at the target traps MISALIGNED_FETCH with the
    target as the faulting pc, as in the interpreter."""
    machine, symbols = _jump_pair(MISALIGNED_JAL, engine, caches, _to_halt)
    assert machine.reg("a4") == symbols["odd"] + 2
    assert machine.reg("ra") == symbols["odd"]
    assert (machine.reg("a0"), machine.reg("a1")) == (6, 0)
    instr, pc, flags = machine.sim.tcache._mem[symbols["loop"]].entries[-1]
    assert (instr.mnemonic, pc) == ("jal", symbols["odd"] - 4)
    assert flags & F_TERM


@pytest.mark.parametrize("caches", (True, False))
@pytest.mark.parametrize("engine", ENGINES)
def test_jal_into_the_blocks_own_body(engine, caches):
    """A ``j`` to an entry past the block's head ends the block; the
    block at its target is then a self-loop."""
    def drive(machine, _symbols):
        states = []
        for budget in (50, 7, 3, 200):
            machine.run(max_instructions=budget, raise_on_limit=False)
            states.append(_jump_state(machine))
        return states

    machine, symbols = _jump_pair(BODY_LOOP, engine, caches, drive)
    tc = machine.sim.tcache
    first = tc._mem[0x1000]
    assert _block_pcs(machine, 0x1000) == list(
        range(0x1000, symbols["body"] + 12, 4))
    # The first block runs once; the body is a one-member region whose
    # function loops (every function leaves its ``while True`` for the
    # epilogue, but only an edge continues it).
    assert first.entries[-1][2] & F_TERM
    assert "continue" not in first.jit_fn.__jit_source__
    body = tc._mem[symbols["body"]]
    assert body.region == (body,)
    assert "continue" in body.jit_fn.__jit_source__


@pytest.mark.parametrize("caches", (True, False))
@pytest.mark.parametrize("engine", ENGINES)
def test_call_through_jal_ra_and_return_through_jalr(engine, caches):
    """The loop's block continues through ``jal ra, leaf`` into the
    callee and ends at its ``jalr``, which returns past the call."""
    machine, symbols = _jump_pair(CALL_LOOP, engine, caches, _to_halt)
    assert (machine.reg("a0"), machine.reg("a1"), machine.reg("a2")) == (
        20, 20, 60)
    assert _block_pcs(machine, symbols["loop"]) == [
        symbols["loop"], symbols["loop"] + 4, symbols["leaf"],
        symbols["leaf"] + 4]
