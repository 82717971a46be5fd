"""Intercepted code on the compiled path.

While intercept rules are installed, normal-mode blocks are compiled
under the installed rule set: a word the set intercepts ends its block
as an intercept terminator, which MJIT compiles as a fetch and a
status-2 exit that the engine delivers into the handler and crosses
(``TranslationCache.select_rules``, ``FunctionalSimulator._intercept``).
Every test compares the tcache off (``step()`` at every instruction)
and on, on both engines with the cache models on and off: pc, mode,
instret, cycles, registers, MRegs, I-/D-cache counts, pipeline stalls,
intercept hits and delivery counters must agree.
"""

from __future__ import annotations

import pytest

from repro import MRoutine, build_metal_machine
from repro.cpu.exceptions import Cause, TrapException
from repro.cpu.tcache import F_ICEPT, fetch_plan
from repro.errors import DecodeError, SimulatorError
from repro.isa.decoder import decode
from repro.machine.builder import MachineConfig
from repro.machine.snapshot import restore_snapshot, take_snapshot
from repro.metal.intercept import InterceptTable

ENGINES = ("functional", "pipeline")
CACHES = (True, False)

#: The ``lw`` match spec (opcode LOAD, funct3 2).
LW = 0x503

#: Installs the rule in a0 with the handler entry in a1.
SETUP = MRoutine(name="setup", entry=1, source="""
    micept a0, a1
    mexit
""")

#: Removes the rule in a0.
OFF = MRoutine(name="off", entry=2, source="""
    miceptd a0
    mexit
""")

#: Emulates the intercepted ``lw``: the loaded word plus 1000, committed
#: into its rd by ``mexitm``.
EMUL = MRoutine(name="emul", entry=3, mregs=(12, 13), source="""
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

#: Retrying handler: counts the hit in m14, turns the ``lw`` rule off
#: and resumes at the intercepted instruction (m31 := m30), which then
#: runs as a plain load.
RETRY = MRoutine(name="retry", entry=4, mregs=(14, 15), source=f"""
    wmr  m15, t0
    rmr  t0, m14
    addi t0, t0, 1
    wmr  m14, t0
    li   t0, {LW}
    miceptd t0
    rmr  t0, m30
    wmr  m31, t0
    rmr  t0, m15
    mexit
""")

#: Handler of an undecodable word: counts it into a3 (``mexitm``) and
#: skips it (the intercept default).
SKIPBAD = MRoutine(name="skipbad", entry=5, mregs=(16, 17), source="""
    wmr  m17, t0
    rmr  t0, m16
    addi t0, t0, 1
    wmr  m16, t0
    wmr  m27, t0
    li   t0, 13
    wmr  m26, t0
    rmr  t0, m17
    mexitm
""")

#: Turns the ``lw`` rule (handler ``emul``) off if it is on, else on:
#: its one ``mexit`` block returns to the same pc under both rule sets.
#: Both arms reach it by a branch: a block continues through a ``j``,
#: which would give each arm its own ``mexit`` block.
FLIP = MRoutine(name="flip", entry=6, mregs=(18, 19, 20), source=f"""
    wmr  m18, t0
    wmr  m19, t1
    li   t0, {LW}
    rmr  t1, m20
    bnez t1, flip_off
    li   t1, MR_EMUL
    micept t0, t1
    li   t1, 1
    beq  zero, zero, flipped
flip_off:
    miceptd t0
    li   t1, 0
    beq  zero, zero, flipped
flipped:
    wmr  m20, t1
    rmr  t1, m19
    rmr  t0, m18
    mexit
""")

ROUTINES = (SETUP, OFF, EMUL, RETRY, SKIPBAD, FLIP)

DATA = 0x3000

#: The loop's first ``lw`` heads its block (a line head); the second
#: follows an ``addi`` in its block (mid-line).
LOOP = f"""
_start:
    li   a0, {LW}
    li   a1, MR_EMUL
    menter MR_SETUP
    li   s2, {DATA}
    li   s0, 20
loop:
    lw   a2, 0(s2)
    addi a3, a3, 1
    lw   a4, 4(s2)
    add  a5, a5, a2
    add  a5, a5, a4
    addi s0, s0, -1
    bnez s0, loop
    halt
"""

#: STM-style toggling: the rule is on for the first ``lw`` of each
#: iteration and off for the second, so every iteration crosses both
#: rule sets.
TOGGLE = f"""
_start:
    li   s2, {DATA}
    li   s0, 30
loop:
    li   a0, {LW}
    li   a1, MR_EMUL
    menter MR_SETUP
    lw   a2, 0(s2)
    add  a5, a5, a2
    menter MR_OFF
    lw   a4, 4(s2)
    add  a5, a5, a4
    addi s0, s0, -1
    bnez s0, loop
    halt
"""


def _machine(engine, caches, tcache):
    machine = build_metal_machine(
        [MRoutine(name=r.name, entry=r.entry, source=r.source,
                  mregs=r.mregs) for r in ROUTINES],
        config=MachineConfig(engine=engine, with_caches=caches,
                             tcache=tcache))
    machine.write_word(DATA, 7)
    machine.write_word(DATA + 4, 11)
    return machine


def _state(machine):
    core = machine.core
    metal = core.metal
    caches = [(c.stats.hits, c.stats.misses)
              for c in (core.icache, core.dcache) if c is not None]
    return {
        "pc": core.pc,
        "in_metal": core.in_metal,
        "instret": core.instret,
        "cycles": machine.cycles,
        "regs": list(core.regs),
        "mregs": metal.mregs.snapshot(),
        "caches": caches,
        "stalls": getattr(machine.sim, "stalls", None),
        "hits": metal.intercept.hits,
        "intercepts": metal.stats.intercepts,
        "deliveries": dict(metal.stats.deliveries),
    }


def _pair(engine, caches, source, drive):
    """Run *source* with the tcache off and on, *drive(machine)*
    returning a list of states; both must agree.  Returns the tcache-on
    machine."""
    runs = []
    for tcache in (False, True):
        machine = _machine(engine, caches, tcache)
        machine.load(machine.assemble(source, base=0x1000))
        machine.core.pc = 0x1000
        runs.append((machine, drive(machine)))
    (_, off), (machine, on) = runs
    assert on == off
    return machine


def _to_halt(machine):
    machine.run(max_instructions=100_000)
    return [_state(machine)]


def _intercept_blocks(machine):
    return [b for region in machine.sim.tcache.iter_regions()
            for b in region if not b.mram and b.entries[-1][2] & F_ICEPT]


@pytest.mark.parametrize("caches", CACHES)
@pytest.mark.parametrize("engine", ENGINES)
def test_loop_runs_compiled_into_the_handler(engine, caches):
    """Intercepted words at a line head and mid-line: the whole loop
    runs compiled, each intercept delivered and crossed inside the
    dispatch."""
    machine = _pair(engine, caches, LOOP, _to_halt)
    assert machine.reg("a5") == 20 * (1007 + 1011)
    assert machine.core.metal.intercept.hits == 40
    tc = machine.perf.tcache
    assert tc.jit_instructions == machine.core.instret
    assert tc.hits + tc.misses < 20
    if caches:
        line = machine.core.icache.line_size
        heads = {fetch_plan(b.entries, line)[-1]
                 for b in _intercept_blocks(machine)}
        assert heads == {True, False}


@pytest.mark.parametrize("caches", CACHES)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 13])
def test_budget_ends_around_the_handler(engine, caches, chunk):
    """Budgets that end before, at and inside the handler stop exactly
    where the interpreter stops."""
    def drive(machine):
        states = []
        while not machine.core.halted:
            machine.run(max_instructions=chunk, raise_on_limit=False)
            states.append(_state(machine))
        return states

    _pair(engine, caches, LOOP, drive)


@pytest.mark.parametrize("caches", CACHES)
@pytest.mark.parametrize("engine", ENGINES)
def test_stop_pc_at_the_intercepted_word(engine, caches):
    """``run(stop_pc=…)`` at an intercepted word stops before the
    intercept is taken, head of its block or not."""
    symbols = _machine(engine, caches, False).assemble(
        LOOP, base=0x1000).symbols

    def drive(machine):
        states = []
        for stop in (symbols["loop"], symbols["loop"] + 8):
            result = machine.run(stop_pc=stop, max_instructions=10_000)
            assert result.stop_reason == "stop_pc"
            states.append(_state(machine))
            machine.run(max_instructions=1, raise_on_limit=False)
            states.append(_state(machine))
        return states + _to_halt(machine)

    _pair(engine, caches, LOOP, drive)


@pytest.mark.parametrize("caches", CACHES)
@pytest.mark.parametrize("engine", ENGINES)
def test_toggled_rule_sets(engine, caches):
    """STM-style toggling: each iteration turns the rule on and off, and
    each change flushes the blocks compiled under the other set, so
    every intercepted ``lw`` ends a block compiled under the rule."""
    machine = _pair(engine, caches, TOGGLE, _to_halt)
    assert machine.reg("a5") == 30 * (1007 + 11)
    assert machine.core.metal.intercept.hits == 30
    tc = machine.perf.tcache
    assert tc.jit_instructions == machine.core.instret
    assert tc.flushes >= 60


@pytest.mark.parametrize("caches", CACHES)
@pytest.mark.parametrize("engine", ENGINES)
def test_one_mexit_returns_under_both_rule_sets(engine, caches):
    """An mroutine that flips the rule returns to the same pc under
    alternating rule sets: its ``mexit`` crossing never follows its link
    into the block compiled under the other set."""
    source = f"""
_start:
    li   s2, {DATA}
    li   s0, 30
loop:
    menter MR_FLIP
    lw   a2, 0(s2)
    add  a5, a5, a2
    addi s0, s0, -1
    bnez s0, loop
    halt
"""
    machine = _pair(engine, caches, source, _to_halt)
    assert machine.reg("a5") == 15 * (1007 + 7)
    assert machine.perf.tcache.chain_hits > 30


@pytest.mark.parametrize("caches", CACHES)
@pytest.mark.parametrize("engine", ENGINES)
def test_retrying_handler(engine, caches):
    """A handler that turns its rule off and resumes at the intercepted
    word (m31 := m30): the word then runs as a plain load, and the
    program turns the rule on again for the next iteration."""
    source = TOGGLE.replace("MR_EMUL", "MR_RETRY")
    machine = _pair(engine, caches, source, _to_halt)
    assert machine.reg("a5") == 30 * (7 + 11)
    assert machine.core.metal.intercept.hits == 30
    assert machine.core.metal.mregs.snapshot()[14] == 30


@pytest.mark.parametrize("caches", CACHES)
@pytest.mark.parametrize("engine", ENGINES)
def test_host_changes_rules_between_runs(engine, caches):
    """Host ``clear()`` and ``enable()`` between runs, and a snapshot
    restore that brings back another rule set: each next run compiles
    under the rules installed at its start."""
    def drive(machine):
        intercept = machine.core.metal.intercept
        emul = machine.metal_image.entry_of("emul")
        states = []
        machine.run(max_instructions=60, raise_on_limit=False)
        snap = take_snapshot(machine)            # the lw rule installed
        states.append(_state(machine))
        intercept.clear()
        machine.run(max_instructions=50, raise_on_limit=False)
        states.append(_state(machine))
        intercept.enable(LW, emul)
        machine.run(max_instructions=50, raise_on_limit=False)
        states.append(_state(machine))
        intercept.clear()
        restore_snapshot(machine, snap)
        machine.run(max_instructions=50, raise_on_limit=False)
        states.append(_state(machine))
        snap = take_snapshot(machine)
        intercept.clear()
        empty = take_snapshot(machine)           # no rule installed
        restore_snapshot(machine, snap)
        machine.run(max_instructions=50, raise_on_limit=False)
        states.append(_state(machine))
        restore_snapshot(machine, empty)
        return states + _to_halt(machine)

    _pair(engine, caches, LOOP, drive)


def test_unmatched_intercept_terminator_is_an_error():
    """An intercept terminator whose word no installed rule matches can
    neither run nor retire: delivering it raises, naming the pc and the
    word, instead of leaving the pc in place for the run to spin on."""
    machine = _machine("functional", False, True)
    word = machine.assemble("lw a2, 0(s2)", base=0x1000).words()[0]
    with pytest.raises(SimulatorError, match=f"0x00001000.*{word:#010x}"):
        machine.sim._dispatch_trap(
            TrapException(Cause.INTERCEPT, word), 0x1000)


@pytest.mark.parametrize("engine", ENGINES)
def test_stale_intercept_block_ends_the_run(monkeypatch, engine):
    """A host ``clear()`` that kept the old rule set's signature would
    leave blocks compiled under that set in the cache: the next run
    reaches one of their intercept terminators and fails within its
    budget."""
    def clear_keeping_signature(self):
        self._rules.clear()

    monkeypatch.setattr(InterceptTable, "clear", clear_keeping_signature)
    machine = _machine(engine, True, True)
    machine.load(machine.assemble(LOOP, base=0x1000))
    machine.core.pc = 0x1000
    machine.run(max_instructions=60, raise_on_limit=False)
    machine.core.metal.intercept.clear()
    with pytest.raises(SimulatorError, match="stale intercept terminator"):
        machine.run(max_instructions=50, raise_on_limit=False)


@pytest.mark.parametrize("caches", CACHES)
@pytest.mark.parametrize("engine", ENGINES)
def test_restore_drops_patched_blocks(engine, caches):
    """A snapshot restore rewrites the patched page through the write
    hook, which drops the blocks compiled from code patched after the
    snapshot, under either rule set, so the patch never runs again."""
    symbols = _machine(engine, caches, False).assemble(
        TOGGLE, base=0x1000).symbols
    sub = _machine(engine, caches, False).assemble(
        "sub  a5, a5, a2\nsub  a5, a5, a4", base=0).words()

    def drive(machine):
        snap = take_snapshot(machine)
        machine.run(max_instructions=200, raise_on_limit=False)
        # Both ``add a5`` become ``sub a5`` (one under each rule set).
        machine.write_word(symbols["loop"] + 16, sub[0])
        machine.write_word(symbols["loop"] + 28, sub[1])
        machine.run(max_instructions=200, raise_on_limit=False)
        states = [_state(machine)]
        restore_snapshot(machine, snap)
        return states + _to_halt(machine)

    machine = _pair(engine, caches, TOGGLE, drive)
    assert machine.reg("a5") == 30 * (1007 + 11)


@pytest.mark.parametrize("caches", CACHES)
@pytest.mark.parametrize("engine", ENGINES)
def test_store_into_toggled_code(engine, caches):
    """A guest store into the code page while the rules toggle evicts
    the blocks compiled from it, and the patched code runs: the loop
    counts down by three once s0 reaches 15."""
    patch = _machine(engine, caches, False).assemble(
        "addi s0, s0, -3", base=0).words()[0]
    source = TOGGLE.replace("""    addi s0, s0, -1
""", f"""    li   t1, 15
    bne  s0, t1, dec
    li   t4, dec
    li   t0, {patch}
    sw   t0, 0(t4)
dec:
    addi s0, s0, -1
""")

    def drive(machine):
        machine.run(max_instructions=300, raise_on_limit=False)
        return [_state(machine)] + _to_halt(machine)

    machine = _pair(engine, caches, source, drive)
    assert machine.reg("a5") == 20 * (1007 + 11)


@pytest.mark.parametrize("caches", CACHES)
@pytest.mark.parametrize("engine", ENGINES)
def test_many_rule_sets(engine, caches):
    """Each iteration adds one of five rules for store encodings that
    never run, then removes it: six rule sets in turn, each selected
    over the blocks of the one before."""
    source = f"""
_start:
    li   a0, {LW}
    li   a1, MR_EMUL
    menter MR_SETUP
    li   s2, {DATA}
    li   s0, 24
    li   s3, 0
loop:
    slli t1, s3, 7
    li   a0, 0x5A3           # opcode STORE, funct3 3 + s3
    add  a0, a0, t1
    li   a1, MR_EMUL
    menter MR_SETUP
    lw   a2, 0(s2)
    add  a5, a5, a2
    menter MR_OFF
    lw   a4, 4(s2)
    add  a5, a5, a4
    addi s3, s3, 1
    li   t1, 5
    blt  s3, t1, keep
    li   s3, 0
keep:
    addi s0, s0, -1
    bnez s0, loop
    halt
"""
    machine = _pair(engine, caches, source, _to_halt)
    assert machine.reg("a5") == 24 * (1007 + 1011)
    assert machine.perf.tcache.invalidations > 0


@pytest.mark.parametrize("caches", CACHES)
@pytest.mark.parametrize("engine", ENGINES)
def test_undecodable_word_reaches_its_handler(engine, caches):
    """A rule for an opcode nothing decodes: the word still ends its
    block and reaches the handler, which skips it."""
    with pytest.raises(DecodeError):
        decode(0x57)
    source = """
_start:
    li   a0, 0x57             # opcode 0x57, any funct3
    li   a1, MR_SKIPBAD
    menter MR_SETUP
    li   s0, 10
loop:
    addi a4, a4, 1
    .word 0x00000057
    addi s0, s0, -1
    bnez s0, loop
    halt
"""
    machine = _pair(engine, caches, source, _to_halt)
    assert machine.reg("a3") == 10
    assert machine.core.metal.intercept.hits == 10
    assert _intercept_blocks(machine)

