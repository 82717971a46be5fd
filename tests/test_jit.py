"""MJIT tier-2 compiler tests (:mod:`repro.cpu.jit`).

The translation cache's block dispatch and chaining are covered by the
differential fuzzer and the tcache tests; this file pins the
*compiler*: the exact Python source generated for a known block (golden
snapshots of the analytic and the scoreboard code), scoreboard code
inlining every entry the analytic code inlines, MRAM data accesses
compiled inline behind the data-segment check (and trapping exactly
like the interpreter), guest-RAM access compiled inside mram blocks, a
loop compiled at its first dispatch, and every eviction path dropping
compiled code.
Bit-identity of tier-2 execution against the interpreter is fuzzed in
``tests/test_superblock_differential.py``.
"""

from __future__ import annotations

import textwrap

import pytest

from repro import MRoutine, build_metal_machine
from repro.errors import GuestPanic
from repro.machine.builder import MachineConfig

CODE_BASE = 0x1000

LOOP = """
_start:
    li t0, 50
loop:
    addi t1, t1, 1
    addi t0, t0, -1
    bnez t0, loop
    halt
"""

#: Constant-offset MRAM accesses (the interval pass proves both sites
#: in-bounds).
ACC = MRoutine(name="acc", entry=1, data_words=4, source="""
    mld x5, ACC_DATA+0(x0)
    addi x5, x5, 1
    mst x5, ACC_DATA+0(x0)
    wmr m27, x5
    mexitm
""")

#: MReg-indexed MRAM access: in range at runtime (m20 stays 0) but the
#: interval pass cannot bound an ``rmr`` result, so the site is unproven.
IDX = MRoutine(name="idx", entry=1, data_words=4, mregs=(20,), source="""
    rmr x6, m20
    mld x7, IDX_DATA(x6)
    addi x7, x7, 1
    mst x7, IDX_DATA(x6)
    mexitm
""")

#: Separately mreg-indexed ``mld`` (m20) and ``mst`` (m21), for driving
#: either access out of the data segment from the host.
OOB = MRoutine(name="oob", entry=1, data_words=4, mregs=(20, 21), source="""
    rmr x6, m20
    rmr x7, m21
    mld x5, OOB_DATA(x6)
    addi x5, x5, 1
    mst x5, OOB_DATA(x7)
    mexitm
""")

#: Guest-RAM read-modify-write from Metal mode.
BUMP = MRoutine(name="bump", entry=1, source="""
    li   t0, 0x3000
    lw   t1, 0(t0)
    addi t1, t1, 1
    sw   t1, 0(t0)
    mexit
""")

MENTER_LOOP = """
_start:
    li s0, 10
loop:
    menter 1
    addi s0, s0, -1
    bnez s0, loop
    halt
"""


def _machine(routines=(), **cfg):
    return build_metal_machine(
        list(routines), config=MachineConfig(with_caches=False, **cfg))


def _jit_sources(machine, ns="mram"):
    table = machine.sim.tcache._mram if ns == "mram" else machine.sim.tcache._mem
    return {pc: b.jit_fn.__jit_source__
            for pc, b in table.items() if b.jit_fn is not None}


# ---------------------------------------------------------------------------
# codegen golden snapshot
# ---------------------------------------------------------------------------
GOLDEN_LOOP_BLOCK = textwrap.dedent("""\
    def _jit(core, m, timer, sync, instret_base, budget, stop, hz, quantum, cross):
        regs = core.regs
        timing = timer.timing
        _ml = timing.mem_latency
        bc = _ml if _ml > 1 else 1
        _bt = timing.branch_taken_penalty
        bud0 = budget - 3
        live = hz < 9223372036854775808
        r5 = regs[5]
        r6 = regs[6]
        retired = 0
        loops = 0
        cyc = 0
        status = 0
        trap = None
        while True:
            r6 = (r6 + 1) & 4294967295
            r5 = (r5 + -1) & 4294967295
            cyc += 2 * bc
            retired += 3
            if r5 != 0:
                cyc += bc + _bt
                if retired <= bud0 and (not live or timer.cycles + cyc + 40 < hz) and loops < quantum:
                    loops += 1
                    continue
                next_pc = 4104
                break
            else:
                cyc += bc
                next_pc = 4116
                break
        regs[5] = r5
        regs[6] = r6
        timer.cycles += cyc
        return (status, next_pc, retired, loops, trap, m, hz)""")


def test_golden_source_self_loop():
    """The hot self-loop block compiles to exactly the expected source,
    its one-member region: registers as locals, the backward branch an
    edge (the admission rule tested in place, then ``continue``), unit
    costs batched, state spilled only at the
    exits.  An intentional codegen change means updating this snapshot —
    an unintentional one means a bug."""
    m = _machine()
    m.load_and_run(LOOP, base=CODE_BASE)
    assert m.reg("t1") == 50
    block = m.sim.tcache._mem[CODE_BASE + 8]
    assert block.jit_fn is not None, "hot loop block was not tier-2 compiled"
    assert block.jit_fn.__jit_source__.rstrip() == GOLDEN_LOOP_BLOCK


GOLDEN_SCOREBOARD_LOOP_BLOCK = textwrap.dedent("""\
    def _jit(core, m, timer, sync, instret_base, budget, stop, hz, quantum, cross):
        regs = core.regs
        timing = timer.timing
        _ml = timing.mem_latency
        bc = _ml if _ml > 1 else 1
        note_run = timer.note_run
        bud0 = budget - 3
        live = hz < 9223372036854775808
        r5 = regs[5]
        r6 = regs[6]
        retired = 0
        loops = 0
        status = 0
        trap = None
        while True:
            r6 = (r6 + 1) & 4294967295
            r5 = (r5 + -1) & 4294967295
            retired += 3
            if r5 != 0:
                note_run(_q0, None, bc, _ml, 0, 0, 'branch')
                if retired <= bud0 and (not live or timer.cycles + 44 < hz) and loops < quantum:
                    loops += 1
                    continue
                next_pc = 4104
                break
            else:
                note_run(_q0, None, bc, _ml, 0, 0, None)
                next_pc = 4116
                break
        regs[5] = r5
        regs[6] = r6
        return (status, next_pc, retired, loops, trap, m, hz)""")


def test_golden_scoreboard_source_self_loop():
    """On the pipeline engine the same block keeps its registers in
    host locals, as the analytic code does, and reports its two plain
    entries and the branch that ends them in one ``note_run`` per arm,
    the taken arm with its redirect: no ``note_op``, no ``execute()``."""
    m = _machine(engine="pipeline")
    m.load_and_run(LOOP, base=CODE_BASE)
    assert m.reg("t1") == 50
    source = m.sim.tcache._mem[CODE_BASE + 8].jit_fn.__jit_source__
    assert source.rstrip() == GOLDEN_SCOREBOARD_LOOP_BLOCK
    assert "execute(" not in source
    assert source.count("note_run(") == 2
    assert source.count("note_op(") == 0


def _compiled_sources(engine, name):
    """Every region host-throughput workload *name* compiles on
    *engine*, by each member's namespace, start and length."""
    from repro.profile.workloads import build_workload, workload_source
    machine = build_workload(name, engine=engine)
    machine.load_and_run(workload_source(name, 40), base=CODE_BASE)
    return {tuple((b.mram, b.start, len(b.entries)) for b in region):
            region[0].jit_fn.__jit_source__
            for region in machine.sim.tcache.iter_regions()}


def test_scoreboard_inlines_what_the_analytic_modes_inline():
    """No block of the host-throughput workloads hands the scoreboard
    more entries through ``execute()`` than the analytic code does."""
    from repro.profile.workloads import WORKLOADS
    compared = 0
    for name in WORKLOADS:
        analytic = _compiled_sources("functional", name)
        scoreboard = _compiled_sources("pipeline", name)
        assert scoreboard, name
        for key in analytic.keys() & scoreboard.keys():
            compared += 1
            assert (scoreboard[key].count("execute(")
                    <= analytic[key].count("execute(")), (name, key)
    assert compared >= len(WORKLOADS)


def test_tier_of_reports_jit():
    m = _machine()
    m.load_and_run(LOOP, base=CODE_BASE)
    assert m.sim.tcache.tier_of("mem", CODE_BASE + 8) == "jit"
    assert m.sim.tcache.tier_of("mem", 0xDEAD) is None


@pytest.mark.parametrize("engine", ["functional", "pipeline"])
def test_loop_compiles_at_first_dispatch(engine):
    """The loop is dispatched once and then only chains to itself: MJIT
    compiles it at that first dispatch, so every pass runs at tier 2 —
    with the cache models on, on either engine."""
    m = build_metal_machine([], config=MachineConfig(engine=engine))
    m.load_and_run(LOOP, base=CODE_BASE)
    tc = m.perf.tcache
    assert m.sim.tcache.tier_of("mem", CODE_BASE + 8) == "jit"
    assert tc.jit_instructions == m.core.instret


# ---------------------------------------------------------------------------
# MRAM data accesses: inline behind the data-segment check
# ---------------------------------------------------------------------------
def _assert_mram_access_inline(routine, proven):
    """Run *routine* hot and check its ``mld``/``mst`` compiled to direct
    byte-array access (``_upk``/``_pk``) behind the alignment and bound
    test, with ``execute()`` dispatching only the ``mexitm`` terminator."""
    m = _machine([routine])
    facts = m.metal_image.analysis[routine.name].facts
    assert facts.proven_accesses == proven
    m.load_and_run(MENTER_LOOP, base=CODE_BASE)
    sources = _jit_sources(m)
    assert sources, "no mram block was tier-2 compiled"
    body = "\n".join(sources.values())
    assert "_upk(data" in body and "_pk(data" in body
    assert "if _o & 3 or _o >= _dn:" in body
    assert "_dn = core.metal.mram.data_bytes" in body
    for block in m.sim.tcache._mram.values():
        if block.jit_fn is None:
            continue
        ns = block.jit_fn.__globals__
        dispatched = set()
        for key in ns:
            if key.startswith("_i") and not key.startswith("_icept"):
                k, index = map(int, key[2:].split("_"))
                dispatched.add(block.region[k].entries[index][0].mnemonic)
        assert dispatched <= {"mexitm"}, dispatched


def test_proven_mram_access_compiles_inline():
    """Constant-offset sites MAS proves in-bounds compile inline and
    still keep the bound test."""
    _assert_mram_access_inline(ACC, proven=2)


def test_unproven_mram_access_compiles_inline():
    """An mreg-indexed site MAS cannot bound compiles inline exactly
    like a proven one, never to an ``execute()`` dispatch."""
    _assert_mram_access_inline(IDX, proven=0)


def test_mram_data_access_parity_with_interpreter():
    """Both routines are bit-identical to the tcache-off run."""
    for routine in (ACC, IDX):
        results = {}
        for tcache in (False, True):
            m = _machine([routine], tcache=tcache)
            r = m.load_and_run(MENTER_LOOP, base=CODE_BASE)
            results[tcache] = (r.instructions, r.cycles, list(m.core.regs),
                               bytes(m.core.metal.mram.data))
        assert m.perf.tcache.jit_instructions > 0
        assert results[False] == results[True], routine.name


@pytest.mark.parametrize("mreg", [20, 21], ids=["mld", "mst"])
@pytest.mark.parametrize("where", ["misaligned", "data_bytes"])
def test_mram_data_trap_parity(mreg, where):
    """An ``mld``/``mst`` offset that is misaligned, or at the end of the
    data segment, raises the same double-fault panic at tier 2 as in the
    interpreter, with the same instret, cycles and registers."""
    outcomes = {}
    for tcache in (False, True):
        m = _machine([OOB], tcache=tcache)
        mram = m.core.metal.mram
        base = m.metal_image.routines["oob"].data_offset
        index = 2 if where == "misaligned" else mram.data_bytes - base
        m.core.metal.mregs.write(mreg, index)
        with pytest.raises(GuestPanic) as exc:
            m.load_and_run(MENTER_LOOP, base=CODE_BASE)
        outcomes[tcache] = (str(exc.value), m.core.instret, m.cycles,
                            list(m.core.regs))
        if tcache:
            assert m.perf.tcache.jit_instructions > 0
            assert _jit_sources(m), "the trapping block was not compiled"
    assert "double fault" in outcomes[False][0]
    assert outcomes[False] == outcomes[True]


def test_mram_block_compiles_guest_ram_access():
    """An mram block that loads and stores guest RAM compiles the way a
    mem block does — flush, sync, then ``read_mem``/``write_mem`` — and
    matches the tcache-off run."""
    runs = {}
    for tcache in (False, True):
        m = _machine([BUMP], tcache=tcache)
        r = m.load_and_run(MENTER_LOOP, base=CODE_BASE)
        runs[tcache] = (r.instructions, r.cycles, list(m.core.regs),
                        m.read_word(0x3000))
    assert runs[False] == runs[True]
    assert runs[True][3] == 10
    body = "\n".join(_jit_sources(m).values())
    assert "read_mem = core.read_mem" in body
    assert "write_mem = core.write_mem" in body
    assert "sync()" in body
    assert m.perf.tcache.jit_instructions > 0


# ---------------------------------------------------------------------------
# eviction drops compiled code
# ---------------------------------------------------------------------------
def test_ram_write_eviction_drops_compiled_code():
    m = _machine()
    m.load_and_run(LOOP, base=CODE_BASE)
    block = m.sim.tcache._mem[CODE_BASE + 8]
    assert block.jit_fn is not None
    m.sim.tcache.on_ram_write(CODE_BASE + 8, 4)
    assert not block.valid and block.jit_fn is None


def test_reload_mroutines_drops_compiled_code():
    m = _machine([ACC])
    m.load_and_run(MENTER_LOOP, base=CODE_BASE)
    blocks = [b for b in m.sim.tcache._mram.values() if b.jit_fn is not None]
    assert blocks
    m.reload_mroutines([IDX])
    # The flush happens on the next mram dispatch (version check).
    m.sim.tcache.mram_block(0, m.core.metal.mram)
    assert all(b.jit_fn is None for b in blocks)


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------
def test_jit_counters_in_perf_summary():
    m = _machine()
    m.load_and_run(LOOP, base=CODE_BASE)
    tc = m.perf.tcache
    assert tc.jit_blocks > 0
    assert tc.jit_instructions > 0
    assert tc.jit_compile_ms > 0.0
    assert tc.jit_instructions <= m.perf.guest_instructions
    assert "tcache jit (MJIT)" in m.perf.summary()


def test_toggle_parity_mixed_workload():
    """Same mixed program (ALU loop + menter + RAM loads/stores), tcache
    on vs off: guest results identical, tier 2 actually engaged."""
    source = """
_start:
    li s1, 0x3000
    li s0, 200
loop:
    addi t1, t1, 1
    sw   t1, 0(s1)
    lw   t2, 0(s1)
    menter 1
    addi s0, s0, -1
    bnez s0, loop
    halt
"""
    runs = {}
    for tcache in (False, True):
        m = _machine([ACC], tcache=tcache)
        r = m.load_and_run(source, base=CODE_BASE)
        runs[tcache] = (r.instructions, r.cycles, list(m.core.regs),
                        bytes(m.core.metal.mram.data))
        if tcache:
            assert m.perf.tcache.jit_instructions > 0
    assert runs[False] == runs[True]

