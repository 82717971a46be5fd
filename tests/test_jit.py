"""MJIT tier-2 compiler tests (:mod:`repro.cpu.jit`).

The closure tier (tcache) is covered by the differential fuzzer and the
tcache tests; this file pins the *compiler*: the exact Python source
generated for a known block (golden snapshot), guard elision engaging
only at MAS-proven access sites, guest-RAM access compiled inside mram
blocks, and every eviction path dropping compiled code.  Bit-identity
of tier-2 execution against the interpreter is fuzzed in
``tests/test_superblock_differential.py``.
"""

from __future__ import annotations

import textwrap

from repro import MRoutine, build_metal_machine
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

#: Constant-offset MRAM accesses: the interval pass proves both sites
#: in-bounds, licensing MJIT's guard elision.
ACC = MRoutine(name="acc", entry=1, data_words=4, source="""
    mld x5, ACC_DATA+0(x0)
    addi x5, x5, 1
    mst x5, ACC_DATA+0(x0)
    wmr m27, x5
    mexitm
""")

#: MReg-indexed MRAM access: in range at runtime (m20 stays 0) but the
#: interval pass cannot bound an ``rmr`` result, so the site is
#: unproven and must keep the guarded ``execute()`` dispatch.
IDX = MRoutine(name="idx", entry=1, data_words=4, mregs=(20,), source="""
    rmr x6, m20
    mld x7, IDX_DATA(x6)
    addi x7, x7, 1
    mst x7, IDX_DATA(x6)
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


def _machine(routines=(), threshold=1, **cfg):
    machine = build_metal_machine(
        list(routines), config=MachineConfig(with_caches=False, **cfg))
    machine.sim.tcache.jit_threshold = threshold
    return machine


def _jit_sources(machine, ns="mram"):
    table = machine.sim.tcache._mram if ns == "mram" else machine.sim.tcache._mem
    return {pc: b.jit_fn.__jit_source__
            for pc, b in table.items() if b.jit_fn is not None}


# ---------------------------------------------------------------------------
# codegen golden snapshot
# ---------------------------------------------------------------------------
GOLDEN_LOOP_BLOCK = textwrap.dedent("""\
    def _jit(core, block, timer, sync, budget, instret_base, limit):
        regs = core.regs
        timing = timer.timing
        _ml = timing.mem_latency
        bc = _ml if _ml > 1 else 1
        _bt = timing.branch_taken_penalty
        r5 = regs[5]
        r6 = regs[6]
        retired = 0
        loops = 0
        cyc = 0
        while True:
            r6 = (r6 + 1) & 4294967295
            r5 = (r5 + -1) & 4294967295
            retired += 2
            cyc += 2 * bc
            retired += 1
            if r5 != 0:
                cyc += bc + _bt
                if loops < limit and budget - retired >= 3:
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
        return (0, next_pc, retired, loops, None)""")


def test_golden_source_self_loop():
    """The hot self-loop block compiles to exactly the expected source:
    registers as locals, the backward branch internalized as ``while
    True``/``continue``, unit costs batched, state spilled only at the
    exits.  An intentional codegen change means updating this snapshot —
    an unintentional one means a bug."""
    m = _machine()
    m.load_and_run(LOOP, base=CODE_BASE)
    assert m.reg("t1") == 50
    block = m.sim.tcache._mem[CODE_BASE + 8]
    assert block.jit_fn is not None, "hot loop block was not tier-2 compiled"
    assert block.jit_fn.__jit_source__.rstrip() == GOLDEN_LOOP_BLOCK


def test_tier_of_reports_jit():
    m = _machine()
    m.load_and_run(LOOP, base=CODE_BASE)
    assert m.sim.tcache.tier_of("mem", CODE_BASE + 8) == "jit"
    assert m.sim.tcache.tier_of("mem", 0xDEAD) is None


# ---------------------------------------------------------------------------
# MAS-licensed guard elision
# ---------------------------------------------------------------------------
def test_guard_elision_with_proven_facts():
    """Constant-offset ``mld``/``mst`` sites the interval pass proved
    in-bounds compile to direct byte-array access (``_upk``/``_pk``)
    with only the alignment guard kept."""
    m = _machine([ACC])
    image = m.metal_image
    assert image.analysis["acc"].facts.proven_access_words, (
        "interval pass failed to prove the constant-offset accesses")
    assert m.sim.tcache._proven_pcs, "proven pcs never reached the tcache"
    r = m.load_and_run(MENTER_LOOP, base=CODE_BASE)
    assert r.instructions > 0
    sources = _jit_sources(m)
    assert sources, "no mram block was tier-2 compiled"
    body = "\n".join(sources.values())
    assert "_upk(data" in body and "_pk(data" in body, (
        "proven accesses were not elided to direct array access")
    assert "CAUSE_BUS_ERROR, _o" in body   # alignment guard stays


def test_guard_elision_requires_facts():
    """An access the interval pass cannot bound (mreg-indexed) keeps the
    guarded ``execute()`` dispatch — elision only ever follows a proof."""
    m = _machine([IDX])
    assert not m.metal_image.analysis["idx"].facts.proven_access_words
    m.load_and_run(MENTER_LOOP, base=CODE_BASE)
    sources = _jit_sources(m)
    assert sources, "no mram block was tier-2 compiled"
    body = "\n".join(sources.values())
    assert "_upk(data" not in body and "_pk(data" not in body
    assert "execute(core" in body


def test_elision_parity_with_interpreter():
    """The elided routine is bit-identical to the interpreter run."""
    results = {}
    for tcache in (False, True):
        m = _machine([ACC], tcache=tcache)
        r = m.load_and_run(MENTER_LOOP, base=CODE_BASE)
        results[tcache] = (r.instructions, r.cycles, list(m.core.regs),
                           bytes(m.core.metal.mram.data))
    assert m.perf.tcache.jit_instructions > 0
    assert results[False] == results[True]


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
    assert 0.0 < tc.jit_dispatch_share <= 1.0
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

