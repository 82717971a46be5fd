"""Regions: hot cycles of linked blocks run as one MJIT function.

When a dispatch follows its chain back to a block it already entered,
MJIT joins the cycle into one region (``TranslationCache.join``), and an
exit into a member tests the engine's admission rule in place.  These
tests pin the rule that makes that safe: evicting any member drops the
region from every member, and an edge into a member that may have been
evicted tests it first.  Each way a member can be evicted — its own
store (SMC), DMA landing during a sync, a snapshot restore of its page,
an intercept-rule change seen at an ``mexit``, an mroutine reload — is
run on a region that is cached or running, tcache off against on, on
both engines with the cache models on: registers, pc, mode, instret,
cycles, MRegs, cache and stall counts and delivery counts must agree.
"""

from __future__ import annotations

import pytest

from repro import MRoutine, build_metal_machine
from repro.asm import assemble
from repro.cpu.exceptions import Cause
from repro.machine.builder import MachineConfig
from repro.profile.workloads import WORKLOADS, workload_source

ENGINES = ("functional", "pipeline")


def _word(source: str) -> int:
    return assemble(source, base=0).words()[0]


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
    }


def _multi(machine) -> bool:
    """Whether the machine holds a region of more than one member."""
    return any(len(region) > 1
               for region in machine.sim.tcache.iter_regions())


def _pair(engine, routines, source, drive):
    """Run *source* with the tcache off and on; *drive(machine)* returns
    a list of states, which must agree.  Returns the tcache-on machine."""
    runs = []
    for tcache in (False, True):
        machine = build_metal_machine(
            [MRoutine(name=r.name, entry=r.entry, source=r.source,
                      mregs=r.mregs, shared_mregs=r.shared_mregs)
             for r in routines],
            config=MachineConfig(engine=engine, tcache=tcache))
        program = machine.assemble(source)
        machine.load(program)
        machine.core.pc = program.symbols["_start"]
        runs.append(drive(machine))
    assert runs[0] == runs[1]
    return machine


def _run(machine, budget):
    machine.run(max_instructions=budget, raise_on_limit=False)
    return _state(machine)


@pytest.mark.parametrize("engine", ENGINES)
def test_workload_regions_have_many_members(engine):
    """poly_branch, syscall_heavy and intercept_heavy each run as one
    region of three members, two namespaces for the Metal-heavy two;
    tight_loop stays a one-member region."""
    for name, kinds in (("poly_branch", {False}),
                        ("syscall_heavy", {False, True}),
                        ("intercept_heavy", {False, True}),
                        ("tight_loop", {False})):
        workload = WORKLOADS[name]
        machine = build_metal_machine(list(workload.routines),
                                      config=MachineConfig(engine=engine))
        if workload.setup is not None:
            workload.setup(machine)
        machine.load_and_run(workload_source(name, 200))
        sizes = sorted(len(region)
                       for region in machine.sim.tcache.iter_regions())
        hot = max(machine.sim.tcache.iter_regions(), key=len)
        assert {member.mram for member in hot} == kinds, name
        assert sizes[-1] == (1 if name == "tight_loop" else 3), name


#: The ``even`` arm, on a page of its own, stores to the data page on
#: every pass but one, when it stores over ``patch``, an instruction of
#: the loop's other page: the store evicts the other members of the
#: running four-member region, and ``even`` goes on to an edge into one
#: of them.
SMC_LOOP = f"""
_start:
    li   s0, 120
    li   s1, 0x3000
    li   t6, patch
    sub  t6, t6, s1
    li   t3, {_word("addi a1, a1, 2")}
loop:
    andi t1, s0, 1
    beqz t1, even
odd:
    addi a0, a0, 1
next:
patch:
    addi a1, a1, 1
    addi s0, s0, -1
    bnez s0, loop
    halt
    .align 12
even:
    xori t5, s0, 40
    sltiu t5, t5, 1
    mul  t5, t5, t6
    add  t4, s1, t5
    sw   t3, 0(t4)
    beqz zero, next
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_smc_evicts_a_running_region(engine):
    def drive(machine):
        states = [_run(machine, 200)]
        if machine.sim.tcache_enabled:
            assert any(len(region) == 4
                       for region in machine.sim.tcache.iter_regions())
            assert machine.perf.tcache.invalidations == 0
        states.append(_run(machine, 10_000))
        return states

    machine = _pair(engine, (), SMC_LOOP, drive)
    assert machine.core.halted
    assert machine.perf.tcache.invalidations > 0
    assert machine.reg("a1") == 120 + 40


#: A block-device read lands on the loop's own page while it runs (the
#: ``odd`` arm's load syncs the devices): the sector is the code from
#: ``loop`` on, the loop's bytes unchanged and ``tail`` rewritten, so the
#: running region's members are evicted and the rewritten tail runs.
DMA_LOOP = """
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
    andi t1, s0, 1
    beqz t1, even
odd:
    lw   t2, 0(s3)
    j    next
even:
    addi a2, a2, 2
next:
    addi s0, s0, -1
    bnez s0, loop
tail:
    addi a1, a1, 1
    halt
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_dma_evicts_a_running_region(engine):
    def drive(machine):
        symbols = machine.assemble(DMA_LOOP).symbols
        start, tail = symbols["loop"], symbols["tail"]
        sector = bytearray(machine.read_bytes(start, 512))
        sector[tail - start:tail - start + 4] = _word(
            "addi a1, a1, 5").to_bytes(4, "little")
        machine.blockdev.preload(3, bytes(sector))
        states = [_run(machine, 60)]
        if machine.sim.tcache_enabled:
            assert _multi(machine)
            assert machine.blockdev.completed == 0
        states.append(_run(machine, 10_000))
        return states

    machine = _pair(engine, (), DMA_LOOP, drive)
    assert machine.core.halted and machine.blockdev.completed == 1
    assert machine.perf.tcache.invalidations > 0
    assert machine.reg("a1") == 5


#: A loop of ALU work whose ``far`` arm is on a page of its own: a
#: quiet region (no member can evict another, so no edge tests
#: ``valid``) across two pages.
QUIET_LOOP = """
_start:
    li   s0, 200
loop:
    andi t1, s0, 1
    beqz t1, far
near:
    addi a0, a0, 1
next:
    addi s0, s0, -1
    bnez s0, loop
    halt
    .align 12
far:
    addi a1, a1, 1
    beqz zero, next
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_snapshot_restore_evicts_a_cached_region(engine):
    """The host patches ``far`` and the loop runs it in a region again;
    restoring the snapshot rewrites ``far``'s page only, and the cached
    region, whose other members survive, must not run the patched
    code."""
    def drive(machine):
        snap = machine.take_snapshot()
        far = machine.assemble(QUIET_LOOP).symbols["far"]
        states = [_run(machine, 60)]
        machine.write_word(far, _word("addi a1, a1, 7"))
        states.append(_run(machine, 60))
        if machine.sim.tcache_enabled:
            assert _multi(machine)
        machine.restore(snap)
        states.append(_state(machine))
        states.append(_run(machine, 10_000))
        return states

    machine = _pair(engine, (), QUIET_LOOP, drive)
    assert machine.core.halted
    assert (machine.reg("a0"), machine.reg("a1")) == (100, 100)


#: Turns the ``lw`` intercept rule off and on (m19: on), so the
#: ``mexit`` crossing's re-check selects another rule set and flushes
#: every mem block, the members of the running region among them.
TOGGLE = MRoutine(name="tog", entry=3, shared_mregs=(19, 20, 21), source="""
    rmr  t6, m19
    bnez t6, off
    rmr  t6, m20
    rmr  t5, m21
    micept t6, t5
    li   t6, 1
    j    done
off:
    rmr  t6, m20
    miceptd t6
    li   t6, 0
done:
    wmr  m19, t6
    mexit
""")

#: Emulates the intercepted ``lw``, plus 1000, committed by ``mexitm``.
EMUL = MRoutine(name="emul", entry=4, shared_mregs=(12, 13), source="""
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

SETUP = MRoutine(name="setup", entry=5, shared_mregs=(19, 20, 21), source="""
    wmr  m20, a0
    wmr  m21, a1
    li   t6, 0
    wmr  m19, t6
    mexit
""")

TOGGLE_LOOP = """
_start:
    li   a0, 0x503
    li   a1, MR_EMUL
    menter MR_SETUP
    li   s2, 0x3000
    li   s0, 60
loop:
    lw   a2, 0(s2)
    add  a3, a3, a2
    andi t1, s0, 7
    bnez t1, skip
    menter MR_TOG
skip:
    addi s0, s0, -1
    bnez s0, loop
    halt
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_rule_change_at_an_mexit_evicts_a_running_region(engine):
    def drive(machine):
        machine.write_word(0x3000, 7)
        return [_run(machine, 10_000)]

    machine = _pair(engine, (TOGGLE, EMUL, SETUP), TOGGLE_LOOP, drive)
    assert machine.core.halted
    assert machine.core.metal.stats.deliveries[Cause.INTERCEPT] > 10
    assert machine.perf.tcache.flushes > 5


def _spin(step: int) -> MRoutine:
    return MRoutine(name="bump", entry=1, source=f"""
        addi a0, a0, {step}
        mexit
    """)


MENTER_LOOP = """
_start:
    li   s0, 40
loop:
    menter 1
    addi s0, s0, -1
    bnez s0, loop
    halt
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_reload_evicts_a_cached_region(engine):
    """An mroutine reload between runs: the cached region's edge into
    MRAM sees the new code version and leaves, so the reloaded routine
    runs."""
    def drive(machine):
        states = [_run(machine, 30)]
        if machine.sim.tcache_enabled:
            assert any(len(region) > 1 and any(m.mram for m in region)
                       for region in machine.sim.tcache.iter_regions())
        machine.reload_mroutines([_spin(10)])
        states.append(_run(machine, 10_000))
        return states

    machine = _pair(engine, (_spin(1),), MENTER_LOOP, drive)
    assert machine.core.halted
    assert 40 < machine.reg("a0") < 400
