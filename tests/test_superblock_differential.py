"""Differential fuzzing of superblock chaining.

Random guest programs (ALU ops, branches, jumps, loads/stores,
``menter``/``mexit`` round-trips into mroutines that load and store
guest RAM, and self-modifying stores) run in lockstep on four functional
machines — tcache off entirely, tcache + superblock chaining on (MJIT
compiles every block at its first dispatch, including blocks whose code
the program later rewrites in place), tcache + chaining with the MPROF
trace sink attached (which bounds chained dispatches at the profiling
chain quantum), and tcache + chaining with a no-op step hook (which
runs every block on ``step()``, up to its first jump or taken branch,
so the block lookup, budget and stop cuts run on every block and MJIT
compiles nothing) — and every architecturally
visible piece of state is compared after every chunk of retired
instructions.  Chunk ends fall inside blocks, so the ``step()`` tails
of a block longer than the budget are covered too.
Any divergence means the host fast path (the chainer, the profiler,
the ``step()`` prefix path or the JIT) leaked into guest-visible
behaviour.

A second, caches-on pair runs the same program with the I-cache and
D-cache models on: the interpreter against the chained tcache.
Compiled mem blocks replay their I-cache fetch plan instead of
accessing the cache on every fetch, so the pair also compares cache hit
and miss counts after every chunk.  A third pair does the same on the
pipeline engine (interpreter against the chained tcache, caches on),
whose compiled code feeds the scoreboard one run (with the entry that
ends it, when that entry is reported in the same call) or one inlined
entry at a time, and also compares the three stall counters.
Besides the default programs, all eight machines run the intercepting
``icept`` seeds, 40 seeds of extension programs (divides,
misaligned accesses, ``ecall`` handlers ending in ``mexitm``, live
timer interrupts), 20 seeds of ``calls`` programs, whose blocks
continue through ``jal ra`` into leaf functions that return through
``jalr``, and 20 seeds of ``switch`` programs, whose 3- and 4-way
dispatches make hot cycles of many linked blocks (MJIT regions).

Seeds are deterministic and appear both in the test id and in every
assertion message, so a failure is reproducible with e.g.::

    PYTHONPATH=src python -m pytest "tests/test_superblock_differential.py::test_differential[seed17]"

The number of seeded cases defaults to 200 and can be lowered for smoke
runs with ``--seeds=25`` (see ``tests/conftest.py``).
"""

from __future__ import annotations

import random

from repro import build_metal_machine

# The program generator lives in repro.conformance.generator (shared
# with the MCONF campaign runner); with the default GenConfig it is
# seed-for-seed identical to the generator that used to live here —
# tests/test_conformance.py pins golden digests for seeds 0-4.
from repro.conformance.generator import (
    CHUNK, CODE_BASE, DATA_BASE, DATA_WORDS, RAM_BYTES, TOTAL_LIMIT,
    GenConfig, gen_program, routines,
)

_routines = routines
_gen_program = gen_program


def _build(tcache: bool, hook: bool = False, caches: bool = False,
           engine: str = "functional", config: GenConfig = GenConfig()):
    machine = build_metal_machine(
        _routines(config), engine=engine, with_caches=caches,
        ram_bytes=RAM_BYTES, tcache=tcache,
    )
    if hook:
        # A step hook sends every block to step().
        machine.sim.add_step_hook(lambda step: None)
    return machine


def _state(machine) -> dict:
    core = machine.core
    return {
        "regs": list(core.regs),
        "pc": core.pc,
        "instret": core.instret,
        "cycles": machine.cycles,
        "halted": core.halted,
        "waiting": core.waiting,
        "in_metal": core.in_metal,
        "mregs": core.metal.mregs.snapshot(),
        "intercept_hits": core.metal.intercept.hits,
        "mram_data": bytes(core.metal.mram.data),
        "data": machine.read_bytes(DATA_BASE, 4 * DATA_WORDS),
    }


def _cached_state(machine) -> dict:
    core = machine.core
    return {
        **_state(machine),
        "icache": (core.icache.stats.hits, core.icache.stats.misses),
        "dcache": (core.dcache.stats.hits, core.dcache.stats.misses),
    }


def _pipeline_state(machine) -> dict:
    return {**_cached_state(machine), "stalls": machine.sim.stalls}


def _assert_same(seed, step, ref, got, code_len, m_ref, m_got,
                 label: str = "chained"):
    ref_code = m_ref.read_bytes(CODE_BASE, code_len)
    got_code = m_got.read_bytes(CODE_BASE, code_len)
    assert ref_code == got_code, (
        f"seed {seed} step {step}: code bytes diverge ({label})"
    )
    for key in ref:
        assert ref[key] == got[key], (
            f"seed {seed} step {step}: {key} diverges "
            f"(tcache-off={ref[key]!r}, {label}={got[key]!r})"
        )


def pytest_generate_tests(metafunc):
    if "seed" in metafunc.fixturenames:
        n = metafunc.config.getoption("--seeds")
        metafunc.parametrize("seed", range(n), ids=[f"seed{i}" for i in range(n)])
    if "snap_seed" in metafunc.fixturenames:
        metafunc.parametrize("snap_seed", range(SNAPSHOT_SEEDS),
                             ids=[f"snap{i}" for i in range(SNAPSHOT_SEEDS)])
    if "icept_seed" in metafunc.fixturenames:
        metafunc.parametrize("icept_seed", ICEPT_SEEDS,
                             ids=[f"icept{i}" for i in ICEPT_SEEDS])
    if "ext_seed" in metafunc.fixturenames:
        metafunc.parametrize("ext_seed", range(EXT_SEEDS),
                             ids=[f"ext{i}" for i in range(EXT_SEEDS)])
    if "calls_seed" in metafunc.fixturenames:
        metafunc.parametrize("calls_seed", range(CALLS_SEEDS),
                             ids=[f"calls{i}" for i in range(CALLS_SEEDS)])
    if "switch_seed" in metafunc.fixturenames:
        metafunc.parametrize("switch_seed", range(SWITCH_SEEDS),
                             ids=[f"switch{i}" for i in range(SWITCH_SEEDS)])


def test_differential(seed):
    _lockstep(seed, GenConfig())


#: Seeds whose ``icept`` programs take the most intercepts (the two
#: ``lw``-rule and four ``addi``-rule programs of seeds 0-39 with the
#: most), for the caches-on and pipeline pairs the MCONF lockstep does
#: not run.
ICEPT_SEEDS = (8, 10, 16, 17, 21, 34)


def test_differential_intercepted(icept_seed):
    """Programs that intercept ``lw`` or ``addi`` and turn the rule off
    and on, on all eight machines."""
    _lockstep(icept_seed, GenConfig(icept=1.0))


#: The body extensions and Metal transitions whose entries MJIT inlines
#: on every engine: divides and remainders (EX extra cycles on the
#: pipeline), misaligned loads and stores that trap out of compiled
#: code, ``ecall`` handlers that commit with ``mexitm``, and loads and
#: stores under a live timer interrupt.
EXT_CONFIG = GenConfig(divrem=0.5, misalign=0.5, ecall=1.0, irq=1.0)
EXT_SEEDS = 40


def test_differential_extensions(ext_seed):
    """Extension programs on all eight machines, so the caches-on
    functional and pipeline pairs see them too."""
    _lockstep(ext_seed, EXT_CONFIG)


CALLS_SEEDS = 20


def test_differential_calls(calls_seed):
    """Programs that call leaf functions through ``jal ra``, on all
    eight machines: the only generated ``jal`` that writes a link
    register, which a block continuing through it must write."""
    _lockstep(calls_seed, GenConfig(calls=1.0))


SWITCH_SEEDS = 20


def test_differential_switch(switch_seed):
    """Programs that dispatch 3 or 4 ways inside their chunk loops, once
    through a computed ``jalr`` and once through a branch chain, on all
    eight machines: hot cycles of many linked blocks, which MJIT joins
    into regions."""
    _lockstep(switch_seed, GenConfig(switch=1.0))


def _lockstep(seed, config):
    rng = random.Random(0xC0DE + seed)
    source = _gen_program(rng, config)

    def build(tcache, **kwargs):
        return _build(tcache, config=config, **kwargs)

    m_ref = build(tcache=False)        # interpreter, no fast path at all
    m_got = build(tcache=True)         # predecoded blocks + chaining + MJIT
    m_prof = build(tcache=True)        # chaining + MPROF sink attached
    m_hook = build(tcache=True, hook=True)    # the step() prefix path
    m_ref_c = build(tcache=False, caches=True)        # caches-on pair
    m_got_c = build(tcache=True, caches=True)
    m_ref_p = build(tcache=False, caches=True, engine="pipeline")
    m_got_p = build(tcache=True, caches=True, engine="pipeline")
    m_prof.set_profiling(True)
    machines = (m_ref, m_got, m_prof, m_hook, m_ref_c, m_got_c,
                m_ref_p, m_got_p)

    programs = []
    for machine in machines:
        program = machine.assemble(source, base=CODE_BASE)
        machine.load(program)
        machine.core.pc = CODE_BASE
        programs.append(program)
    code_len = 4 * len(programs[0].words())

    step = 0
    retired = 0
    while retired < TOTAL_LIMIT:
        for machine in machines:
            machine.run(max_instructions=CHUNK, raise_on_limit=False)
        step += 1
        retired += CHUNK
        ref, got = _state(m_ref), _state(m_got)
        _assert_same(seed, step, ref, got, code_len, m_ref, m_got)
        _assert_same(seed, step, ref, _state(m_prof), code_len,
                     m_ref, m_prof, label="profiled")
        _assert_same(seed, step, ref, _state(m_hook), code_len,
                     m_ref, m_hook, label="hooked")
        _assert_same(seed, step, _cached_state(m_ref_c),
                     _cached_state(m_got_c), code_len, m_ref_c, m_got_c,
                     label="chained, caches on")
        _assert_same(seed, step, _pipeline_state(m_ref_p),
                     _pipeline_state(m_got_p), code_len, m_ref_p, m_got_p,
                     label="pipeline, caches on")
        if ref["halted"]:
            break

    assert m_ref.core.halted, (
        f"seed {seed}: program failed to halt within {TOTAL_LIMIT} "
        f"instructions (generator bug)"
    )
    # The fast path must actually have been on the hook: the chained
    # machine should have dispatched through the tcache, the profiled
    # machine's sink should have recorded its dispatches, and the hooked
    # machine should have dispatched blocks but run them on step() only.
    stats = m_got.perf.tcache
    assert stats.dispatches > 0, f"seed {seed}: tcache never dispatched"
    assert m_prof.profiler.total_traces > 0, (
        f"seed {seed}: profiler recorded no traces"
    )
    hooked = m_hook.perf.tcache
    assert hooked.hits + hooked.misses > 0, (
        f"seed {seed}: hooked machine never dispatched a block"
    )
    assert hooked.jit_instructions == 0, (
        f"seed {seed}: hooked machine ran compiled code"
    )
    assert m_got_c.perf.tcache.fast_instructions > 0, (
        f"seed {seed}: caches-on machine never ran a block"
    )
    assert m_got_p.perf.tcache.fast_instructions > 0, (
        f"seed {seed}: pipeline machine never ran a block"
    )


SNAPSHOT_SEEDS = 8


def test_differential_snapshot_midrun(snap_seed):
    """Snapshot all four machines mid-run, continue to halt in
    lockstep, restore, and replay: the second continuation must retrace
    the first bit-for-bit.  This pins two properties at once — the
    snapshot captures *every* guest-visible bit (missing state shows up
    as a pass-1 vs pass-2 divergence), and the host fast paths carry no
    guest-visible residue across a restore (the tcache still holds
    pass-1 superblocks, the profiler keeps pass-1 traces, the JIT keeps
    pass-1 compiled functions; none may leak into the replayed
    architectural state)."""
    from repro.machine.snapshot import restore_snapshot, take_snapshot

    rng = random.Random(0x5AFE + snap_seed)
    source = _gen_program(rng)

    # Probe the program's total length on a throwaway interpreter so
    # the snapshot lands squarely mid-run, whatever the generator made.
    probe = _build(tcache=False)
    probe.load(probe.assemble(source, base=CODE_BASE))
    probe.core.pc = CODE_BASE
    probe.run(max_instructions=TOTAL_LIMIT, raise_on_limit=False)
    assert probe.core.halted, f"snap seed {snap_seed}: probe never halted"
    snapshot_mid = max(1, probe.core.instret // 2)

    machines = (_build(tcache=False), _build(tcache=True),
                _build(tcache=True), _build(tcache=True, hook=True))
    m_ref, m_got, m_prof, m_hook = machines
    m_prof.set_profiling(True)
    for machine in machines:
        program = machine.assemble(source, base=CODE_BASE)
        machine.load(program)
        machine.core.pc = CODE_BASE
    code_len = 4 * len(program.words())

    def check(step):
        ref = _state(m_ref)
        _assert_same(snap_seed, step, ref, _state(m_got), code_len,
                     m_ref, m_got)
        _assert_same(snap_seed, step, ref, _state(m_prof), code_len,
                     m_ref, m_prof, label="profiled")
        _assert_same(snap_seed, step, ref, _state(m_hook), code_len,
                     m_ref, m_hook, label="hooked")
        return ref

    def continue_to_halt():
        retired = 0
        while retired < TOTAL_LIMIT:
            for machine in machines:
                machine.run(max_instructions=CHUNK, raise_on_limit=False)
            retired += CHUNK
            ref = check(f"+{retired}")
            if ref["halted"]:
                return ref
        raise AssertionError(
            f"snap seed {snap_seed}: program failed to halt")

    for machine in machines:
        machine.run(max_instructions=snapshot_mid, raise_on_limit=False)
    mid = check("mid")
    assert not mid["halted"], (
        f"snap seed {snap_seed}: halted before the snapshot point")
    snaps = [take_snapshot(machine) for machine in machines]

    first = continue_to_halt()

    for machine, snap in zip(machines, snaps):
        restore_snapshot(machine, snap)
    replay_mid = check("restored")
    assert not replay_mid["halted"]
    second = continue_to_halt()

    # The replay matches the first continuation on every architectural
    # field.  ``cycles`` is excluded by design: the cycle counter is
    # engine-owned timing state, not snapshot-restorable guest state
    # (instret *is* restored, and is compared).
    for key in first:
        if key == "cycles":
            continue
        assert first[key] == second[key], (
            f"snap seed {snap_seed}: replay diverges on {key} "
            f"(first={first[key]!r}, replay={second[key]!r})"
        )


def test_chaining_engages_on_loops():
    """Structural check: a loopy program actually follows chain links
    (guards the fuzz harness against silently testing chaining-off)."""
    m = _build(tcache=True)
    m.load_and_run("""
_start:
    li   s0, 2000
loop:
    addi a0, a0, 1
    addi s0, s0, -1
    j    hop
hop:
    blt  zero, s0, loop
    halt
""", base=CODE_BASE)
    stats = m.perf.tcache
    assert m.reg("a0") == 2000
    assert stats.chain_links >= 2
    assert stats.chain_hits > 1000
    assert stats.chain_longest > 100


def test_polymorphic_branch_stays_chained():
    """A branch whose target flips every iteration keeps *both*
    successors in its target map: chain hits cover every iteration
    while chain breaks stay O(1).  Under the monomorphic single-slot
    chainer this program broke and relinked its chain on every flip
    (≈1 break per iteration)."""
    m = _build(tcache=True)
    m.load_and_run("""
_start:
    li   s0, 2000
loop:
    andi t1, s0, 1
    beqz t1, even
odd:
    addi a0, a0, 1
    j    next
even:
    addi a1, a1, 1
next:
    addi s0, s0, -1
    bnez s0, loop
    halt
""", base=CODE_BASE)
    assert m.reg("a0") == 1000        # odd iterations (s0 = 1999, 1997, ...)
    assert m.reg("a1") == 1000
    stats = m.perf.tcache
    assert stats.chain_hits >= 2000, (
        f"alternating branch not staying chained: {stats.chain_hits} hits"
    )
    assert stats.chain_breaks <= 8, (
        f"alternating branch still breaking chains: {stats.chain_breaks}"
    )


def test_polymorphic_jalr_three_targets():
    """An indirect jump rotating through three targets keeps all three
    successors linked."""
    m = _build(tcache=True)
    m.load_and_run("""
_start:
    li   s0, 1500
loop:
    # t0 = s0 % 3 via repeated subtraction on the low bits (cheap mod):
    andi t1, s0, 3
    li   t0, arm0
    beqz t1, go
    li   t0, arm1
    addi t1, t1, -1
    beqz t1, go
    li   t0, arm2
go:
    jalr zero, 0(t0)
arm0:
    addi a0, a0, 1
    j    next
arm1:
    addi a1, a1, 1
    j    next
arm2:
    addi a2, a2, 1
next:
    addi s0, s0, -1
    bnez s0, loop
    halt
""", base=CODE_BASE)
    assert m.reg("a0") + m.reg("a1") + m.reg("a2") == 1500
    stats = m.perf.tcache
    assert stats.chain_hits >= 1500, (
        f"three-target jalr not staying chained: {stats.chain_hits} hits"
    )
    assert stats.chain_breaks <= 8, (
        f"three-target jalr breaking chains: {stats.chain_breaks} breaks"
    )


def test_polymorphic_jalr_six_targets():
    """An indirect jump rotating through six targets keeps every one of
    them linked: the target map has no capacity to overflow, so the
    chain breaks only while the targets are first seen (a four-entry
    LRU map misses on every turn of a round robin over six)."""
    arms = "\n".join(f"""arm{k}:
    addi a{k}, a{k}, 1
    j    next""" for k in range(6))
    m = _build(tcache=True)
    m.load_and_run(f"""
_start:
    li   s0, 1200
    li   s1, 0
    li   s2, 6
loop:
    slli t1, s1, 3              # each arm is two instructions
    li   t0, arm0
    add  t0, t0, t1
    jalr zero, 0(t0)
{arms}
next:
    addi s1, s1, 1
    remu s1, s1, s2             # the next arm, round robin
    addi s0, s0, -1
    bnez s0, loop
    halt
""", base=CODE_BASE)
    assert [m.reg(f"a{k}") for k in range(6)] == [200] * 6
    stats = m.perf.tcache
    assert stats.chain_hits >= 1200, (
        f"six-target jalr not staying chained: {stats.chain_hits} hits"
    )
    assert stats.chain_breaks <= 8, (
        f"six-target jalr breaking chains: {stats.chain_breaks} breaks, "
        f"{stats.chain_links} links"
    )
