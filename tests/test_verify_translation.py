"""MVTV translation-validator tests (:mod:`repro.verify`).

Four angles:

* corpus cleanliness — every block MJIT compiles across a slice of the
  conformance seed space proves equivalent to its uop IR;
* golden symbolic summaries — the canonical reference summaries of
  three representative hand-written blocks are pinned byte-for-byte
  (``tests/golden/verify_*.txt``), so canonicalisation changes surface
  as diffs rather than silent behaviour shifts;
* mutation detection — seeding a codegen template bug, a loop-guard
  bug, a missing MRAM data-segment bound, a skipped line-head I-cache
  access, a wrong ``note_run`` schedule, an ``mexit`` without its cost,
  an ``ecall`` exit without its fetch or hit credit, an intercept exit
  without its fetch, hit credit or fetch-latency charge or with the
  wrong epc, a trap handler whose name the epilogue reads after Python
  unbound it, an ``mexitm`` commit before the final spill, a wrong
  ``note_op`` report (a taken branch without its redirect, a load as a
  non-load, an ``mexitm`` committing x0), the line head of an op a
  ``note_run`` reports accessed before that call, or a ``jal`` its
  block continues through without its link write or its jump charge
  makes the validator fail the
  affected block with a precise citation (the acceptance property: a
  wrong compiler cannot pass);
* exhaustiveness — every uop IR kind and every ALU/branch mnemonic the
  execution model dispatches has a validator rule, so adding a new one
  without teaching the validator fails this suite.
"""

from __future__ import annotations

import contextlib
import re
import dataclasses
import pathlib

import pytest

from repro import MRoutine, build_metal_machine
from repro.errors import ExecutionLimitExceeded
from repro.cpu import alu, jit
from repro.cpu import tcache as tcache_mod
from repro.machine.builder import MachineConfig
from repro.verify.corpus import validate_corpus
from repro.verify.model import render_summary
from repro.verify.translate import validate_region
from repro.verify.uopsem import (
    BRANCH_SEM, IMM_SEM, IR_RULES, REG_SEM, reference_summary,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
CODE_BASE = 0x1000

#: Self-loop of reg-imm ALU ops: batched retire/cycle accounting and the
#: loop-generalisation machinery.
LOOP = """
_start:
    li t0, 50
loop:
    addi t1, t1, 1
    addi t0, t0, -1
    bnez t0, loop
    halt
"""

#: Load + store in the loop body: sync prologue, memory trap forks and
#: the store-abort (SMC) exit.
MEMLOOP = """
_start:
    li s0, 5
    li s1, 0x2000
loop:
    lw t0, 0(s1)
    addi t0, t0, 3
    sw t0, 4(s1)
    addi s0, s0, -1
    bnez s0, loop
    halt
"""

#: Muldiv dispatch plus the signed-comparison and arithmetic-shift
#: canonicalisations.
MIXLOOP = """
_start:
    li a0, 40
    li a1, 7
loop:
    mul a2, a0, a1
    srai a3, a2, 3
    slt a4, a3, a0
    addi a0, a0, -1
    bnez a0, loop
    halt
"""


#: An mroutine whose ``mld``/``mst`` index comes from an mreg, called
#: in a loop: the compiled mram block carries the data-segment check.
IDX = MRoutine(name="idx", entry=1, data_words=4, mregs=(20,), source="""
    rmr x6, m20
    mld x7, IDX_DATA(x6)
    addi x7, x7, 1
    mst x7, IDX_DATA(x6)
    mexitm
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


@pytest.fixture
def mutant(monkeypatch):
    """Seed a codegen mutant: ``mutant(target, name, value)`` patches as
    ``monkeypatch.setattr`` does and clears MJIT's source table, so the
    next compile generates the mutant's source instead of reusing the
    correct one; the table is cleared again at teardown, so no later
    test reuses the mutant's."""
    def seed(target, name, value):
        monkeypatch.setattr(target, name, value)
        jit._REGIONS.clear()
    yield seed
    jit._REGIONS.clear()


def _machine(routines=()):
    return build_metal_machine(
        list(routines), config=MachineConfig(with_caches=False))


def _compiled_regions(source):
    machine = _machine()
    machine.load_and_run(source, base=CODE_BASE, max_instructions=100_000)
    return list(machine.sim.tcache.iter_regions())


def _looped_block(source):
    regions = [region for region in _compiled_regions(source)
               if not region[0].mram]
    assert regions, "program compiled no tier-2 regions"
    looped = [region for region in regions
              if reference_summary(region).looped]
    assert len(looped) == 1, "expected exactly one looped region"
    assert len(looped[0]) == 1
    return looped[0][0]


# ---------------------------------------------------------------------------
# corpus cleanliness
# ---------------------------------------------------------------------------

def test_corpus_slice_validates_clean():
    report = validate_corpus(range(6))
    assert report.findings == []
    assert report.blocks_validated > 0
    assert report.mem_blocks > 0
    assert all(report.mode_blocks.values()), report.mode_blocks
    assert report.blocks_seen >= report.blocks_validated


def test_hand_written_programs_validate_clean():
    for source in (LOOP, MEMLOOP, MIXLOOP):
        for region in _compiled_regions(source):
            assert validate_region(region) == []


# ---------------------------------------------------------------------------
# golden symbolic summaries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,source", [
    ("verify_loop", LOOP),
    ("verify_memloop", MEMLOOP),
    ("verify_mixloop", MIXLOOP),
])
def test_golden_reference_summary(name, source):
    block = _looped_block(source)
    text = render_summary(reference_summary(block.region))
    golden = (GOLDEN_DIR / f"{name}.txt").read_text()
    assert text == golden, (
        f"canonical summary of {name} changed; if intended, regenerate "
        f"tests/golden/{name}.txt (see docs/VALIDATION.md)")


# ---------------------------------------------------------------------------
# mutation detection
# ---------------------------------------------------------------------------

def test_detects_corrupted_imm_template(mutant):
    """An off-by-one in the addi codegen template must fail validation
    with a citation of the affected block."""
    real = jit._imm_rhs

    def corrupt(m, a, imm):
        if m == "addi":
            return f"({a} + {imm + 1}) & 4294967295"
        return real(m, a, imm)

    mutant(jit, "_imm_rhs", corrupt)
    machine = _machine()
    # The corrupted decrement turns the loop infinite; the limit stop is
    # fine — the block is compiled either way.
    with contextlib.suppress(ExecutionLimitExceeded):
        machine.load_and_run(LOOP, base=CODE_BASE, max_instructions=10_000)
    findings = []
    cited = []
    for region in machine.sim.tcache.iter_regions():
        fs = validate_region(region)
        findings.extend(fs)
        cited.extend(f.where for f in fs)
    assert findings, "corrupted addi template was not detected"
    assert any("mem:0x" in where for where in cited)


def test_detects_broken_loop_guard(mutant):
    """An off-by-one budget test on the self-loop's edge runs one
    iteration past the budget; it changes the loop-exit protocol and
    must be caught."""
    real = jit._Codegen.emit

    def one_too_many(self, line=""):
        real(self, re.sub(r"retired <= (bud\d+)", r"retired <= \1 + 1",
                          line))

    mutant(jit._Codegen, "emit", one_too_many)
    machine = _machine()
    machine.load_and_run(LOOP, base=CODE_BASE, max_instructions=100_000)
    findings = []
    for region in machine.sim.tcache.iter_regions():
        findings.extend(validate_region(region))
    assert findings, "broken self-loop guard was not detected"


@pytest.mark.parametrize("engine", ["functional", "pipeline"])
def test_detects_dropped_horizon_exit(mutant, engine):
    """The exit after a load or store that pulled the bus horizon in
    must be there: a codegen that keeps only the eviction test fails
    validation on the affected mem block, in the analytic and the
    scoreboard modes."""
    def store_exit_only(self, pc, store):
        if store:
            self.emit(f"if not b{self.k}.valid:")
            self.indent += 1
            self.out(1, pc + 4)
            self.indent -= 1

    def cited():
        machine = build_metal_machine([], config=MachineConfig(
            engine=engine, with_caches=False))
        machine.load_and_run(MEMLOOP, base=CODE_BASE)
        tcache = machine.sim.tcache
        return [f.where for region in tcache.iter_regions()
                for f in validate_region(region,
                                         scoreboard=tcache.scoreboard)]

    assert cited() == []
    mutant(jit._Codegen, "access_exit", store_exit_only)
    assert any("mem:0x" in where for where in cited()), (
        "dropped horizon exit was not detected")


def test_detects_a_trap_read_after_its_handler(mutant):
    """Python unbinds an ``except ... as`` name as the handler ends: a
    codegen whose ``TrapException`` handler binds ``trap`` itself, so a
    trapped path's epilogue reads an unbound name, fails validation,
    though no run of the program traps."""
    real = jit._Codegen.emit

    def bind_trap(self, line=""):
        if line == "except TrapException as _x:":
            line = "except TrapException as trap:"
        elif line == "    trap = _x":
            return
        real(self, line)

    mutant(jit._Codegen, "emit", bind_trap)
    machine = _machine()
    machine.load_and_run(MEMLOOP, base=CODE_BASE)
    findings = [f for region in machine.sim.tcache.iter_regions()
                for f in validate_region(region)]
    assert findings, "a read of the handler's unbound name was not detected"
    assert all(f.detail == "read of undefined name 'trap'"
               for f in findings)


def test_detects_missing_mram_bound_check(mutant):
    """An ``mld``/``mst`` compiled with only the alignment test (the
    data-segment bound dropped) must fail validation on its mram block;
    the correct codegen validates clean on the same program."""
    def run():
        machine = _machine([IDX])
        machine.load_and_run(MENTER_LOOP, base=CODE_BASE)
        regions = [region for region in machine.sim.tcache.iter_regions()
                   if any(block.mram for block in region)]
        assert regions, "no mram block was tier-2 compiled"
        return [f for region in regions for f in validate_region(region)]

    assert run() == []
    real = jit._Codegen.emit

    def drop_bound(self, line=""):
        real(self, line.replace("if _o & 3 or _o >= _dn:", "if _o & 3:"))

    mutant(jit._Codegen, "emit", drop_bound)
    findings = run()
    assert findings, "missing data-segment bound was not detected"
    assert all(f.where.startswith("mram:0x") for f in findings)


#: A ten-instruction loop body that starts on a 32-byte line and spills
#: into the next: two line heads per pass.
TWO_LINES = """
_start:
    li s0, 30
    j loop
    .align 5
loop:
    addi t1, t1, 1
    addi t2, t2, 3
    xor t3, t1, t2
    slli t4, t1, 2
    add t5, t3, t4
    sub t6, t5, t1
    or a1, t6, t2
    and a2, a1, t3
    addi s0, s0, -1
    bnez s0, loop
    halt
"""


def _cached_findings(engine):
    """Run TWO_LINES with the cache models on and validate every
    compiled block in its cache's codegen mode."""
    machine = build_metal_machine([], config=MachineConfig(engine=engine))
    tc = machine.sim.tcache
    machine.load_and_run(TWO_LINES, base=CODE_BASE)
    regions = list(tc.iter_regions())
    assert regions, "program compiled no tier-2 regions"
    return [f for region in regions
            for f in validate_region(region, tc.line_size, tc.scoreboard)]


@pytest.mark.parametrize("engine", ["functional", "pipeline"])
def test_detects_skipped_line_head_access(mutant, engine):
    """A codegen that charges one line head as a hit instead of making
    its ``access(pc)`` must fail validation on the loop block, on
    either engine; the correct codegen validates clean."""
    assert _cached_findings(engine) == []
    real = jit.fetch_plan

    def skip_second_head(entries, line_size):
        heads = real(entries, line_size)
        later = [i for i, head in enumerate(heads) if head][1:]
        if later:
            heads[later[0]] = False
        return heads

    mutant(jit, "fetch_plan", skip_second_head)
    findings = _cached_findings(engine)
    assert findings, "skipped line-head access was not detected"
    assert all(f.where.startswith("mem:0x") for f in findings)
    assert any("events mismatch" in f.message for f in findings)


def test_detects_wrong_note_run_schedule(mutant):
    """A codegen that bakes a wrong schedule into ``note_run`` — here
    each plain entry reports no destination register — must fail
    validation on the pipeline engine."""
    real = jit._schedule_regs

    def no_rd(instr):
        rs_a, rs_b, _rd = real(instr)
        return rs_a, rs_b, 0

    mutant(jit, "_schedule_regs", no_rd)
    findings = _cached_findings("pipeline")
    assert findings, "wrong note_run schedule was not detected"
    assert all(f.where.startswith("mem:0x") for f in findings)
    assert any("events mismatch" in f.message for f in findings)


# ---------------------------------------------------------------------------
# the compiled Metal transitions
# ---------------------------------------------------------------------------

#: ECALL handler ending in ``mexitm`` with tracked registers around the
#: commit: x[m26 & 31] := m27 must follow the final spill.
ECALLH = MRoutine(name="ecallh", entry=2, mregs=(14, 15), source="""
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

#: ecall, menter/mexit and the mroutines' rmr/wmr in one loop.
TRANSITIONS = """
_start:
    li   s0, 6
loop:
    addi a0, a0, 5
    ecall
    menter 1
    addi s0, s0, -1
    bnez s0, loop
    halt
"""


def _transition_findings(engine, caches):
    """Run TRANSITIONS and validate every compiled block in its cache's
    codegen mode; returns ``(findings, ns_of_each_block)``."""
    from repro.cpu.exceptions import Cause
    machine = build_metal_machine(
        [MRoutine(name=r.name, entry=r.entry, source=r.source,
                  mregs=r.mregs) for r in (IDX, ECALLH)],
        config=MachineConfig(engine=engine, with_caches=caches))
    machine.route_cause(Cause.ECALL, "ecallh")
    machine.load_and_run(TRANSITIONS, base=CODE_BASE)
    tc = machine.sim.tcache
    regions = list(tc.iter_regions())
    return ([f for region in regions
             for f in validate_region(region, tc.line_size, tc.scoreboard)],
            [region[0].jit_fn.__jit_source__ for region in regions])


@pytest.mark.parametrize("engine,caches", [
    ("functional", False), ("functional", True), ("pipeline", True)])
def test_transitions_validate_clean(engine, caches):
    """The ecall exit and its delivery in place, the inline ``menter``
    and ``mexit``/``mexitm`` and the direct MReg accesses validate in
    every codegen mode."""
    findings, sources = _transition_findings(engine, caches)
    assert findings == []
    text = "\n".join(sources)
    assert "trap = _ecall" in text and "_mr[" in text
    assert "_deliver(" in text and "_enter(" in text
    if engine == "functional":
        assert "_exit()" in text and "_rset(" in text


def test_detects_mexit_without_its_cost(mutant):
    """An inline ``mexit`` that charges only its fetch must fail
    validation on its mram block."""
    real = jit._Codegen.emit

    def no_cost(self, line=""):
        real(self, line.replace(" + _mxc", ""))

    mutant(jit._Codegen, "emit", no_cost)
    findings, _ = _transition_findings("functional", False)
    assert findings, "mexit without mexit_cost was not detected"
    assert all(f.where.startswith("mram:0x") for f in findings)


def _uncredited(self, status=0, pc=None, trap=None):
    """A status-2 exit that returns on its own, its registers spilled
    and its cycles flushed, but without the epilogue's hit credit."""
    if status != 2:
        return jit._Codegen.out(self, status, pc, trap)
    self.spill()
    if not self.scoreboard:
        self.emit("timer.cycles += cyc")
    self.emit(f"return (2, {pc}, retired, loops, {trap}, m, hz)")


def _without(emitter, drop):
    """*emitter* (a ``_Codegen`` method) run with its I-cache fetch
    (``fetch``: no access or hit is emitted, and the latency is a
    hit's) or its trap exits' hit credit (``credit``: they return
    before the epilogue) left out."""
    real = getattr(jit._Codegen, emitter)

    def emit(self, *args):
        if drop == "fetch":
            self.fetch = lambda index, pc: (self.bc, self.ml)
        else:
            self.out = lambda *exit: _uncredited(self, *exit)
        try:
            real(self, *args)
        finally:
            del self.__dict__["fetch" if drop == "fetch" else "out"]
    return emit


@pytest.mark.parametrize("drop", ["fetch", "credit"])
def test_detects_ecall_exit_without_its_fetch(mutant, drop):
    """An ecall exit that drops its I-cache fetch (a line head's access
    or a hit) or the exit's hit credit must fail validation."""
    mutant(jit._Codegen, "_emit_ecall",
                        _without("_emit_ecall", drop))
    for engine in ("functional", "pipeline"):
        findings, _ = _transition_findings(engine, True)
        assert findings, f"{engine}: ecall exit without its {drop}"
        assert all(f.where.startswith("mem:0x") for f in findings)


def test_detects_mexitm_commit_before_the_spill(mutant):
    """``mexitm`` committing m27 before the spill lets the spill
    overwrite the committed register: validation must fail."""
    def early_commit(self):
        self.emit("_rset(_mr[26] & 31, _mr[27])")
        self.spill()
        self.reload()

    mutant(jit._Codegen, "commit", early_commit)
    findings, _ = _transition_findings("functional", False)
    assert findings, "mexitm committing before the spill was not detected"
    assert all(f.where.startswith("mram:0x") for f in findings)


# ---------------------------------------------------------------------------
# the scoreboard's inlined entries
# ---------------------------------------------------------------------------

def _mutant_charge(mutate):
    """``_Codegen.charge`` with its keyword arguments rewritten by
    *mutate* (a dict -> None edit)."""
    real = jit._Codegen.charge

    def charge(self, fetch, reads=(0, 0), rd=0, mem=None, is_load=False,
               extra=None, control=None):
        kw = dict(reads=reads, rd=rd, mem=mem, is_load=is_load,
                  extra=extra, control=control)
        mutate(kw)
        real(self, fetch, **kw)
    return charge


def _drop_branch_redirect(kw):
    if kw["control"] == "branch":
        kw["control"] = None


def _load_not_a_load(kw):
    if kw["mem"] == "_l":
        kw["is_load"] = False


def _mexitm_commits_x0(kw):
    if kw["control"] == "mexit":
        kw["rd"] = 0


def _scoreboard_findings(source):
    """Run *source* on the pipeline engine, caches on, and validate
    every compiled block in scoreboard mode."""
    machine = build_metal_machine([], config=MachineConfig(
        engine="pipeline"))
    machine.load_and_run(source, base=CODE_BASE)
    tc = machine.sim.tcache
    assert tc.scoreboard
    return [f for region in tc.iter_regions()
            for f in validate_region(region, tc.line_size, tc.scoreboard)]


@pytest.mark.parametrize("mutate,run,where", [
    (_drop_branch_redirect, lambda: _scoreboard_findings(MEMLOOP), "mem"),
    (_load_not_a_load, lambda: _scoreboard_findings(MEMLOOP), "mem"),
    (_mexitm_commits_x0,
     lambda: _transition_findings("pipeline", True)[0], "mram"),
], ids=["branch_without_redirect", "load_not_a_load", "mexitm_rd_0"])
def test_detects_wrong_scoreboard_report(mutant, mutate, run, where):
    """Scoreboard code that reports an inlined entry wrongly to
    ``note_op`` — a taken branch without its redirect, a load as a
    non-load, an ``mexitm`` committing x0 — fails validation on the
    affected block with an events mismatch; the correct codegen
    validates clean."""
    assert run() == []
    mutant(jit._Codegen, "charge", _mutant_charge(mutate))
    findings = run()
    assert findings, f"{mutate.__name__} was not detected"
    assert all(f.where.startswith(f"{where}:0x") for f in findings)
    assert any("events mismatch" in f.message for f in findings)


#: The loop's backward branch starts its second I-cache line: a line
#: head fetched inside the ``note_run`` of the run before it.
HEAD_BRANCH = """
_start:
    li s0, 30
    j loop
    .align 5
loop:
    addi t1, t1, 1
    addi t2, t2, 3
    xor t3, t1, t2
    slli t4, t1, 2
    add t5, t3, t4
    sub t6, t5, t1
    or a1, t6, t2
    addi s0, s0, -1
    bnez s0, loop
    halt
"""


def test_detects_fused_head_accessed_before_the_run(mutant):
    """Scoreboard code that makes the line-head access of an op it
    reports in a run's ``note_run`` before that call, which accesses the
    run's own heads first, feeds the I-cache out of program order:
    validation fails with an events mismatch; the correct codegen, which
    leaves the access to the call, validates clean."""
    assert _scoreboard_findings(HEAD_BRANCH) == []
    real = jit._Codegen.fetch

    def early_head(self, index, pc):
        if self.fused is None or not self.heads[index]:
            return real(self, index, pc)
        if self.carry_ih:
            self.emit(f"ih += {self.carry_ih}")
            self.carry_ih = 0
        self.emit(f"_f = access({pc})")
        self.tail = [self.fused, None, None]
        self.fused = None
        return "(_f if _f > 1 else 1)", "_f"

    mutant(jit._Codegen, "fetch", early_head)
    findings = _scoreboard_findings(HEAD_BRANCH)
    assert findings, "a fused op's head accessed before the run passed"
    assert all(f.where.startswith("mem:0x") for f in findings)
    assert any("events mismatch" in f.message for f in findings)

# ---------------------------------------------------------------------------
# the compiled intercept terminator
# ---------------------------------------------------------------------------

#: Installs the ``lw`` rule (a0 = spec, a1 = handler entry).
ISETUP = MRoutine(name="isetup", entry=5, source="""
    micept a0, a1
    mexit
""")

#: Emulates the intercepted ``lw``, plus 1000, committed by ``mexitm``.
IEMUL = MRoutine(name="iemul", entry=6, mregs=(12, 13), source="""
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

#: The loop's first ``lw`` heads its block (a line head); the second
#: follows an ``addi`` in the same block (mid-line).
ICEPT_LOOP = """
_start:
    li   a0, 0x503
    li   a1, MR_IEMUL
    menter MR_ISETUP
    li   s2, 0x3000
    li   s0, 6
loop:
    lw   a2, 0(s2)
    addi a3, a3, 1
    lw   a4, 4(s2)
    addi s0, s0, -1
    bnez s0, loop
    halt
"""

ICEPT_MODES = {"uncached": ("functional", False),
               "cached": ("functional", True),
               "scoreboard": ("pipeline", True)}


def _intercept_findings(mode):
    """Run ICEPT_LOOP in codegen *mode* (a broken exit may keep it from
    halting); returns the findings of every compiled block, the sources
    of the intercept blocks and the intercept hits."""
    engine, caches = ICEPT_MODES[mode]
    machine = build_metal_machine(
        [MRoutine(name=r.name, entry=r.entry, source=r.source,
                  mregs=r.mregs) for r in (ISETUP, IEMUL)],
        config=MachineConfig(engine=engine, with_caches=caches))
    machine.load(machine.assemble(ICEPT_LOOP, base=CODE_BASE))
    machine.core.pc = CODE_BASE
    machine.run(max_instructions=2_000, raise_on_limit=False)
    tc = machine.sim.tcache
    regions = list(tc.iter_regions())
    return ([f for region in regions
             for f in validate_region(region, tc.line_size, tc.scoreboard)],
            [b.jit_fn.__jit_source__ for region in regions for b in region
             if b.entries[-1][2] & tcache_mod.F_ICEPT],
            machine.core.metal.intercept.hits)


@pytest.mark.parametrize("mode", sorted(ICEPT_MODES))
def test_intercept_exits_validate_clean(mode):
    """Intercept terminators at a line head and mid-line validate in
    every codegen mode."""
    findings, sources, hits = _intercept_findings(mode)
    assert findings == []
    assert len(sources) >= 2
    assert hits == 12


def _mutant_intercept(drop):
    """``_emit_intercept`` without one of its parts: the fetch (the
    latency charged is then a hit's), the hit credit, the fetch-latency
    charge, or with the epc of its exits one instruction late."""
    if drop in ("fetch", "credit"):
        return _without("_emit_intercept", drop)
    real = jit._Codegen._emit_intercept

    def emit(self, index, word, pc):
        plain = jit._Codegen.emit

        def rewrite(line=""):
            if drop == "charge" and line in ("cyc += _f", "cyc += _ml",
                                             "timer.note_event(_f)",
                                             "timer.note_event(_ml)"):
                return
            if drop == "epc" and line == f"next_pc = {pc}":
                line = f"next_pc = {pc + 4}"
            plain(self, line)
        self.emit = rewrite
        try:
            real(self, index, word, pc)
        finally:
            del self.emit
    return emit


@pytest.mark.parametrize("drop,modes", [
    # Without an I-cache a fetch is only its latency, and nothing is
    # credited: those two mutants leave the uncached code unchanged.
    ("fetch", ("cached", "scoreboard")),
    ("credit", ("cached", "scoreboard")),
    ("charge", ("uncached", "cached", "scoreboard")),
    ("epc", ("uncached", "cached", "scoreboard")),
])
def test_detects_broken_intercept_exit(mutant, drop, modes):
    """An intercept exit that drops its fetch, its hit credit or its
    fetch-latency charge, or leaves with the wrong epc, fails
    validation on its mem block."""
    mutant(jit._Codegen, "_emit_intercept",
                        _mutant_intercept(drop))
    for mode in modes:
        findings, _, _ = _intercept_findings(mode)
        assert findings, f"{mode}: intercept exit without its {drop}"
        assert all(f.where.startswith("mem:0x") for f in findings)


# ---------------------------------------------------------------------------
# the jal a block continues through
# ---------------------------------------------------------------------------

#: The loop's block continues through ``jal ra, leaf`` and the leaf's
#: ``j`` and ends at its ``jalr`` return.  ra starts at the return
#: address, so a codegen that drops the link write still runs the same
#: path.
JUMP_LOOP = """
_start:
    li   ra, ret
    li   s0, 6
loop:
    addi a0, a0, 1
    jal  ra, leaf
ret:
    addi s0, s0, -1
    bnez s0, loop
    halt
leaf:
    addi a1, a1, 2
    j    leaf_ret
    nop
leaf_ret:
    jalr zero, 0(ra)
"""


def _jump_findings(mode):
    """Run JUMP_LOOP in codegen *mode* (one of :data:`ICEPT_MODES`);
    returns the findings of every compiled block and the number of
    compiled ``jal`` entries their blocks continue through."""
    engine, caches = ICEPT_MODES[mode]
    machine = build_metal_machine([], config=MachineConfig(
        engine=engine, with_caches=caches))
    machine.load_and_run(JUMP_LOOP, base=CODE_BASE)
    tc = machine.sim.tcache
    regions = list(tc.iter_regions())
    return ([f for region in regions
             for f in validate_region(region, tc.line_size, tc.scoreboard)],
            sum(1 for region in regions for b in region
                if not tc.is_prefix(b)
                for instr, _pc, flags in b.entries
                if instr.mnemonic == "jal" and not flags & tcache_mod.F_TERM))


@pytest.mark.parametrize("mode", sorted(ICEPT_MODES))
def test_continued_jals_validate_clean(mode):
    findings, continued = _jump_findings(mode)
    assert findings == []
    assert continued >= 2


def _mutant_continued_jal(drop):
    """``_emit_jal`` that, for a ``jal`` its block continues through,
    drops the link write (``link``) or the jump's charge (``charge``:
    the analytic modes' ``jump_penalty``, the scoreboard's ``jal``
    redirect)."""
    real = jit._Codegen._emit_jal

    def emit_jal(self, index, instr, pc, flags):
        if flags & tcache_mod.F_TERM:
            real(self, index, instr, pc, flags)
        elif drop == "link":
            real(self, index, dataclasses.replace(instr, rd=0), pc, flags)
        else:
            charge = self.charge
            self.charge = lambda fetch, **kw: charge(
                fetch, **{**kw, "control": None})
            real(self, index, instr, pc, flags)
            del self.charge
    return emit_jal


@pytest.mark.parametrize("mode", sorted(ICEPT_MODES))
@pytest.mark.parametrize("drop", ("link", "charge"))
def test_detects_broken_continued_jal(mutant, drop, mode):
    """A continued ``jal`` that drops its link write, or charges no jump
    penalty (reports no redirect to the scoreboard), fails validation
    on the loop's mem block."""
    mutant(jit._Codegen, "_emit_jal",
                        _mutant_continued_jal(drop))
    findings, _ = _jump_findings(mode)
    assert findings, f"{mode}: continued jal without its {drop}"
    assert all(f.where.startswith("mem:0x") for f in findings)


# ---------------------------------------------------------------------------
# exhaustiveness: new kinds/mnemonics must fail until taught
# ---------------------------------------------------------------------------

def test_every_ir_kind_has_a_rule():
    kinds = {
        value for name, value in vars(tcache_mod).items()
        if name.startswith("IR_") and isinstance(value, int)
    }
    assert kinds, "no IR kinds found"
    assert set(IR_RULES) == kinds


MULDIV = frozenset(("mul", "mulh", "mulhsu", "mulhu",
                    "div", "divu", "rem", "remu"))


def test_every_alu_mnemonic_has_semantics():
    assert set(IMM_SEM) == set(alu.IMM_OPS)
    assert set(REG_SEM) | MULDIV == set(alu.REG_OPS)
    assert set(BRANCH_SEM) == set(alu.BRANCH_OPS)


# ---------------------------------------------------------------------------
# regions: the edges between members
# ---------------------------------------------------------------------------

#: A loop whose head's branch alternates between two arms, each back to
#: the head: a three-member region whose members' bounds differ.
POLY = """
_start:
    li t0, 40
loop:
    andi t1, t0, 1
    beqz t1, even
odd:
    addi t2, t2, 3
    j next
even:
    addi t5, t5, 5
    slli t6, t5, 1
    xor t3, t6, t5
next:
    addi t0, t0, -1
    bnez t0, loop
    halt
"""


def _poly_findings(engine, caches):
    """Run POLY in one codegen mode and validate every region; the
    program forms a multi-member region."""
    machine = build_metal_machine([], config=MachineConfig(
        engine=engine, with_caches=caches))
    machine.load_and_run(POLY, base=CODE_BASE)
    tc = machine.sim.tcache
    regions = list(tc.iter_regions())
    assert any(len(region) > 1 for region in regions)
    return [f for region in regions
            for f in validate_region(region, tc.line_size, tc.scoreboard)]


def _mutant_edge(rewrite):
    """``_Codegen.edge`` whose admission test line goes through
    *rewrite(self, j, line)*."""
    real = jit._Codegen.edge
    plain = jit._Codegen.emit

    def edge(self, j, cond=None, crossing=False, tested=True):
        self.emit = lambda line="": plain(self, rewrite(self, j, line))
        try:
            real(self, j, cond, crossing, tested)
        finally:
            del self.emit
    return edge


def _no_budget(self, j, line):
    return line.replace(f"retired <= bud{j} and ", "")


def _no_valid(self, j, line):
    return line.replace(f"b{j}.valid and ", "")


def _other_bound(self, j, line):
    other = next(member.starts[-1] for member in self.members
                 if member.starts[-1] != self.members[j].starts[-1])
    return line.replace(f" + {self.members[j].starts[-1]} < hz",
                        f" + {other} < hz")


def _no_code_version(self, j, line):
    return line.replace(" and _mram.code_version == _cv", "")


@pytest.mark.parametrize("mode", sorted(ICEPT_MODES))
def test_regions_validate_clean(mode):
    """A multi-member region, mem members only or mixed with mram ones,
    validates in every codegen mode."""
    assert _poly_findings(*ICEPT_MODES[mode]) == []
    findings, sources = _transition_findings(*ICEPT_MODES[mode])
    assert findings == []
    assert any("elif m == 1:" in source for source in sources)


@pytest.mark.parametrize("mutate,run,where", [
    (_no_budget, lambda: _poly_findings("functional", False), "mem"),
    (_other_bound, lambda: _poly_findings("pipeline", True), "mem"),
    (_no_valid,
     lambda: _transition_findings("functional", True)[0], "m"),
    (_no_code_version,
     lambda: _transition_findings("pipeline", True)[0], "mem"),
], ids=["edge_without_budget", "horizon_with_another_bound",
        "edge_without_valid", "mram_edge_without_code_version"])
def test_detects_broken_region_edge(mutant, mutate, run, where):
    """An edge that drops its budget test, its ``valid`` test or, into
    MRAM, its code-version test, or whose horizon test uses another
    member's last start, fails validation on the member the edge leaves; the
    correct codegen validates clean."""
    assert run() == []
    mutant(jit._Codegen, "edge", _mutant_edge(mutate))
    findings = run()
    assert findings, f"{mutate.__name__} was not detected"
    assert all(f.where.startswith(where) for f in findings)
    assert any("path mismatch" in f.message for f in findings)
