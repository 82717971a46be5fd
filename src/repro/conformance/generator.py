"""Random guest-program generator for differential/conformance fuzzing.

Refactored out of ``tests/test_superblock_differential.py`` so the
MCONF campaign and the lockstep fuzzer share one generator.  With the
default :class:`GenConfig` the generator is **seed-for-seed identical**
to the original in-test generator: it draws exactly the same rng stream
and emits exactly the same program text (golden digests for seeds 0-4
are pinned in ``tests/test_conformance.py``).

Extensions the original generator skipped are gated behind coverage
buckets (``gen:*``), each off by default and consuming rng draws *only*
when enabled, so enabling one never perturbs the base stream of another
seed:

===================  ====================================================
``csr``              CSR reads/writes — illegal on the Metal machine, so
                     they exercise the ILLEGAL_INSTRUCTION delivery path
                     through every fast path (handler skips via m30+4)
``auipc_mem``        ``auipc``-based addressing: loads relative to the
                     current code page rather than the s1 data base
``misalign``         misaligned loads/stores — MISALIGNED_LOAD/STORE
                     trap delivery and skip-resume under tcache/JIT
``unsigned_branch``  chunk terminators comparing against sign-boundary
                     values (``lui t5, 0x80000``) with bltu/bgeu
``divrem``           div/divu/rem/remu, including divide-by-zero
                     and overflow corner semantics
``irq``              a prologue that arms the timer, routes its line to
                     a transparent handler mroutine and enables delivery
                     (``mintc``); the handler re-arms COMPARE at COUNT
                     plus a per-program random delta, so interrupts land
                     at random entry positions of every block
``ecall``            a prologue that routes ECALL to a handler mroutine
                     and picks a pool register; body slots then make
                     ``ecall``s, whose handler reads and writes MRegs,
                     resumes at m30 + 4 and ends in ``mexitm``,
                     committing a running MReg sum into that register
``icept``            a prologue that installs an intercept rule for one
                     (opcode, funct3) the body uses (``lw`` or ``addi``),
                     whose handler emulates the instruction
                     transparently and commits its result with
                     ``mexitm``; body slots then ``menter`` a routine
                     that turns the rule off and on, so dispatches cross
                     rule-set changes
``calls``            ``jal ra, leaf_k`` calls to leaf functions after
                     ``done`` that run a few ALU ops and loads and
                     return through ``jalr zero, 0(ra)``: a block
                     continues through a ``jal`` that links
``switch``           a 3- or 4-way dispatch on a pool register, made
                     once through a ``jalr`` to a computed target (a
                     table of four-instruction cases) and once through
                     a chain of branches: inside the chunk loops, a
                     hot cycle of many linked blocks (MJIT regions)
===================  ====================================================

Programs are always-terminating by construction: forward control flow is
unrestricted, backward branches strictly decrease the s0 budget, every
trap path resumes at the faulting instruction + 4, and mroutines have
budgeted internal loops.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields

from repro import MRoutine
from repro.asm import assemble
from repro.isa.metal_ops import pack_intercept_spec
from repro.isa.opcodes import OP_ALU_IMM, OP_LOAD
from repro.isa.registers import reg_num

CODE_BASE = 0x1000
DATA_BASE = 0x40000          # scratch data region, far from the code pages
DATA_WORDS = 64
RAM_BYTES = 512 * 1024
CHUNK = 97                   # prime: chunk boundaries land mid-block/mid-chain
TOTAL_LIMIT = 40_000         # hard safety net per seed
#: Data-region word ``mloop`` loads and stores (the region's last word).
MLOOP_WORD = DATA_BASE + 4 * (DATA_WORDS - 1)

#: General registers the generator may clobber.  Reserved: s0 (loop
#: budget), s1 (data base), t0 (jalr targets), t4 (SMC addresses),
#: t5/t6 (trap-handler and unsigned-terminator scratch).
REG_POOL = ("a0", "a1", "a2", "a3", "a4", "a5",
            "t1", "t2", "t3", "s2", "s3", "s4", "s5")

ALU_IMM = ("addi", "xori", "ori", "andi", "slti", "sltiu")
ALU_SHIFT = ("slli", "srli", "srai")
ALU_REG = ("add", "sub", "xor", "or", "and", "sll", "srl", "sra",
           "slt", "sltu", "mul", "mulhu")
BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")
LOADS = ("lw", "lh", "lhu", "lb", "lbu")
STORES = ("sw", "sh", "sb")

#: Position-independent single instructions used as SMC patch payloads.
PATCH_SOURCES = (
    "addi a0, a0, 1",
    "addi a1, a1, 3",
    "xori a2, a2, 0x55",
    "andi a3, a3, 0xF0",
    "add  a4, a4, a1",
    "nop",
)

#: Extension instruction pools.
CSR_OPS = ("csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci")
#: CSR numbers probed by the csr extension: the baseline-machine file
#: plus an unimplemented one — all of them trap on the Metal machine.
CSR_NUMS = (0x300, 0x305, 0x340, 0x341, 0x342, 0x343, 0xC00, 0xC02, 0x7C0)
DIVREM = ("div", "divu", "rem", "remu")
MISALIGN_LOADS = ("lw", "lh", "lhu")
MISALIGN_STORES = ("sw", "sh")

#: Mroutine entry numbers (shared with the loader's MR_* symbols).
ENTRY_SPICE = 1
ENTRY_MLOOP = 2
ENTRY_VECSKIP = 3
ENTRY_VECINIT = 4
ENTRY_IRQTICK = 5
ENTRY_IRQINIT = 6
ENTRY_ECALLH = 7
ENTRY_ECALLINIT = 8
ENTRY_ICPTLW = 9
ENTRY_ICPTADDI = 10
ENTRY_ICPTINIT = 11
ENTRY_ICPTTOG = 12

#: Range of the irq extension's timer period, in cycles: long enough
#: for a program to make progress between interrupts (a caches-off
#: fetch costs ``mem_latency``), short enough to take dozens.
IRQ_DELTA = (150, 1500)

#: Chance that a body slot of an ``ecall`` program is an ``ecall``.
ECALL_RATE = 0.1

#: The icept extension's rules: (match spec, handler routine).  Each
#: (opcode, funct3) names one instruction of the generator's body.
ICEPT_RULES = (
    (pack_intercept_spec(OP_LOAD, 2), "ICPTLW"),       # lw
    (pack_intercept_spec(OP_ALU_IMM, 0), "ICPTADDI"),  # addi (li, nop)
)

#: Chance that a body slot of an ``icept`` program toggles the rule.
ICEPT_TOGGLE_RATE = 0.08

#: Chance that a body slot of a program that intercepts ``lw`` is an
#: aligned ``lw`` off s1 (the base body makes one in about 40 slots).
ICEPT_LW_RATE = 0.2

#: Leaf functions of the calls extension.
CALL_LEAVES = 3

#: MRegs the icept routines share: the handlers' t5/t6 spills (m17,
#: m18), whether the rule is on (m19), its spec (m20) and handler entry
#: (m21).
ICEPT_MREGS = (17, 18, 19, 20, 21)


@dataclass(frozen=True)
class GenConfig:
    """Feature weights for the generator's gated extensions.

    Every weight is a probability in ``[0, 1]``; all-zero reproduces the
    original tests/test_superblock_differential.py generator exactly.
    ``ext_rate`` is the fraction of body slots offered to extensions
    when at least one feature weight is positive.
    """

    csr: float = 0.0
    auipc_mem: float = 0.0
    misalign: float = 0.0
    unsigned_branch: float = 0.0
    divrem: float = 0.0
    #: Probability that a program arms the timer (a per-program draw).
    irq: float = 0.0
    #: Probability that a program routes ECALL and makes ecalls (a
    #: per-program draw).
    ecall: float = 0.0
    #: Probability that a program intercepts one instruction and
    #: toggles the rule (a per-program draw).
    icept: float = 0.0
    #: Body-slot weight of a call to a leaf function.
    calls: float = 0.0
    #: Body-slot weight of a switch (a computed jump, then a branch
    #: chain).
    switch: float = 0.0
    ext_rate: float = 0.25

    #: Body-slot features, in weighted-choice order (stable! a new one
    #: goes last, so the programs of existing configs stay the same).
    _BODY_FEATURES = ("csr", "auipc_mem", "misalign", "divrem", "calls",
                      "switch")

    def body_weights(self):
        return tuple((name, getattr(self, name))
                     for name in self._BODY_FEATURES if getattr(self, name) > 0)

    @property
    def extended(self) -> bool:
        """True if any body extension is enabled."""
        return any(w > 0 for _, w in self.body_weights())

    @property
    def needs_traps(self) -> bool:
        """True if the program needs ILLEGAL/MISALIGNED handlers routed."""
        return self.csr > 0 or self.misalign > 0

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "GenConfig":
        return cls(**d)


@dataclass
class GenResult:
    """One generated program plus its generator-side coverage marks."""

    source: str
    #: ``gen:*`` buckets the program actually contains (emission is
    #: probabilistic, so an enabled feature may still not fire).
    gen_buckets: set = field(default_factory=set)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.source.encode()).hexdigest()


def word_of(source: str) -> int:
    """Encode one position-independent instruction to its 32-bit word."""
    return assemble(source, base=0).words()[0]


def routines(config: GenConfig = GenConfig()):
    """Fresh mroutine declarations (the loader mutates them in place).

    ``spice`` exercises MReg traffic and MRAM data loads/stores;
    ``mloop`` has an internal backward branch so MRAM-namespace blocks
    get chained too, then adds the guest-RAM word at ``MLOOP_WORD``
    into its count and stores the sum back, so mram blocks load and
    store guest RAM.  It leaves in a3 the timer cycles that update
    took: a device sync missing before any of its loads changes a3.
    No register keeps an absolute timer value, which a snapshot
    restore would not reproduce (snapshots leave devices alone).  With
    trap-path features enabled, ``vecskip`` (a
    skip-the-faulting-instruction handler) and ``vecinit`` (routes
    ILLEGAL_INSTRUCTION and the misaligned causes to it) ride along.
    """
    spice = MRoutine(name="spice", entry=ENTRY_SPICE, data_words=4,
                     mregs=(10, 11), source="""
        rmr  t0, m10
        add  t0, t0, a0
        wmr  m10, t0
        mst  t0, SPICE_DATA+0(zero)
        mld  t0, SPICE_DATA+0(zero)
        wmr  m11, t0
        xor  a0, a0, t0
        mexit
    """)
    mloop = MRoutine(name="mloop", entry=ENTRY_MLOOP, source=f"""
        andi t0, a1, 7
        addi t0, t0, 2
    spin:
        addi a2, a2, 1
        addi t0, t0, -1
        bnez t0, spin
        li   t0, TIMER_COUNT
        lw   a3, 0(t0)
        li   t0, {MLOOP_WORD}
        lw   t0, 0(t0)
        add  a2, a2, t0
        li   t0, {MLOOP_WORD}
        sw   a2, 0(t0)
        li   t0, TIMER_COUNT
        lw   t0, 0(t0)
        sub  a3, t0, a3
        li   t0, 0
        mexit
    """)
    routines_ = [spice, mloop]
    if config.needs_traps:
        # Skip handler: resume at the faulting instruction + 4 (the
        # delivery default of m31 = m30 retries, which would loop).
        vecskip = MRoutine(name="vecskip", entry=ENTRY_VECSKIP, source="""
            rmr  t6, m30
            addi t6, t6, 4
            wmr  m31, t6
            mexit
        """)
        vecinit = MRoutine(name="vecinit", entry=ENTRY_VECINIT, source="""
            li   t5, MR_VECSKIP
            li   t6, CAUSE_ILLEGAL_INSTRUCTION
            mivec t6, t5
            li   t6, CAUSE_MISALIGNED_LOAD
            mivec t6, t5
            li   t6, CAUSE_MISALIGNED_STORE
            mivec t6, t5
            mexit
        """)
        routines_ += [vecskip, vecinit]
    if config.irq > 0:
        # Transparent timer handler: spill the scratch pair to MRegs,
        # re-arm COMPARE at COUNT + the program's delta, restore.
        irqtick = MRoutine(name="irqtick", entry=ENTRY_IRQTICK,
                           data_words=1, mregs=(12, 13), source="""
            wmr  m12, t5
            wmr  m13, t6
            li   t5, TIMER_COUNT
            lw   t6, 0(t5)
            mld  t5, IRQTICK_DATA(zero)
            add  t6, t6, t5
            li   t5, TIMER_COMPARE
            sw   t6, 0(t5)
            rmr  t6, m13
            rmr  t5, m12
            mexit
        """)
        # Prologue: t6 holds the delta; arm and enable the timer, route
        # its line to irqtick, enable delivery.
        irqinit = MRoutine(name="irqinit", entry=ENTRY_IRQINIT,
                           shared_data=("irqtick",), source="""
            mst  t6, IRQTICK_DATA(zero)
            li   t5, TIMER_COUNT
            lw   t5, 0(t5)
            add  t6, t5, t6
            li   t5, TIMER_COMPARE
            sw   t6, 0(t5)
            li   t5, TIMER_CTRL
            li   t6, 1
            sw   t6, 0(t5)
            li   t5, CAUSE_INTERRUPT_TIMER
            li   t6, MR_IRQTICK
            mivec t5, t6
            li   t6, 1
            mintc t6
            li   t5, 0
            li   t6, 0
            mexit
        """)
        routines_ += [irqtick, irqinit]
    if config.ecall > 0:
        # ECALL handler: spill t6, add a0 + 1 into the running sum in m15,
        # commit the sum into the register the prologue chose (m16)
        # and resume after the ecall.
        ecallh = MRoutine(name="ecallh", entry=ENTRY_ECALLH,
                          mregs=(14, 15), shared_mregs=(16,), source="""
            wmr  m14, t6
            rmr  t6, m15
            add  t6, t6, a0
            addi t6, t6, 1
            wmr  m15, t6
            wmr  m27, t6
            rmr  t6, m16
            wmr  m26, t6
            rmr  t6, m30
            addi t6, t6, 4
            wmr  m31, t6
            rmr  t6, m14
            mexitm
        """)
        # Prologue: t6 holds the destination register's number.
        ecallinit = MRoutine(name="ecallinit", entry=ENTRY_ECALLINIT,
                             shared_mregs=(16,), source="""
            wmr  m16, t6
            li   t5, CAUSE_ECALL
            li   t6, MR_ECALLH
            mivec t5, t6
            li   t5, 0
            li   t6, 0
            mexit
        """)
        routines_ += [ecallh, ecallinit]
    if config.icept > 0:
        routines_ += _icept_routines()
    return routines_


def _icept_routines():
    """The icept extension's mroutines.  The handlers keep every
    register but the intercepted instruction's rd, which ``mexitm``
    sets to the emulated result; a misaligned ``lw`` (which the
    misalign extension makes) is skipped, as ``vecskip`` skips it."""
    # Emulate lw: load from m25 + imm.
    icptlw = MRoutine(name="icptlw", entry=ENTRY_ICPTLW,
                      shared_mregs=ICEPT_MREGS, source="""
        wmr  m17, t5
        wmr  m18, t6
        rmr  t5, m29
        srai t6, t5, 20
        rmr  t5, m25
        add  t5, t5, t6
        andi t6, t5, 3
        bnez t6, skip
        lw   t6, 0(t5)
        wmr  m27, t6
        rmr  t5, m29
        srli t5, t5, 7
        andi t5, t5, 31
        wmr  m26, t5
        rmr  t6, m18
        rmr  t5, m17
        mexitm
    skip:
        rmr  t6, m18
        rmr  t5, m17
        mexit
    """)
    # Emulate addi: m25 plus the immediate.
    icptaddi = MRoutine(name="icptaddi", entry=ENTRY_ICPTADDI,
                        shared_mregs=ICEPT_MREGS, source="""
        wmr  m17, t5
        wmr  m18, t6
        rmr  t5, m29
        srai t6, t5, 20
        rmr  t5, m25
        add  t6, t5, t6
        wmr  m27, t6
        rmr  t5, m29
        srli t5, t5, 7
        andi t5, t5, 31
        wmr  m26, t5
        rmr  t6, m18
        rmr  t5, m17
        mexitm
    """)
    # Prologue: t6 holds the spec, t5 the handler entry.
    icptinit = MRoutine(name="icptinit", entry=ENTRY_ICPTINIT,
                        shared_mregs=ICEPT_MREGS, source="""
        wmr  m20, t6
        wmr  m21, t5
        micept t6, t5
        li   t6, 1
        wmr  m19, t6
        li   t5, 0
        li   t6, 0
        mexit
    """)
    # Turn the rule off if it is on, else on again.
    icpttog = MRoutine(name="icpttog", entry=ENTRY_ICPTTOG,
                       shared_mregs=ICEPT_MREGS, source="""
        wmr  m17, t5
        wmr  m18, t6
        rmr  t5, m20
        rmr  t6, m19
        bnez t6, rule_off
        rmr  t6, m21
        micept t5, t6
        li   t6, 1
        j    toggled
    rule_off:
        miceptd t5
        li   t6, 0
    toggled:
        wmr  m19, t6
        rmr  t6, m18
        rmr  t5, m17
        mexit
    """)
    return [icptlw, icptaddi, icptinit, icpttog]


def generate(rng, config: GenConfig = GenConfig()) -> GenResult:
    """A random, always-terminating guest program.

    Shape: a chain of chunks executed mostly front to back.  Forward
    control flow (jumps, taken/untaken branches, ``jalr`` trampolines)
    is unrestricted; backward branches are guarded by the s0 budget
    counter, which strictly decreases on every backward traversal, so
    the program provably reaches ``done``.
    """
    marks = set()
    n_chunks = rng.randint(6, 12)
    lines = ["_start:"]
    if config.needs_traps:
        lines.append("    menter MR_VECINIT")
        marks.add("gen:vecinit")
    if config.irq > 0 and rng.random() < config.irq:
        lines.append(f"    li   t6, {rng.randint(*IRQ_DELTA)}")
        lines.append("    menter MR_IRQINIT")
        marks.add("gen:irq")
    ecalls = config.ecall > 0 and rng.random() < config.ecall
    if ecalls:
        lines.append(f"    li   t6, {reg_num(rng.choice(REG_POOL))}")
        lines.append("    menter MR_ECALLINIT")
        marks.add("gen:ecall")
    icept = config.icept > 0 and rng.random() < config.icept
    lw_rule = False
    if icept:
        spec, handler = rng.choice(ICEPT_RULES)
        lw_rule = handler == "ICPTLW"
        lines.append(f"    li   t6, {spec}")
        lines.append(f"    li   t5, MR_{handler}")
        lines.append("    menter MR_ICPTINIT")
        marks.add("gen:icept")
    lines += [
        f"    li   s1, {DATA_BASE}",
        f"    li   s0, {rng.randint(24, 60)}",
    ]

    def reg():
        return rng.choice(REG_POOL)

    body_weights = config.body_weights()

    def emit_extension():
        total = sum(w for _, w in body_weights)
        pick = rng.random() * total
        for name, weight in body_weights:
            pick -= weight
            if pick < 0:
                break
        if name == "csr":
            op = rng.choice(CSR_OPS)
            csr = rng.choice(CSR_NUMS)
            operand = rng.randint(0, 31) if op.endswith("i") else reg()
            lines.append(f"    {op} {reg()}, {csr:#x}, {operand}")
            marks.add("gen:csr")
        elif name == "auipc_mem":
            base = reg()
            op = rng.choice(LOADS)
            off = rng.randrange(0, 256, {"lw": 4, "lh": 2, "lhu": 2}.get(op, 1))
            lines.append(f"    auipc {base}, 0")
            lines.append(f"    {op} {reg()}, {off}({base})")
            marks.add("gen:auipc_mem")
        elif name == "misalign":
            if rng.random() < 0.5:
                op = rng.choice(MISALIGN_LOADS)
                step = 4 if op == "lw" else 2
                off = rng.randrange(0, 4 * DATA_WORDS - 4, step) \
                    + rng.randint(1, step - 1)
                lines.append(f"    {op} {reg()}, {off}(s1)")
                marks.add("gen:misalign_load")
            else:
                op = rng.choice(MISALIGN_STORES)
                step = 4 if op == "sw" else 2
                off = rng.randrange(0, 4 * DATA_WORDS - 4, step) \
                    + rng.randint(1, step - 1)
                lines.append(f"    {op} {reg()}, {off}(s1)")
                marks.add("gen:misalign_store")
        elif name == "divrem":
            op = rng.choice(DIVREM)
            lines.append(f"    {op} {reg()}, {reg()}, {reg()}")
            marks.add("gen:divrem")
        elif name == "calls":
            lines.append(f"    jal  ra, leaf_{rng.randrange(CALL_LEAVES)}")
            marks.add("gen:calls")
        else:  # switch
            emit_switch()
            marks.add("gen:switch")

    def alu_imm():
        lines.append(f"    {rng.choice(ALU_IMM)} {reg()}, {reg()}, "
                     f"{rng.randint(-2048, 2047)}")

    def emit_switch():
        """A 3- or 4-way dispatch on ``sel & 3`` (t5 the index, t0 the
        target), once through a ``jalr`` into a table of four-instruction
        cases, then again through a chain of branches.  All forward."""
        tag = f"sw{len(switches)}"
        switches.append(tag)
        ways = rng.choice((3, 4))
        sel = reg()
        lines.append(f"    andi t5, {sel}, 3")
        lines.append("    slli t5, t5, 4")
        lines.append(f"    li   t0, {tag}_cases")
        lines.append("    add  t0, t0, t5")
        lines.append("    jalr zero, 0(t0)")
        lines.append(f"{tag}_cases:")
        for k in range(4):
            if k < ways:
                for _ in range(3):
                    alu_imm()
                lines.append(f"    j    {tag}_join")
            else:
                # Index 3 of a 3-way switch takes case 0.
                lines.append(f"    j    {tag}_cases")
                lines.extend(["    nop"] * 3)
        lines.append(f"{tag}_join:")
        lines.append(f"    andi t5, {sel}, 3")
        for k in range(ways - 1):
            lines.append(f"    beqz t5, {tag}_b{k}")
            lines.append("    addi t5, t5, -1")
        lines.append(f"    j    {tag}_b{ways - 1}")
        for k in range(ways):
            lines.append(f"{tag}_b{k}:")
            for _ in range(rng.randint(1, 3)):
                alu_imm()
            lines.append(f"    j    {tag}_end")
        lines.append(f"{tag}_end:")

    patch_slots = []
    switches = []

    for k in range(n_chunks):
        lines.append(f"chunk_{k}:")
        for _ in range(rng.randint(3, 10)):
            if ecalls and rng.random() < ECALL_RATE:
                lines.append("    ecall")
                continue
            if icept and rng.random() < ICEPT_TOGGLE_RATE:
                lines.append("    menter MR_ICPTTOG")
                continue
            if lw_rule and rng.random() < ICEPT_LW_RATE:
                off = rng.randrange(0, 4 * DATA_WORDS, 4)
                lines.append(f"    lw {reg()}, {off}(s1)")
                continue
            if body_weights and rng.random() < config.ext_rate:
                emit_extension()
                continue
            roll = rng.random()
            if roll < 0.30:
                op = rng.choice(ALU_IMM)
                lines.append(f"    {op} {reg()}, {reg()}, "
                             f"{rng.randint(-2048, 2047)}")
            elif roll < 0.40:
                op = rng.choice(ALU_SHIFT)
                lines.append(f"    {op} {reg()}, {reg()}, {rng.randint(0, 31)}")
            elif roll < 0.58:
                op = rng.choice(ALU_REG)
                lines.append(f"    {op} {reg()}, {reg()}, {reg()}")
            elif roll < 0.64:
                if rng.random() < 0.5:
                    lines.append(f"    lui {reg()}, {rng.randint(0, 0xFFFFF)}")
                else:
                    lines.append(f"    auipc {reg()}, 0")
            elif roll < 0.76:
                op = rng.choice(LOADS)
                off = rng.randrange(0, 4 * DATA_WORDS,
                                    {"lw": 4, "lh": 2, "lhu": 2}.get(op, 1))
                lines.append(f"    {op} {reg()}, {off}(s1)")
            elif roll < 0.88:
                op = rng.choice(STORES)
                off = rng.randrange(0, 4 * DATA_WORDS,
                                    {"sw": 4, "sh": 2}.get(op, 1))
                lines.append(f"    {op} {reg()}, {off}(s1)")
            elif roll < 0.94:
                lines.append(f"    menter MR_{rng.choice(['SPICE', 'MLOOP'])}")
                marks.add("gen:menter")
            else:
                # A patchable slot: executes as written until some later
                # (or earlier!) iteration's store rewrites it in place.
                slot = len(patch_slots)
                patch_slots.append(slot)
                lines.append(f"patch_{slot}:")
                lines.append(f"    addi a5, a5, {rng.randint(0, 15)}")

        # Self-modifying store against a random already-emitted slot.
        if patch_slots and rng.random() < 0.35:
            slot = rng.choice(patch_slots)
            word = word_of(rng.choice(PATCH_SOURCES))
            lines.append(f"    li   t4, patch_{slot}")
            lines.append(f"    li   t0, {word}")
            lines.append("    sw   t0, 0(t4)")
            marks.add("gen:smc")

        # Chunk terminator.
        if (config.unsigned_branch
                and rng.random() < config.unsigned_branch):
            # Sign-boundary unsigned branch: t5 gets its top bit set, so
            # bltu/bgeu and blt/bge would disagree about the outcome.
            nxt = (f"chunk_{rng.randint(k + 1, n_chunks - 1)}"
                   if k + 1 < n_chunks else "done")
            op = rng.choice(("bltu", "bgeu"))
            lines.append(f"    lui  t5, {rng.choice((0x80000, 0xFFFFF))}")
            if rng.random() < 0.5:
                lines.append(f"    {op} t5, {reg()}, {nxt}")
            else:
                lines.append(f"    {op} {reg()}, t5, {nxt}")
            marks.add("gen:unsigned_branch")
            continue
        roll = rng.random()
        nxt = (f"chunk_{rng.randint(k + 1, n_chunks - 1)}"
               if k + 1 < n_chunks else "done")
        if roll < 0.25:
            pass                                     # fall through
        elif roll < 0.45:
            lines.append(f"    j    {nxt}")           # unconditional forward
        elif roll < 0.65 and k > 0:
            # Budget-guarded backward branch: the loop that chaining
            # loves, bounded by s0.
            back = f"chunk_{rng.randint(0, k)}"
            lines.append("    addi s0, s0, -1")
            lines.append(f"    blt  zero, s0, {back}")
        elif roll < 0.85:
            op = rng.choice(BRANCHES)
            lines.append(f"    {op} {reg()}, {reg()}, {nxt}")
        else:
            lines.append(f"    li   t0, {nxt}")       # monomorphic jalr
            lines.append("    jalr zero, 0(t0)")

    lines.append("done:")
    lines.append("    halt")
    if config.calls > 0:
        for k in range(CALL_LEAVES):
            lines.append(f"leaf_{k}:")
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.25:
                    off = rng.randrange(0, 4 * DATA_WORDS, 4)
                    lines.append(f"    lw   {reg()}, {off}(s1)")
                else:
                    op = rng.choice(ALU_IMM)
                    lines.append(f"    {op} {reg()}, {reg()}, "
                                 f"{rng.randint(-2048, 2047)}")
            lines.append("    jalr zero, 0(ra)")
    return GenResult(source="\n".join(lines) + "\n", gen_buckets=marks)


def gen_program(rng, config: GenConfig = GenConfig()) -> str:
    """Program text only (the original in-test generator's interface)."""
    return generate(rng, config).source


def assemble_symbols(config: GenConfig = GenConfig()) -> dict:
    """Symbols needed to assemble a generated program *without* building
    a machine (static coverage measurement): the MR_* entry numbers."""
    return {f"MR_{r.name.upper()}": r.entry for r in routines(config)}


def assemble_words(source: str, config: GenConfig = GenConfig()):
    """Assemble a generated program at CODE_BASE; returns its words."""
    program = assemble(source, base=CODE_BASE,
                       symbols=assemble_symbols(config))
    return program.words()
