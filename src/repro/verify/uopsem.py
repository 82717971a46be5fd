"""Reference block summaries from the shared micro-op IR.

This module is the *semantic reference* side of the translation
validator: it walks a compiled block's decoded entries — the same
``(instr, pc, flags)`` tuples and :func:`uop_ir` results the codegen
consumes — and builds a :class:`Summary` of what a correct tier-2
compilation must do, using an independent transcription of the ISA
semantics (``docs/ISA.md``), the :class:`SimpleTimer` cost model, the
I-cache fetch plan, the pipeline timer's call protocol and the MJIT
calling convention.  It never looks at the generated Python source;
:mod:`repro.verify.pysym` summarises that independently and
:mod:`repro.verify.translate` requires the two to be identical.

Every codegen mode has its reference here, from one rule per entry
kind, and every mode keeps the guest registers in host locals: the
modes differ only in how an entry is charged (:meth:`_Ref.charge`).
*uncached* and *cached* (the analytic timer, with or without an I-cache
fetch plan) add the SimpleTimer cost; *scoreboard* reports runs of
plain entries and mram ``rmr``/``wmr`` through ``timer.note_run`` with
their :func:`_schedule_regs` schedule, and every other inlined entry as
one ``timer.note_op`` event carrying what ``execute()`` reports (fetch
latency, registers read and written, data latency, load or not, EX
extra, redirect kind).  The terminators MJIT
does not inline are an ``execute()`` whose StepInfo goes to
``timer.note``.  The Metal transitions MJIT compiles have their own
rules: a mem block's ``ecall`` (its fetch, then a status-2 exit with an
ECALL trap at the ecall's pc, in every mode), a mem block's intercept
terminator (its fetch, its raw fetch latency — added to the cycles in
the analytic modes, a ``timer.note_event`` in scoreboard mode — then a
status-2 exit with an INTERCEPT trap carrying the word at its pc) and
``mexit``/``mexitm`` (the fetch plus ``mexit_cost``, or a ``note_op``
with the ``mexit`` redirect that for ``mexitm`` reports the register
``m26 & 31`` it commits; ``exit_metal()``'s resume pc; and for
``mexitm`` the commit of m27 into ``x[m26 & 31]`` after the final
spill).  One ``jal`` rule serves the terminating ``jal`` and a ``jal``
the block continues through (an entry without ``F_TERM``): both are
fetched, retired, charged the jump (``jump_penalty``, or a ``note_op``
with the ``jal`` redirect) and write their link register, and only the
terminating one exits.  The reference takes the pc every entry must
have from the entry before it (the next word, or a continued
``jal``'s target), so a block that does not follow its own control
flow is outside the model.

The semantic tables (:data:`IMM_SEM`, :data:`REG_SEM`,
:data:`BRANCH_SEM`, :data:`IR_RULES`) are deliberately exhaustive and
test-asserted against ``repro.cpu.alu`` and the ``IR_*`` kinds: a new
ALU op or IR kind fails the suite until a validator rule exists.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.cpu.exceptions import Cause
from repro.cpu.functional import MASKED
from repro.cpu.tcache import (
    F_CSR, F_ICEPT, F_SYNC, F_TERM, IR_IMM, IR_NOP, IR_REG, IR_SET,
    _schedule_regs, uop_ir,
)
from repro.isa.instruction import InstrClass
from repro.verify import sym as S
from repro.verify.model import Exit, Summary, valid_name

M32 = S.M32
SIGN = S.SIGN

#: METAL mnemonics that stay straight-line inside an mroutine.
PLAIN_METAL = frozenset(("rmr", "wmr", "mld", "mst"))

#: Size of the MRAM data segment: ``mld``/``mst`` offsets at or past it
#: take the BUS_ERROR trap, like misaligned ones.
DATA_BYTES = S.sym("mram.data_bytes")

#: The dispatch's interrupt horizon (the ``hz`` parameter).
HZ = S.sym("hz")

#: Load/store access widths (independent transcription of the ISA).
WIDTHS = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4,
          "sb": 1, "sh": 2, "sw": 4}

#: Sign-extension rule per load: (threshold, or-mask) or None.
SIGN_EXTEND = {"lb": (128, 0xFFFFFF00), "lh": (32768, 0xFFFF0000),
               "lbu": None, "lhu": None, "lw": None}


class UnsupportedBlock(Exception):
    """The reference cannot model this block (MJIT must decline it)."""


def _signed(a):
    """Unsigned expr reinterpreted for a signed comparison."""
    return S.xor(a, SIGN)


def _sra(a, sh):
    """Arithmetic right shift via the sign-fold identity."""
    return S.mask32(S.shr(S.sub(a, S.shl(S.and_(a, SIGN), 1)), sh))


#: Reg-imm ALU semantics: mnemonic -> expr(rs1_value, imm).
IMM_SEM = {
    "addi": lambda a, i: S.mask32(S.add(a, i)),
    "xori": lambda a, i: S.xor(a, i & M32),
    "ori": lambda a, i: S.or_(a, i & M32),
    "andi": lambda a, i: S.and_(a, i & M32),
    "slli": lambda a, i: S.mask32(S.shl(a, i & 31)),
    "srli": lambda a, i: S.shr(a, i & 31),
    "srai": lambda a, i: _sra(a, i & 31),
    "slti": lambda a, i: S.b2i(S.lt(_signed(a), (i & M32) ^ SIGN)),
    "sltiu": lambda a, i: S.b2i(S.lt(a, i & M32)),
}

#: Reg-reg ALU semantics: mnemonic -> expr(rs1_value, rs2_value).
REG_SEM = {
    "add": lambda a, b: S.mask32(S.add(a, b)),
    "sub": lambda a, b: S.mask32(S.sub(a, b)),
    "xor": S.xor,
    "or": S.or_,
    "and": S.and_,
    "sll": lambda a, b: S.mask32(S.shl(a, S.and_(b, 31))),
    "srl": lambda a, b: S.shr(a, S.and_(b, 31)),
    "sra": lambda a, b: _sra(a, S.and_(b, 31)),
    "slt": lambda a, b: S.b2i(S.lt(_signed(a), _signed(b))),
    "sltu": lambda a, b: S.b2i(S.lt(a, b)),
}

#: Branch-taken conditions: mnemonic -> cond(rs1_value, rs2_value).
BRANCH_SEM = {
    "beq": S.eq,
    "bne": S.ne,
    "bltu": S.lt,
    "bgeu": lambda a, b: S.le(b, a),
    "blt": lambda a, b: S.lt(_signed(a), _signed(b)),
    "bge": lambda a, b: S.le(_signed(b), _signed(a)),
}

#: The timing attribute of each inlined control kind's penalty
#: (SimpleTimer); the scoreboard is told the kind itself.
PENALTY = {"branch": "branch_taken_penalty", "jal": "jump_penalty",
           "jalr": "branch_taken_penalty", "mexit": "mexit_cost",
           "menter": "menter_cost"}

#: Validator rule per IR kind; every kind :func:`uop_ir` can emit MUST
#: appear here (test-asserted).  Handlers take (builder, ir).
IR_RULES = {
    IR_NOP: lambda rb, ir: rb._ir_nop(ir),
    IR_IMM: lambda rb, ir: rb._ir_imm(ir),
    IR_REG: lambda rb, ir: rb._ir_reg(ir),
    IR_SET: lambda rb, ir: rb._ir_set(ir),
}

# ---------------------------------------------------------------------------
# region classification (independent transcription of the codegen contract)
# ---------------------------------------------------------------------------

#: The calling convention's parameters an edge reads.
BUDGET = S.sym("budget")
STOP = S.sym("stop")
QUANTUM = S.sym("quantum")
CROSS = S.sym("cross")
#: The MRAM code version an edge into MRAM tests, and the version the
#: region's mram members were built under (bound in its namespace).
MRAM_VERSION = S.sym("mram.code_version")
BUILT_VERSION = S.sym("cv")


@dataclass
class RegionInfo:
    """What the reference derived about the region's compilation shape."""

    tracked: frozenset = frozenset()   # regs living in host locals
    written: frozenset = frozenset()   # subset (re)assigned in the loop
    trapping: bool = False
    has_generic: bool = False          # any execute() dispatch
    has_sync: bool = False             # any RAM load/store (sync prologue)
    looped: bool = False               # some exit continues into a member
    #: No member can invalidate a block, so no edge tests ``valid``.
    quiet: bool = True
    #: The members' validity is loop-carried (a sync, a store, or the
    #: ``mexit`` crossing's re-check can change it).
    valid_carried: bool = False
    #: ``timer.cycles`` moves inside the loop.
    tc_carried: bool = False
    #: Some member sets the horizon (a crossing).
    assigns_hz: bool = False


def _plain(instr, pc: int, flags: int):
    """The entry's IR when it is a plain unit-cost entry, else None."""
    return uop_ir(instr, pc) if not flags else None


def continues(block, members) -> bool:
    """Whether an exit of *block* can continue into one of *members*:
    a static target some member of its namespace starts at, a ``jalr``
    (any member of its namespace), or a Metal transition into a member
    of the other namespace (``ecall``, an intercept terminator or
    ``menter`` into MRAM, ``mexit``/``mexitm`` out of it)."""
    instr, pc, flags = block.entries[-1]
    same = [b.start for b in members if b.mram == block.mram]
    other = [b for b in members if b.mram != block.mram]
    if flags & F_ICEPT:
        return not block.mram and bool(other)
    if not flags & F_TERM:
        return block.end in same
    cls = instr.spec.cls
    if cls is InstrClass.BRANCH:
        return (pc + instr.imm) & M32 in same or (pc + 4) & M32 in same
    if cls is InstrClass.JAL:
        return (pc + instr.imm) & M32 in same
    if cls is InstrClass.JALR:
        return bool(same)
    if instr.mnemonic in ("ecall", "menter"):
        # In place only into MRAM members (so only on a Metal machine).
        return not block.mram and bool(other)
    if instr.mnemonic in ("mexit", "mexitm"):
        return block.mram and bool(other)
    return False


def scan_region(members, scoreboard: bool) -> RegionInfo:
    """Classify every entry of every member exactly as a correct
    compilation must."""
    tracked = set()
    written = set()
    trapping = has_generic = has_sync = commits = crosses = delivers = False
    assigns_hz = False
    has_mem = any(not b.mram for b in members)
    has_mram = any(b.mram for b in members)
    for block in members:
        mem = not block.mram
        for instr, pc, flags in block.entries:
            if flags == F_TERM | F_ICEPT:
                if has_mram:
                    # The delivery latches the word's operand registers.
                    delivers = assigns_hz = True
                    tracked.update(((instr >> 15) & 31, (instr >> 20) & 31))
                continue
            cls = instr.spec.cls
            m = instr.mnemonic
            rd, rs1, rs2 = instr.rd, instr.rs1, instr.rs2
            ir = _plain(instr, pc, flags)
            # (registers the inline code reads, the one it writes or 0)
            if ir is not None:
                kind, ird, a, b, _m = ir
                reads, write = {IR_IMM: ((a,), ird), IR_REG: ((a, b), ird),
                                IR_SET: ((), ird)}.get(kind, ((), 0))
            elif not flags and m in ("rmr", "wmr"):
                reads, write = ((), rd) if m == "rmr" else ((rs1,), 0)
            elif mem and m == "ecall":
                delivers |= has_mram
                assigns_hz |= has_mram
                continue  # the exit reads and writes no register
            elif mem and m == "menter" and has_mram:
                trapping = assigns_hz = True
                continue
            elif flags & F_TERM and cls not in (
                    InstrClass.BRANCH, InstrClass.JAL, InstrClass.JALR) \
                    and (mem or m not in ("mexit", "mexitm")):
                trapping = has_generic = True  # an execute() dispatch
                has_sync |= bool(flags & F_SYNC)
                continue
            elif cls is InstrClass.BRANCH:
                reads, write = (rs1, rs2), 0
            elif cls is InstrClass.JAL:
                reads, write = (), rd
            elif cls is InstrClass.JALR:
                reads, write = (rs1,), rd
            elif cls is InstrClass.MULDIV:
                reads, write = (rs1, rs2), rd
            elif m in ("mexit", "mexitm"):
                commits |= m == "mexitm"
                if has_mem:
                    crosses = assigns_hz = True
                continue
            elif not flags and cls is InstrClass.METAL and m in PLAIN_METAL:
                reads, write = {"mld": ((rs1,), rd),
                                "mst": ((rs1, rs2), 0)}[m]
                trapping = True
            elif cls is InstrClass.LOAD or cls is InstrClass.STORE:
                reads, write = ((rs1,), rd) if cls is InstrClass.LOAD \
                    else ((rs1, rs2), 0)
                trapping = has_sync = True
            else:
                raise UnsupportedBlock(
                    f"flagged non-terminator at {pc:#x} (flags={flags})")
            tracked.update(reads)
            tracked.add(write)
            written.add(write)
    tracked.discard(0)
    written.discard(0)
    if has_generic or commits:
        written |= tracked  # a reload reassigns every local
    return RegionInfo(
        tracked=frozenset(tracked), written=frozenset(written),
        trapping=trapping, has_generic=has_generic, has_sync=has_sync,
        looped=any(continues(block, members) for block in members),
        quiet=not (has_sync or has_generic or crosses),
        valid_carried=has_sync or crosses,
        tc_carried=scoreboard or has_sync or has_generic or delivers,
        assigns_hz=assigns_hz,
    )


def line_heads(block, line_size) -> list:
    """Which of the block's fetches start a new I-cache line: the first,
    and every one whose ``pc // line_size`` differs from the fetch
    before it (none without an I-cache)."""
    heads = []
    prev = None
    for _instr, pc, _flags in block.entries:
        line = None if line_size is None else pc // line_size
        heads.append(line_size is not None and line != prev)
        prev = line
    return heads


# ---------------------------------------------------------------------------
# symbolic machine state
# ---------------------------------------------------------------------------

@dataclass
class RState:
    """One symbolic path through the region."""

    regs: dict = field(default_factory=dict)      # local n -> expr
    regfile: dict = field(default_factory=dict)   # spilled n -> expr
    retired: object = 0
    loops: object = 0
    cyc: object = 0
    ih: object = 0                                # non-head fetches
    epc: object = None
    tc: object = None
    valid: list = field(default_factory=list)     # per member
    horizon: object = None                        # bus.horizon
    hz: object = None                             # the interrupt horizon
    live: object = None                           # hz < MASKED
    next_pc: object = None
    events: list = field(default_factory=list)
    path: list = field(default_factory=list)
    counter: int = 0

    def fork(self, extra=None) -> "RState":
        st = copy.copy(self)
        st.regs = dict(self.regs)
        st.regfile = dict(self.regfile)
        st.valid = list(self.valid)
        st.events = list(self.events)
        st.path = list(self.path)
        if extra is not None:
            st.path.append(extra)
        return st

    def alloc(self, event: tuple) -> int:
        k = self.counter
        self.counter += 1
        self.events.append(event)
        return k

    def invalidate(self, k: int) -> None:
        """Event *k* may have evicted any member."""
        self.valid = [_esym(k, valid_name(j)) for j in range(len(self.valid))]


def _esym(k: int, what: str):
    return S.sym(f"e{k}.{what}")


def _clamp(lat):
    """A fetch's cycles under SimpleTimer: ``lat if lat > 1 else 1``."""
    return S.ite(S.lt(1, lat), lat, 1)


# ---------------------------------------------------------------------------
# the reference builder
# ---------------------------------------------------------------------------

class _Ref:
    def __init__(self, members, line_size, scoreboard: bool):
        self.members = members
        self.line_size = line_size
        self.scoreboard = scoreboard
        self.multi = len(members) > 1
        self.has_mram = any(b.mram for b in members)
        self.info = scan_region(members, scoreboard)
        self.cached_any = line_size is not None and any(
            not b.mram for b in members)
        #: Whether any fetch is a hit the exits credit (the code's ``ih``).
        self.counts_hits = line_size is not None and any(
            not b.mram and not all(line_heads(b, line_size))
            for b in members)
        #: Whether an edge can enter a mem member: the code keeps
        #: ``live = hz < MASKED`` for its horizon tests.
        self.live = self.info.looped and any(not b.mram for b in members)
        self.exits = []
        self.entry = {}
        self.units = 0
        self.fetches = 0
        self.run = []

    def member(self, k: int) -> None:
        block = self.members[k]
        self.k = k
        self.block = block
        self.mem = not block.mram
        self.cached = self.mem and self.line_size is not None
        self.heads = line_heads(block, self.line_size if self.mem else None)
        if self.cached:
            self.ml = S.sym("I.hit_latency")
        else:
            self.ml = S.sym("T.mem_latency" if self.mem else "T.mram_fetch")
        self.bc = _clamp(self.ml)
        self.units = 0
        self.fetches = 0
        self.run = []

    def timing(self, attr: str):
        return S.sym(f"T.{attr}")

    def reg(self, n: int, st: RState):
        if n == 0:
            return 0
        if n not in st.regs:
            raise UnsupportedBlock(f"read of untracked register x{n}")
        return st.regs[n]

    def regfile_default(self, n: int):
        return S.sym(f"R{n}")

    def norm_regfile(self, st: RState) -> tuple:
        return tuple(sorted(
            (n, e) for n, e in st.regfile.items()
            if e != self.regfile_default(n)))

    def spill(self, st: RState) -> None:
        for n in sorted(self.info.tracked):
            st.regfile[n] = st.regs[n]

    def reload(self, st: RState) -> None:
        for n in sorted(self.info.tracked):
            st.regs[n] = st.regfile.get(n, self.regfile_default(n))

    def credit(self, st: RState) -> None:
        """The exit's I-cache hit credit for the non-head fetches."""
        if self.cached_any:
            st.alloc(("ihit", st.ih))

    def record(self, st: RState, kind: str, next_pc=None, trap=None,
               carried=()) -> None:
        returned = kind != "loop"
        self.exits.append(Exit(
            kind=kind, path=tuple(st.path), events=tuple(st.events),
            retired=st.retired, loops=st.loops, tc=st.tc,
            regfile=self.norm_regfile(st), next_pc=next_pc, trap=trap,
            carried=carried, member=self.k,
            left=self.k if returned else None,
            hz=st.hz if returned else None))

    # -- exits ----------------------------------------------------------
    def ret0(self, st: RState) -> None:
        self.spill(st)
        st.tc = S.add(st.tc, st.cyc)
        self.credit(st)
        self.record(st, "ret0", st.next_pc)

    def abort(self, st: RState, resume_pc: int, flush: bool) -> None:
        self.spill(st)
        if flush:
            st.tc = S.add(st.tc, st.cyc)
        self.credit(st)
        self.record(st, "abort", resume_pc)

    def trap(self, st: RState, site: int, lv: int) -> None:
        if not self.info.has_generic or lv:
            self.spill(st)
        st.tc = S.add(st.tc, st.cyc)
        self.credit(st)
        self.record(st, "trap", st.epc, site)

    def trap_exit(self, st: RState, pc: int, cause, info) -> None:
        """The status-2 exit with an unraised trap at *pc*, which the
        engine delivers."""
        self.spill(st)
        st.tc = S.add(st.tc, st.cyc)
        self.credit(st)
        site = st.alloc(("raise", int(cause), info))
        self.record(st, "trap", pc, site)

    def loopback(self, st: RState, j: int) -> None:
        """The edge into member *j*: the loop continues there."""
        info = self.info
        carried = [(f"r{n}", st.regs[n]) for n in sorted(info.written)]
        if not self.scoreboard:
            carried.append(("cyc", st.cyc))
        if info.trapping:
            carried.append(("epc", st.epc))
        if info.valid_carried:
            carried.extend((valid_name(k), v) for k, v in enumerate(st.valid))
        if self.counts_hits:
            carried.append(("ih", st.ih))
        if info.assigns_hz:
            carried.append(("hz", st.hz))
            if self.live:
                carried.append(("live", st.live))
        if self.multi:
            carried.append(("m", j))
        self.record(st, "loop", carried=tuple(sorted(carried)))

    # -- edges ----------------------------------------------------------
    def edge(self, st: RState, j: int, cond=None, crossing: bool = False,
             tested: bool = True) -> None:
        """Fork the edge into member *j* (when *cond*): it is taken when
        the admission rule holds — *j* still valid (unless the region
        is quiet), the budget covering it, no entry of a mem member of a
        multi-member region at ``stop``, ``cycles + starts[-1] < hz``
        (its last entry starting short of the horizon) for a mem member
        while interrupts are deliverable, the chain quantum
        left (not on a crossing), the dispatch crossing (if not yet
        *tested*), and for an edge from a mem member into MRAM the
        unchanged code version.  *st* keeps the path that leaves."""
        target = self.members[j]
        tests = [] if cond is None else [cond]
        if not self.info.quiet:
            tests.append(S.truth(st.valid[j]))
        tests.append(S.le(st.retired, S.add(BUDGET, -len(target.entries))))
        if not target.mram:
            if self.multi:
                tests.append(S.notin(STOP, [pc for _i, pc, _f
                                            in target.entries]))
            tests.append(S.bor(
                S.not_(S.truth(st.live)),
                S.lt(S.add(st.tc, st.cyc, target.starts[-1]), st.hz)))
        if not crossing:
            tests.append(S.lt(st.loops, QUANTUM))
        elif not tested:
            tests.append(S.notnone(CROSS))
        if target.mram and self.mem:
            tests.append(S.eq(MRAM_VERSION, BUILT_VERSION))
        test = S.band(*tests)
        if test is False:
            return
        go = st.fork(test)
        go.loops = S.add(go.loops, 1)
        self.loopback(go, j)
        st.path.append(S.not_(test))

    def leave(self, st: RState, target, dynamic: bool = False) -> None:
        """Leave toward *target* in the member's namespace (a static pc,
        or with *dynamic* an expression): the edges into the members
        that start there, then the status-0 exit."""
        for j, block in enumerate(self.members):
            if block.mram != self.block.mram:
                continue
            if dynamic:
                self.edge(st, j, S.eq(target, block.start))
            elif block.start == target:
                self.edge(st, j)
        st.next_pc = target
        self.ret0(st)

    def cross_into_mram(self, st: RState, tested: bool) -> None:
        """After ``menter`` or a delivery (``next_pc`` the MRAM offset):
        the horizon is masked, then the edges into the mram members and
        the status-0 exit."""
        st.hz = MASKED
        if self.live:
            st.live = False
        for j, block in enumerate(self.members):
            if block.mram:
                self.edge(st, j, S.eq(st.next_pc, block.start),
                          crossing=True, tested=tested)
        self.ret0(st)

    # -- fetches and unit batching ---------------------------------------
    def fetch(self, st: RState, index: int):
        """Entry *index*'s fetch: a line head's in-order I-cache access,
        else a hit-latency fetch counted for the exit's hit credit.
        Returns the clamped fetch cycles and the latency execute() is
        told."""
        if self.heads[index]:
            k = st.alloc(("access", self.block.entries[index][1]))
            lat = _esym(k, "lat")
            return _clamp(lat), lat
        if self.cached:
            st.ih = S.add(st.ih, 1)
        return self.bc, self.ml

    def unit(self, index: int) -> None:
        """One plain entry into the pending batch."""
        self.units += 1
        head = self.heads[index]
        if not head:
            self.fetches += 1
        if self.scoreboard:
            instr, pc, _flags = self.block.entries[index]
            self.run.append((pc if head else None, *_schedule_regs(instr)))
        elif head:
            cost, _lat = self.fetch(self.st, index)
            self.st.cyc = S.add(self.st.cyc, cost)

    def flush_units(self, st: RState) -> None:
        n = self.units
        if not n:
            return
        fetches = self.fetches
        self.units = self.fetches = 0
        if self.scoreboard:
            k = st.alloc(("note_run", tuple(self.run),
                          "access" if self.cached else None, self.bc))
            st.tc = _esym(k, "tc")
            self.run = []
        else:
            st.cyc = S.add(st.cyc, S.mul_const(self.bc, fetches))
        st.retired = S.add(st.retired, n)
        if self.cached:
            st.ih = S.add(st.ih, fetches)

    def charge(self, st: RState, fetch, reads=(0, 0), rd=0, mem=None,
               is_load=False, extra=None, control=None) -> None:
        """Charge one inlined entry, given :meth:`fetch`'s ``(cost,
        latency)``: its SimpleTimer cost (the analytic modes), or a
        ``note_op`` event with what ``execute()`` reports to the
        scoreboard — the registers read and written, the data latency
        *mem* (None: no data access), *is_load*, the EX extra cycles
        (timing attribute *extra*) and the redirect kind *control*."""
        cost, lat = fetch
        extra = 0 if extra is None else self.timing(extra)
        if self.scoreboard:
            k = st.alloc(("note_op", lat, reads[0], reads[1], rd,
                          0 if mem is None else mem, is_load, extra,
                          control))
            st.tc = _esym(k, "tc")
            return
        terms = [cost, extra]
        if control is not None:
            terms.append(self.timing(PENALTY[control]))
        if mem is not None:
            terms.append(self._mem_cost(mem))
        st.cyc = S.add(st.cyc, *terms)

    # -- IR kinds -------------------------------------------------------
    def _ir_nop(self, ir) -> None:
        pass

    def _ir_imm(self, ir) -> None:
        _k, rd, a, imm, m = ir
        if m not in IMM_SEM:
            raise UnsupportedBlock(f"no IMM_SEM rule for {m!r}")
        self.st.regs[rd] = IMM_SEM[m](self.reg(a, self.st), imm)

    def _ir_reg(self, ir) -> None:
        _k, rd, a, b, m = ir
        if m not in REG_SEM:
            raise UnsupportedBlock(f"no REG_SEM rule for {m!r}")
        self.st.regs[rd] = REG_SEM[m](self.reg(a, self.st),
                                      self.reg(b, self.st))

    def _ir_set(self, ir) -> None:
        _k, rd, value, _b, _m = ir
        self.st.regs[rd] = value

    # -- entry kinds ----------------------------------------------------
    def do_muldiv(self, index: int, instr) -> None:
        st = self.st
        m = instr.mnemonic
        if instr.rd:
            st.regs[instr.rd] = S.alu(m, self.reg(instr.rs1, st),
                                      self.reg(instr.rs2, st))
        fetch = self.fetch(st, index)
        st.retired = S.add(st.retired, 1)
        self.charge(st, fetch, (instr.rs1, instr.rs2), instr.rd,
                    extra="div_extra" if m.startswith(("div", "rem"))
                    else "mul_extra")

    def do_rmr(self, index: int, instr) -> None:
        if instr.rd:
            k = self.st.alloc(("mrr", instr.rs1))
            self.st.regs[instr.rd] = _esym(k, "val")
        self.unit(index)

    def do_wmr(self, index: int, instr) -> None:
        self.st.alloc(("mrw", instr.rd, self.reg(instr.rs1, self.st)))
        self.unit(index)

    def do_data_access(self, index: int, instr, pc: int) -> None:
        st = self.st
        fetch = self.fetch(st, index)
        st.epc = pc
        o = S.mask32(S.add(self.reg(instr.rs1, st), instr.imm))
        # Misaligned or outside [0, data size): one fork to BUS_ERROR.
        bad = S.bor(S.truth(S.and_(o, 3)), S.le(DATA_BYTES, o))
        if bad is True:
            site = st.alloc(("raise", int(Cause.BUS_ERROR), o))
            self.trap(st, site, lv=1)
            self.st = None  # statically always-trapping: path ends here
            return
        tr = st.fork(bad)
        site = tr.alloc(("raise", int(Cause.BUS_ERROR), o))
        self.trap(tr, site, lv=1)
        st.path.append(S.not_(bad))
        st.retired = S.add(st.retired, 1)
        if instr.mnemonic == "mld":
            if instr.rd:
                k = st.alloc(("upk", o))
                st.regs[instr.rd] = _esym(k, "val")
            self.charge(st, fetch, (instr.rs1, 0), instr.rd, self.ml,
                        is_load=True)
        else:
            st.alloc(("pk", o, self.reg(instr.rs2, st)))
            self.charge(st, fetch, (instr.rs1, instr.rs2), mem=self.ml)

    def sync_prologue(self, pc: int) -> None:
        st = self.st
        st.tc = S.add(st.tc, st.cyc)
        st.cyc = 0
        k = st.alloc(("sync", st.tc))
        st.invalidate(k)
        st.horizon = _esym(k, "horizon")
        invalid = S.not_(S.truth(st.valid[self.k]))
        ab = st.fork(invalid)
        self.abort(ab, pc, flush=False)
        st.path.append(S.truth(st.valid[self.k]))

    def _mem_cost(self, lat):
        return S.ite(S.lt(1, lat), S.add(lat, -1), 0)

    def access_exit(self, pc: int, store: bool) -> None:
        """After a load or store: the status-1 exit to ``pc + 4`` when a
        store evicted the member or, in a mem member, the access pulled
        the bus horizon below a deliverable interrupt horizon."""
        st = self.st
        tests = []
        if store:
            tests.append(S.not_(S.truth(st.valid[self.k])))
        if self.mem:
            tests.append(S.band(S.lt(st.hz, MASKED), S.lt(st.horizon, st.hz)))
        if not tests:
            return
        cond = S.bor(*tests)
        self.abort(st.fork(cond), pc + 4, flush=True)
        st.path.append(S.not_(cond))

    def do_load(self, index: int, instr, pc: int) -> None:
        self.sync_prologue(pc)
        st = self.st
        fetch = self.fetch(st, index)
        st.epc = pc
        m = instr.mnemonic
        addr = S.mask32(S.add(self.reg(instr.rs1, st), instr.imm))
        k = st.alloc(("read", addr, WIDTHS[m]))
        self.trap(st.fork(), k, lv=1)  # read_mem may raise mid-call
        st.horizon = _esym(k, "horizon")
        val, lat = _esym(k, "val"), _esym(k, "lat")
        ext = SIGN_EXTEND[m]
        if ext is not None:
            threshold, mask = ext
            val = S.ite(S.le(threshold, val), S.or_(val, mask), val)
        if instr.rd:
            st.regs[instr.rd] = val
        st.retired = S.add(st.retired, 1)
        self.charge(st, fetch, (instr.rs1, 0), instr.rd, lat, is_load=True)
        self.access_exit(pc, False)

    def do_store(self, index: int, instr, pc: int) -> None:
        self.sync_prologue(pc)
        st = self.st
        fetch = self.fetch(st, index)
        st.epc = pc
        addr = S.mask32(S.add(self.reg(instr.rs1, st), instr.imm))
        k = st.alloc(("write", addr, WIDTHS[instr.mnemonic],
                      self.reg(instr.rs2, st)))
        self.trap(st.fork(), k, lv=1)  # write_mem may raise mid-call
        st.invalidate(k)
        st.horizon = _esym(k, "horizon")
        st.retired = S.add(st.retired, 1)
        self.charge(st, fetch, (instr.rs1, instr.rs2), mem=_esym(k, "lat"))
        self.access_exit(pc, True)

    def do_dispatch(self, index: int, pc: int, flags: int) -> None:
        """An ``execute()`` whose StepInfo goes to ``timer.note``: the
        terminators MJIT does not inline (CSR, SYSTEM and
        architectural-feature instructions, ``menter`` outside a region
        with mram members, and a mem member's ``mexit``/``mexitm``),
        none of which chains."""
        if flags & F_SYNC:
            self.sync_prologue(pc)
        st = self.st
        if flags & F_CSR:
            st.tc = S.add(st.tc, st.cyc)
            st.cyc = 0
            st.alloc(("latch_tc", st.tc))
            st.alloc(("latch_instret",
                      S.add(S.sym("instret_base"), st.retired)))
        _cost, lat = self.fetch(st, index)
        st.epc = pc
        self.spill(st)
        k = st.alloc(("exec", (self.k, index), pc, lat))
        for n in range(1, 32):
            st.regfile[n] = _esym(k, f"r{n}")
        st.invalidate(k)  # a store may evict a block
        st.horizon = _esym(k, "horizon")
        self.trap(st.fork(), k, lv=0)
        for n in sorted(self.info.tracked):
            st.regs[n] = st.regfile[n]
        st.tc = _esym(st.alloc(("note", k)), "tc")
        st.retired = S.add(st.retired, 1)
        st.next_pc = _esym(k, "next_pc")
        self.ret0(st)

    # -- terminators ----------------------------------------------------
    def deliver(self, st: RState, pc: int, cause, info, entry, operands):
        """The unit's ``deliver``: the event, and the status-2 exit with
        the error a delivery that raises leaves with.  Returns the
        handler offset."""
        k = st.alloc(("deliver", int(cause), pc, info, entry, operands))
        fail = st.fork()
        self.spill(fail)
        self.credit(fail)
        self.record(fail, "trap", pc, k)
        return _esym(k, "pc")

    def do_ecall(self, index: int, pc: int) -> None:
        """A mem member's ``ecall``: fetched (a line head's access, else
        a hit the exit credits), never retired or charged, and the exit
        carries an ECALL trap at *pc* that the engine delivers — or, in
        a region with mram members and a dispatch that may cross, the
        delivery, its redirect and the crossing."""
        st = self.st
        self.fetch(st, index)
        if not any(b.mram for b in self.members):
            self.trap_exit(st, pc, Cause.ECALL, 0)
            return
        self.trap_exit(st.fork(S.isnone(CROSS)), pc, Cause.ECALL, 0)
        st.path.append(S.notnone(CROSS))
        st.tc = S.add(st.tc, st.cyc)
        st.cyc = 0
        st.next_pc = self.deliver(st, pc, Cause.ECALL, 0, None, None)
        st.tc = _esym(st.alloc(("note_trap", True)), "tc")
        self.cross_into_mram(st, tested=True)

    def do_intercept(self, index: int, word: int, pc: int) -> None:
        """An intercepted *word*: fetched (a line head's access, else a
        hit the exit credits) and charged its raw fetch latency as
        ``step()`` charges it — added to the cycles, or reported through
        ``timer.note_event`` in scoreboard mode — never retired, and
        the exit carries an INTERCEPT trap with the word at *pc*, which
        the engine delivers.  In a region with mram members, when the
        dispatch may cross and a rule matches the word: the redirect,
        the delivery with the latched operands, and the crossing."""
        st = self.st
        _cost, lat = self.fetch(st, index)
        if self.scoreboard:
            st.tc = _esym(st.alloc(("note_event", lat)), "tc")
        else:
            st.cyc = S.add(st.cyc, lat)
        if not any(b.mram for b in self.members):
            self.trap_exit(st, pc, Cause.INTERCEPT, word)
            return
        self.trap_exit(st.fork(S.isnone(CROSS)), pc, Cause.INTERCEPT, word)
        st.path.append(S.notnone(CROSS))
        entry = _esym(st.alloc(("match", word)), "entry")
        self.trap_exit(st.fork(S.isnone(entry)), pc, Cause.INTERCEPT, word)
        st.path.append(S.notnone(entry))
        st.tc = S.add(st.tc, st.cyc)
        st.cyc = 0
        st.tc = _esym(st.alloc(("note_intercept",)), "tc")
        operands = (self.reg((word >> 15) & 31, st),
                    self.reg((word >> 20) & 31, st))
        st.next_pc = self.deliver(st, pc, Cause.INTERCEPT, word, entry,
                                  operands)
        self.cross_into_mram(st, tested=True)

    def do_menter(self, index: int, instr, pc: int) -> None:
        """A mem member's ``menter``, in a region with mram members (any
        other is an ``execute()`` dispatch): fetched; the unit's ``enter``
        gives the mroutine's offset, and one that raises (no mroutine
        at the entry) is the illegal-instruction trap at *pc*; retired
        and charged the fetch plus ``menter_cost`` (a ``note_op`` with
        the ``menter`` redirect); then the crossing."""
        st = self.st
        fetch = self.fetch(st, index)
        st.epc = pc
        k = st.alloc(("enter", instr.imm, pc + 4))
        bad = st.fork()
        site = bad.alloc(("raise", int(Cause.ILLEGAL_INSTRUCTION),
                          instr.raw or 0))
        self.trap(bad, site, lv=1)
        st.next_pc = _esym(k, "pc")
        st.retired = S.add(st.retired, 1)
        self.charge(st, fetch, control="menter")
        self.cross_into_mram(st, tested=False)

    def do_mexit(self, index: int, instr) -> None:
        """``mexit``/``mexitm``: the unit's exit gives the resume pc; the
        cost is the fetch plus ``mexit_cost``, or an ``mexit`` redirect
        that tells the scoreboard the register ``mexitm`` commits.
        ``mexitm`` then writes ``x[m26 & 31] := m27`` over the spilled
        register file (x0 stays 0), and the locals are reloaded.  In a
        region with mem members, when the dispatch may cross, the
        crossing re-checks the horizon (``cross()``): None leaves,
        else the edges into the mem members."""
        st = self.st
        commit = instr.mnemonic == "mexitm"
        fetch = self.fetch(st, index)
        st.retired = S.add(st.retired, 1)
        rd = 0
        if commit and self.scoreboard:
            rd = S.and_(_esym(st.alloc(("mrr", 26)), "val"), 31)
        self.charge(st, fetch, rd=rd, control="mexit")
        st.next_pc = _esym(st.alloc(("mexit",)), "pc")
        if commit:
            self.spill(st)
            rd = S.and_(_esym(st.alloc(("mrr", 26)), "val"), 31)
            value = _esym(st.alloc(("mrr", 27)), "val")
            for n in range(1, 32):
                st.regfile[n] = S.ite(S.eq(rd, n), value,
                                      st.regfile.get(
                                          n, self.regfile_default(n)))
            self.reload(st)
        if any(not b.mram for b in self.members):
            self.ret0(st.fork(S.isnone(CROSS)))
            st.path.append(S.notnone(CROSS))
            k = st.alloc(("cross",))
            st.hz = _esym(k, "hz")
            st.invalidate(k)
            self.ret0(st.fork(S.isnone(st.hz)))
            st.path.append(S.notnone(st.hz))
            st.live = S.lt(st.hz, MASKED)
            for j, block in enumerate(self.members):
                if not block.mram:
                    self.edge(st, j, S.eq(st.next_pc, block.start),
                              crossing=True)
        self.ret0(st)

    def do_branch(self, index: int, instr, pc: int) -> None:
        st = self.st
        m = instr.mnemonic
        if m not in BRANCH_SEM:
            raise UnsupportedBlock(f"no BRANCH_SEM rule for {m!r}")
        cond = BRANCH_SEM[m](self.reg(instr.rs1, st),
                             self.reg(instr.rs2, st))
        reads = (instr.rs1, instr.rs2)
        fetch = self.fetch(st, index)
        st.retired = S.add(st.retired, 1)
        if cond is not False:
            taken = st.fork(None if cond is True else cond)
            self.charge(taken, fetch, reads, control="branch")
            self.leave(taken, (pc + instr.imm) & M32)
        if cond is not True:
            fall = st.fork(None if cond is False else S.not_(cond))
            self.charge(fall, fetch, reads)
            self.leave(fall, (pc + 4) & M32)

    def do_jal(self, index: int, instr, pc: int, flags: int) -> None:
        """A ``jal``: fetched, retired, charged the jump and its link
        written; a terminating one then leaves toward its target, and
        one the block continues through (no ``F_TERM``) does not."""
        st = self.st
        target = (pc + instr.imm) & M32
        fetch = self.fetch(st, index)
        st.retired = S.add(st.retired, 1)
        self.charge(st, fetch, rd=instr.rd, control="jal")
        if instr.rd:
            st.regs[instr.rd] = (pc + 4) & M32
        if flags & F_TERM:
            self.leave(st, target)

    def do_jalr(self, index: int, instr, pc: int) -> None:
        st = self.st
        fetch = self.fetch(st, index)
        st.retired = S.add(st.retired, 1)
        self.charge(st, fetch, (instr.rs1, 0), instr.rd, control="jalr")
        # Target reads rs1 before the link write (rd == rs1 is legal).
        t0 = S.and_(S.add(self.reg(instr.rs1, st), instr.imm), 0xFFFFFFFE)
        if instr.rd:
            st.regs[instr.rd] = (pc + 4) & M32
        self.leave(st, t0, dynamic=True)

    # -- whole region ---------------------------------------------------
    def generalize(self, st: RState) -> None:
        info = self.info
        for n in sorted(info.written):
            self.entry[f"L.r{n}"] = st.regs[n]
            st.regs[n] = S.sym(f"L.r{n}")
        names = ["retired", "loops"]
        if not self.scoreboard:
            names.append("cyc")
        if info.trapping:
            names.append("epc")
        if self.counts_hits:
            names.append("ih")
        if info.assigns_hz:
            names.append("hz")
            if self.live:
                names.append("live")
        for name in names:
            self.entry[f"L.{name}"] = getattr(st, name)
            setattr(st, name, S.sym(f"L.{name}"))
        if info.tc_carried:
            self.entry["L.tc"] = st.tc
            st.tc = S.sym("L.tc")
        if info.valid_carried:
            for k, v in enumerate(st.valid):
                name = f"L.{valid_name(k)}"
                self.entry[name] = v
                st.valid[k] = S.sym(name)
            # Every horizon exit reads the value its own access left.
            st.horizon = S.sym("L.horizon")

    def build_member(self, st: RState) -> None:
        """Every exit of the current member from loop-head state *st*."""
        self.st = st
        block = self.block
        # The pc the next entry must have: the one after the entry
        # before it, or that entry's target when it is a jal the block
        # continues through.
        expect = block.start
        for index, entry in enumerate(block.entries):
            if self.st is None:
                return  # a statically-certain trap ended every path
            instr, pc, flags = entry
            if pc != expect:
                raise UnsupportedBlock(
                    f"entry at {pc:#x} does not follow the one before "
                    f"it (expected {expect:#x})")
            expect = (pc + 4) & M32
            if flags == F_TERM | F_ICEPT:
                self.flush_units(self.st)
                self.do_intercept(index, instr, pc)
                return
            cls = instr.spec.cls
            ir = _plain(instr, pc, flags)
            if ir is not None:
                IR_RULES[ir[0]](self, ir)
                self.unit(index)
                continue
            m = instr.mnemonic
            if not flags and m in ("rmr", "wmr"):
                (self.do_rmr if m == "rmr" else self.do_wmr)(index, instr)
                continue
            self.flush_units(self.st)
            if self.mem and m == "ecall":
                self.do_ecall(index, pc)
            elif self.mem and m == "menter" and self.has_mram:
                self.do_menter(index, instr, pc)
            elif cls is InstrClass.BRANCH:
                self.do_branch(index, instr, pc)
            elif cls is InstrClass.JAL:
                self.do_jal(index, instr, pc, flags)
                expect = (pc + instr.imm) & M32
            elif cls is InstrClass.JALR:
                self.do_jalr(index, instr, pc)
            elif cls is InstrClass.MULDIV:
                self.do_muldiv(index, instr)
            elif m in ("mexit", "mexitm") and not self.mem:
                self.do_mexit(index, instr)
            elif m in ("mld", "mst") and not flags:
                self.do_data_access(index, instr, pc)
            elif cls is InstrClass.LOAD and flags == F_SYNC:
                self.do_load(index, instr, pc)
            elif cls is InstrClass.STORE and flags == F_SYNC:
                self.do_store(index, instr, pc)
            elif flags & F_TERM:
                self.do_dispatch(index, pc, flags)
            else:
                raise UnsupportedBlock(
                    f"unexpected entry at {pc:#x} (flags={flags})")
            if flags & F_TERM:
                return
        if self.st is not None:
            # No terminator: the member runs off its last entry.
            self.flush_units(self.st)
            self.leave(self.st, expect)

    def build(self) -> Summary:
        info = self.info
        members = self.members
        st = RState(
            regs={n: S.sym(f"R{n}") for n in info.tracked},
            tc=S.sym("T.cycles0"), horizon=S.sym("H0"), hz=HZ,
            valid=[S.sym("V0" if k == 0 else f"V0.{k}")
                   for k in range(len(members))],
            epc=members[0].start if info.trapping else None,
            live=S.lt(HZ, MASKED),
        )
        if info.looped:
            self.generalize(st)
        for k in range(len(members)):
            self.member(k)
            self.build_member(st.fork())
        return Summary(looped=info.looped, exits=self.exits,
                       entry=self.entry)


def reference_summary(members, line_size=None,
                      scoreboard: bool = False) -> Summary:
    """The summary a correct tier-2 compilation of the region *members*
    (a tuple of blocks, each knowing its namespace) must have, each exit
    tagged with the member it leaves from.

    *line_size* is the I-cache line size mem members fetch through
    (None: no I-cache) and *scoreboard* selects the pipeline timer's
    call protocol.
    """
    return _Ref(tuple(members), line_size, scoreboard).build()
