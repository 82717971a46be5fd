"""MJIT: the tier-2 compiler (regions of blocks → specialized Python).

On the engine's ``step()`` every instruction pays a fetch, a decode,
an ``execute()`` dispatch, a ``StepInfo`` and a timer call.  MJIT
renders a *region* — one block, or a cycle of linked blocks the engine
found a dispatch coming back around (:meth:`repro.cpu.tcache.
TranslationCache.join`), of either namespace — as straight Python source
and ``exec``-compiles it, once per process for each content
(:func:`compile_region`).  A block's function is its one-member region,
compiled at its first dispatch, and so is a prefix block's
(:meth:`repro.cpu.tcache.TranslationCache.prefix`):

* decoded fields, immediates and ALU semantics are baked in as literal
  expressions from the shared micro-op IR
  (:func:`repro.cpu.tcache.uop_ir`), the same IR the translation
  validator checks the generated code against;
* each member's body comes from the per-class emitters, one prologue and
  one epilogue serve the region, and the guest registers stay in host
  locals across members;
* the body is one ``while True:`` loop.  An exit into a member is an
  *edge* (:meth:`_Codegen.edge`): it tests the engine's admission rule
  in place, with only the checks that can fail on that edge, and
  continues the loop at that member (``m`` names it).  Every other exit
  (:meth:`_Codegen.out`), a trap included, sets the ``status``,
  ``next_pc`` and ``trap`` locals and leaves the loop for the one
  epilogue, which spills the register locals, flushes ``cyc``, credits
  the I-cache hits and returns, naming the member it left;
* each member's I-cache fetch plan (:func:`fetch_plan`) is baked in: a
  line head makes a real ``access(pc)``, in program order; every other
  fetch costs the hit latency and is credited to the I-cache's hit count
  in one batch, in the epilogue.

The codegen mode follows from the engine, never from an option (see
docs/PERF.md), and decides only how an entry is charged; one emitter
per entry class serves every mode, and in every mode the guest
registers live in host locals.  With the analytic timer, costs add into
``cyc``, in lockstep with :class:`~repro.cpu.functional.SimpleTimer`
(*uncached*, or *cached* for mem blocks of a core with an I-cache).
With the pipeline scoreboard (*scoreboard*) each run of plain entries
is reported in one ``timer.note_run`` with the run's
:class:`~repro.cpu.pipeline.RunPlan`, which also reports the entry that
ends the run when that entry retires before any exit can read the
cycles: a branch, ``jal``, ``jalr``, muldiv, and in mroutines
``mexit``/``mexitm`` (the plan holds its line head, accessed inside the
call after the run's, and the registers it reads).  Every other inlined
entry (load, store, ``menter`` in a region with mram members, in
mroutines ``mld``/``mst``, and an op no run precedes) makes one
``timer.note_op`` with what ``execute()`` would report.  Only CSR,
SYSTEM and architectural-feature terminators (and any other ``menter``,
a mem block's illegal ``mexit``) stay ``execute()`` entries whose
StepInfo goes to ``timer.note``.  Inside compiled mroutines every
``mld``/``mst`` is a raw ``struct`` access on the MRAM data bytearray
behind the test :meth:`repro.metal.mram.Mram._check_data` makes, so no
site needs a static proof, and every ``rmr``/``wmr`` indexes the MReg
list (:attr:`repro.metal.mregs.MRegFile.values`); in scoreboard mode
they join the plain ``note_run`` runs.

The Metal transitions are compiled too (docs/PERF.md, "Crossings" and
"Regions"): in a region with mram members ``menter`` calls the unit's
``enter()`` (an entry with no mroutine is the illegal-instruction trap
``execute()`` raises); ``mexit``/``mexitm`` call the unit's
``exit_metal()`` and charge the fetch plus ``mexit_cost`` (the ``mexit``
redirect, and for ``mexitm`` the register it commits, in scoreboard
mode), and ``mexitm`` commits ``m27`` into ``x[m26 & 31]``
over the spilled register file.  A mem block's ``ecall`` is fetched and
leaves with status 2 and an ECALL trap that is never raised, and its
intercept terminator (``F_ICEPT``) is fetched, charges its raw fetch
latency as ``step()`` does and leaves the same way with an INTERCEPT
trap carrying the word, which the engine delivers.  In a region with
members in the other namespace, and while the dispatch may cross, a
region makes the crossing itself: the ECALL or intercept delivery
through the unit's own ``deliver`` (a subclass's override included; a
delivery that raises leaves with status 2 and the error), then the edges
into the mram members; after ``mexit``, the engine's ``_mem_horizon``
re-check (``cross``), whose None leaves the region, then the edges into
the mem members.

Calling convention (every mode and namespace)::

    status, next_pc, retired, edges, trap, m, hz = jit_fn(
        core, m, timer, sync, instret_base, budget, stop, hz, quantum,
        cross)

* ``status == 0`` — normal exit; ``next_pc`` is the successor pc.
* ``status == 1`` — aborted: a member was invalidated mid-trace (DMA
  during a sync, or the trace's own store — SMC; only mem blocks can
  be), or in a mem member a load or store pulled the bus horizon below
  *hz*; ``next_pc`` is the resume pc and no stale entry was executed.
* ``status == 2`` — trap: ``next_pc`` is the faulting pc (epc), ``trap``
  the :class:`TrapException` (raised inside the code, or for a mem
  block's ``ecall`` or intercept terminator an unraised one) or the
  ``MetalError`` a delivery raised — the caller only dispatches.

Whatever the status, the epilogue has spilled the registers, flushed
``timer.cycles`` and credited the I-cache hits.

The argument ``m`` is the member the call enters at (the entry block's
``index``), and the returned ``m`` the member the region left, which
the engine chains from.  *budget* is the instructions the dispatch may
still retire, *stop* its normal-mode stop pc (-1: none), *hz* the
interrupt horizon of the entry's namespace (the bus horizon while
interrupts are deliverable, else ``MASKED``, above every horizon;
returned as it stands after any crossing), *quantum* the chain
transitions the dispatch may still make, and *cross* the engine's
``_mem_horizon`` when the dispatch may cross namespaces (a Metal machine
with no profile sink), else None.  An edge into member ``j`` tests, in
this order: ``j`` is still valid (only in a region some member of which
can invalidate a block: an evicted member drops its region from every
member); ``retired <= bud<j>``, the prologue's ``budget - len(j)``;
``stop`` is not an entry of ``j`` (a mem member of a multi-member
region); ``cycles + j.starts[-1] < hz`` while interrupts are deliverable
(``live``, the prologue's ``hz < MASKED``; a mem member); the chain
quantum (not on a crossing); ``cross`` (``menter``'s crossing); and,
from a mem member into MRAM, ``mram.code_version`` is the version the
region was built under.  ``retired`` counts instructions retired inside
the call and ``edges`` the edges taken (chain transitions the caller
credits to ``chain_hits``).  The compiled code updates ``timer.cycles``
(or calls the timer) itself, and the caller passes ``instret_base`` so
CSR reads inside the trace can latch an exact ``core.instret``.
"""

from __future__ import annotations

import struct

from repro.cpu import alu
from repro.cpu.exceptions import Cause, TrapException
from repro.cpu.executor import _mem_width, execute
from repro.cpu.functional import MASKED
from repro.errors import MetalError
from repro.cpu.tcache import (
    F_CSR,
    F_ICEPT,
    F_SYNC,
    F_TERM,
    IR_IMM,
    IR_NOP,
    IR_REG,
    IR_SET,
    _schedule_regs,
    fetch_plan,
    uop_ir,
)
from repro.cpu.pipeline import RunPlan
from repro.isa.instruction import InstrClass

_M = 0xFFFFFFFF
_WORD = struct.Struct("<I")

#: Shared exec namespace: semantics helpers the generated code may call.
#: Everything else (operands, immediates, widths, costs) is baked into
#: the source as literals; per-block instruction objects are added as
#: ``_i<k>`` for the entries that keep generic ``execute()`` dispatch.
_BASE_NS = {
    "execute": execute,
    "TrapException": TrapException,
    "CAUSE_BUS_ERROR": Cause.BUS_ERROR,
    "CAUSE_ILLEGAL": Cause.ILLEGAL_INSTRUCTION,
    "MetalError": MetalError,
    # The trap a mem block's ``ecall`` returns with status 2.  It is
    # never raised, so it has no traceback and one instance serves.
    "_ecall": TrapException(Cause.ECALL, 0),
    "_upk": _WORD.unpack_from,
    "_pk": _WORD.pack_into,
}
for _name, _fn in alu.REG_OPS.items():
    _BASE_NS["_op_" + _name] = _fn
del _name, _fn

#: Timing-model attributes the generated prologue may hoist into locals,
#: keyed by the local name used in the source.
_TIMING_LOCALS = {
    "_bt": "branch_taken_penalty",
    "_jp": "jump_penalty",
    "_dx": "div_extra",
    "_mx": "mul_extra",
    "_mxc": "mexit_cost",
    "_mec": "menter_cost",
}

#: The analytic modes' penalty local for each control kind MJIT inlines
#: (the scoreboard gets the kind itself).
_PENALTY = {"branch": "_bt", "jal": "_jp", "jalr": "_bt", "mexit": "_mxc",
            "menter": "_mec"}

#: Classes whose emitter retires the entry before any exit, so the
#: plain entries flushed before it retire in the same statement, and in
#: scoreboard mode are reported in the same ``note_run`` (as are those
#: before an mram member's ``mexit``/``mexitm``).
_CARRY_CLASSES = frozenset((InstrClass.BRANCH, InstrClass.JAL,
                            InstrClass.JALR, InstrClass.MULDIV))


def _imm_rhs(m: str, a: str, imm: int) -> str:
    """RHS expression for a reg-imm ALU op (semantics of alu.IMM_OPS)."""
    if m == "addi":
        return f"({a} + {imm}) & 4294967295"
    if m == "xori":
        return f"{a} ^ {imm & _M}"
    if m == "ori":
        return f"{a} | {imm & _M}"
    if m == "andi":
        return f"{a} & {imm & _M}"
    if m == "slli":
        return f"({a} << {imm & 31}) & 4294967295"
    if m == "srli":
        return f"{a} >> {imm & 31}"
    if m == "srai":
        return (f"(({a} - (({a} & 2147483648) << 1)) >> {imm & 31})"
                f" & 4294967295")
    if m == "slti":
        return f"+(({a} ^ 2147483648) < {(imm & _M) ^ 0x80000000})"
    if m == "sltiu":
        return f"+({a} < {imm & _M})"
    raise KeyError(m)


def _reg_rhs(m: str, a: str, b: str) -> str:
    """RHS expression for a reg-reg ALU op (semantics of alu.REG_OPS)."""
    if m == "add":
        return f"({a} + {b}) & 4294967295"
    if m == "sub":
        return f"({a} - {b}) & 4294967295"
    if m == "xor":
        return f"{a} ^ {b}"
    if m == "or":
        return f"{a} | {b}"
    if m == "and":
        return f"{a} & {b}"
    if m == "sll":
        return f"({a} << ({b} & 31)) & 4294967295"
    if m == "srl":
        return f"{a} >> ({b} & 31)"
    if m == "sra":
        return (f"(({a} - (({a} & 2147483648) << 1)) >> ({b} & 31))"
                f" & 4294967295")
    if m == "slt":
        return f"+(({a} ^ 2147483648) < ({b} ^ 2147483648))"
    if m == "sltu":
        return f"+({a} < {b})"
    raise KeyError(m)


def _branch_cond(m: str, a: str, b: str) -> str:
    """Condition expression matching alu.BRANCH_OPS semantics."""
    if m == "beq":
        return f"{a} == {b}"
    if m == "bne":
        return f"{a} != {b}"
    if m == "bltu":
        return f"{a} < {b}"
    if m == "bgeu":
        return f"{a} >= {b}"
    if m == "blt":
        return f"({a} ^ 2147483648) < ({b} ^ 2147483648)"
    if m == "bge":
        return f"({a} ^ 2147483648) >= ({b} ^ 2147483648)"
    raise KeyError(m)


class _Codegen:
    """One region → one Python source string (+ its exec namespace).

    A region is a tuple of member blocks, one or a cycle of linked
    blocks, possibly of both namespaces.  Each member's body comes from
    the per-class emitters; an exit into a member is an *edge*, which
    tests the engine's admission rule in place and continues the
    function's loop at that member (see :meth:`edge`), and every other
    exit leaves the loop for the one epilogue (see :meth:`out`)."""

    def __init__(self, members, line_size, scoreboard: bool):
        self.members = members
        self.line_size = line_size
        self.scoreboard = scoreboard
        self.multi = len(members) > 1
        self.has_mem = any(not block.mram for block in members)
        self.has_mram = any(block.mram for block in members)
        #: Whether fetches go through an I-cache model (the mem members
        #: of a core with one).
        self.cached_any = line_size is not None and self.has_mem
        #: What the source needs bound besides :data:`_BASE_NS` and a
        #: machine's own members and MRAM version
        #: (:func:`compile_region` binds those): instruction objects,
        #: schedules and intercept traps.
        self.ns = {}
        #: Members an edge enters: the prologue binds ``bud<j>``, the
        #: budget left once member ``j`` has run.
        self.budgets = set()
        self.lines = []
        self.indent = 1
        self.tracked = set()        # guest regs living in host locals
        self.timing_needs = set()   # local names from _TIMING_LOCALS
        self.generic = []           # (key, member, index) per execute()
        self.trapping = False
        #: Whether no member can invalidate a block: then no edge tests
        #: ``valid`` (the region is dropped with any evicted member).
        self.quiet = True
        self.uses_me = False
        self.run = []               # scoreboard: pending run schedule
        self.schedules = 0          # scoreboard: runs bound so far
        #: Scoreboard: the schedule of the run the next op's charge
        #: reports along, and from the op's fetch on :meth:`fetch`'s
        #: ``tail``.
        self.fused = None
        self.tail = None

    def member(self, k: int) -> None:
        """Emit member *k* from now on: its namespace, fetch plan and
        fetch-latency locals, with empty batches."""
        block = self.members[k]
        self.k = k
        self.block = block
        self.mem = not block.mram
        #: Whether this member's fetches go through the I-cache model.
        self.cached = self.mem and self.line_size is not None
        self.heads = fetch_plan(block.entries,
                                self.line_size if self.mem else None)
        self.bc, self.ml = ("bc", "_ml") if self.mem else ("bm", "_mm")
        self.units = 0              # pending retirements of plain entries
        self.fetches = 0            # pending non-head fetches among them
        #: Flushed retirements and non-head fetches not yet emitted: the
        #: next entry's own ``retired +=`` (:meth:`retire`) and ``ih +=``
        #: (:meth:`fetch`) take them along, or :meth:`settle` emits them
        #: before an exit.
        self.carry = 0
        self.carry_ih = 0
        self.run = []

    # -- emission helpers ------------------------------------------------
    def emit(self, line: str = "") -> None:
        self.lines.append(("    " * self.indent + line) if line else "")

    def reg(self, n: int) -> str:
        """Source for guest register *n*: a literal 0 for x0, else its
        host local."""
        return f"r{n}" if n else "0"

    def flush_units(self, carry: bool = False) -> None:
        """Retire the pending plain entries: one ``note_run`` with their
        schedule (scoreboard), or their batched fetch cost.  Their hit
        count goes to the next entry's fetch, and with *carry* (that
        entry retires before any exit can read ``retired``) their
        retirements to its :meth:`retire`, and in scoreboard mode their
        schedule to its charge, which reports run and op in one call."""
        n = self.units
        if not n:
            return
        fetches = self.fetches
        self.units = self.fetches = 0
        if self.scoreboard:
            if carry:
                self.fused = self.run
            else:
                self.note_run(self.bind_run(self.run))
            self.run = []
        if carry:
            self.carry = n
        else:
            self.emit(f"retired += {n}")
        if fetches and not self.scoreboard:
            self.emit(f"cyc += {self.bc}" if fetches == 1
                      else f"cyc += {fetches} * {self.bc}")
        if fetches and self.cached:
            self.carry_ih = fetches

    def settle(self) -> None:
        """Emit the carried counts: an exit follows."""
        if self.carry:
            self.emit(f"retired += {self.carry}")
            self.carry = 0
        if self.carry_ih:
            self.emit(f"ih += {self.carry_ih}")
            self.carry_ih = 0

    def retire(self) -> None:
        """Retire one inlined entry, with the retirements carried to it."""
        self.emit(f"retired += {1 + self.carry}")
        self.carry = 0

    def unit(self, index: int, instr, pc: int) -> None:
        """Account one plain entry into the pending batch."""
        self.units += 1
        head = self.heads[index]
        if not head:
            self.fetches += 1
        if self.scoreboard:
            self.run.append((pc if head else None, *_schedule_regs(instr)))
        elif head:
            self.emit(f"_f = access({pc})")
            self.emit("cyc += _f if _f > 1 else 1")

    def fetch(self, index: int, pc: int):
        """Emit the fetch of a non-plain entry.  Returns source for its
        clamped cycle cost and for the latency ``execute()`` is told.
        In scoreboard mode after a run, the entry's charge reports the
        run along (:attr:`tail`: the run, the entry's line head or None,
        and the plan's name once bound), and a line head is accessed
        inside that call: latency None."""
        head = self.heads[index]
        if self.cached and (self.carry_ih or not head):
            # A non-head fetch counts with the carried ones.
            self.emit(f"ih += {self.carry_ih + (0 if head else 1)}")
            self.carry_ih = 0
        run, self.fused = self.fused, None
        self.tail = None
        if run is not None:
            self.tail = [run, pc if head else None, None]
            return None, "None" if head else self.ml
        if head:
            self.emit(f"_f = access({pc})")
            return "(_f if _f > 1 else 1)", "_f"
        return self.bc, self.ml

    def note_run(self, key: str, op: str = "") -> None:
        """Emit the ``note_run`` of the run bound as *key*, with the
        arguments *op* of the op fused after it."""
        access = "access" if self.cached else "None"
        self.emit(f"note_run({key}, {access}, {self.bc}{op})")

    def bind_run(self, schedule, op=None) -> str:
        """Bind a run's schedule, with the plan of its closed form and
        of the *op* reported after it (:class:`~repro.cpu.pipeline.
        RunPlan`), in the namespace; returns the name."""
        key = f"_q{self.schedules}"
        self.schedules += 1
        self.ns[key] = RunPlan(schedule, op)
        return key

    def spill(self) -> None:
        for n in sorted(self.tracked):
            self.emit(f"regs[{n}] = r{n}")

    def reload(self) -> None:
        for n in sorted(self.tracked):
            self.emit(f"r{n} = regs[{n}]")

    def out(self, status: int = 0, pc=None, trap=None) -> None:
        """An exit: set ``status`` and ``trap`` (unless the prologue's 0
        and None) and ``next_pc`` (unless already set, *pc* None), and
        leave the loop for the epilogue."""
        if status:
            self.emit(f"status = {status}")
        if pc is not None:
            self.emit(f"next_pc = {pc}")
        if trap is not None:
            self.emit(f"trap = {trap}")
        self.emit("break")

    def access_exit(self, pc: int, store: bool) -> None:
        """After the load or store at *pc*: escape to ``pc + 4`` when a
        store evicted this member (SMC) or, in a mem member, the access
        pulled the bus horizon below the interrupt horizon ``hz`` (an
        armed timer, a fault injected from inside an MMIO access)."""
        tests = []
        if store:
            tests.append(f"not b{self.k}.valid")
        if self.mem:
            tests.append(f"hz < {MASKED} and _bus.horizon < hz")
        if not tests:
            return
        self.emit(f"if {' or '.join(tests)}:")
        self.indent += 1
        self.out(1, pc + 4)
        self.indent -= 1

    def charge(self, fetch, reads=(0, 0), rd=0, mem=None, is_load=False,
               extra=None, control=None) -> None:
        """Charge one inlined entry, given :meth:`fetch`'s ``(cost,
        latency)`` pair: its SimpleTimer cost into ``cyc`` (analytic
        modes), or one ``note_op`` with what ``execute()`` would report
        to the scoreboard.  *reads* and *rd* are the registers it reads
        and writes (source text, 0 for none), *mem* the source of its
        data latency (``_l`` after a load or store, ``_mm`` for an MRAM
        data access), *extra* its EX-extra timing local and *control*
        its redirect kind.  After a run, the scoreboard's ``note_run``
        reports the run and this entry (no data access) in one call."""
        cost, lat = fetch
        if extra:
            self.timing_needs.add(extra)
        if self.tail is not None:
            run, head, key = self.tail
            if key is None:
                key = self.tail[2] = self.bind_run(run, (head, *reads))
            self.note_run(key, f", {lat}, {rd}, {extra or 0}, {control!r}")
            return
        if self.scoreboard:
            self.emit(f"note_op({lat}, {reads[0]}, {reads[1]}, {rd}, "
                      f"{mem or 0}, {is_load}, {extra or 0}, {control!r})")
            return
        terms = [cost]
        if extra:
            terms.append(extra)
        if control is not None:
            penalty = _PENALTY[control]
            self.timing_needs.add(penalty)
            terms.append(penalty)
        if mem == "_mm":
            terms.append("_me")   # the prologue's ``_mm - 1`` clamp
            self.uses_me = True
        rhs = " + ".join(terms)
        if mem == "_l":
            self.emit("if _l > 1:")
            self.emit(f"    cyc += {rhs} + _l - 1")
            self.emit("else:")
            self.emit(f"    cyc += {rhs}")
        else:
            self.emit(f"cyc += {rhs}")

    # -- edges and exits -------------------------------------------------
    def edge(self, j: int, cond=None, crossing: bool = False,
             tested: bool = True) -> None:
        """An edge into member *j* (when *cond*, a target compare, holds):
        the engine's admission rule, tested in place, with only the
        checks that can fail here, then the loop continues at *j*.

        The checks, in this order: *j* is still valid (unless the region
        is quiet); the remaining budget covers it (``retired <=
        bud<j>``, the prologue's ``budget - len(j)``); it has no entry at
        ``stop`` (a mem member of a multi-member region: the one member
        of a one-member region was admitted with the same ``stop``); its
        last entry starts short of the horizon, ``cycles + starts[-1] <
        hz``, while interrupts are deliverable
        (``live``; a mem member; Metal mode is never interruptible); the
        chain quantum is not used up (a *crossing*, made only with no profile sink
        attached, has no quantum); the dispatch may cross namespaces
        (unless already *tested*); and an edge into MRAM from a mem
        member makes the lazy ``code_version`` test."""
        target = self.members[j]
        tests = [] if cond is None else [cond]
        if not self.quiet:
            tests.append(f"b{j}.valid")
        self.budgets.add(j)
        tests.append(f"retired <= bud{j}")
        if not target.mram:
            if self.multi:
                pcs = ", ".join(str(pc) for _i, pc, _f in target.entries)
                tests.append(f"stop not in {{{pcs}}}")
            now = "timer.cycles" if self.scoreboard else "timer.cycles + cyc"
            tests.append(f"(not live or {now} + {target.starts[-1]} < hz)")
        if not crossing:
            tests.append("loops < quantum")
        elif not tested:
            tests.append("cross is not None")
        if target.mram and self.mem:
            tests.append("_mram.code_version == _cv")
        self.emit(f"if {' and '.join(tests)}:")
        self.indent += 1
        if j != self.k:
            self.emit(f"m = {j}")
        self.emit("loops += 1")
        self.emit("continue")
        self.indent -= 1

    def leave(self, target) -> None:
        """Leave the member toward *target* in its own namespace: a
        static pc, or the name of the local holding a dynamic one.  An
        edge into each member that starts there comes first."""
        for j, block in enumerate(self.members):
            if block.mram != self.block.mram:
                continue
            if isinstance(target, str):
                self.edge(j, f"{target} == {block.start}")
            elif block.start == target:
                self.edge(j)
        self.out(pc=target)

    def cross_into_mram(self, tested: bool) -> None:
        """After ``menter`` or a delivery (``next_pc`` the MRAM offset):
        the edges into the mram members, then the exit."""
        self.emit(f"hz = {MASKED}")
        if self.has_mem:
            self.emit("live = False")
        for j, block in enumerate(self.members):
            if block.mram:
                self.edge(j, f"next_pc == {block.start}", crossing=True,
                          tested=tested)
        self.out()

    def deliver(self, pc: int, cause: int, info, entry, operands) -> None:
        """The Metal unit's own ``deliver`` (a subclass's override
        included) into the mroutine; a delivery that raises (an
        unrouted cause) leaves with status 2 and the error, which the
        engine raises.  ``cyc`` is flushed."""
        self.emit("try:")
        self.emit(f"    next_pc = _deliver({cause}, {pc}, {info}, {entry}, "
                  f"{operands})")
        self.emit("except MetalError as _x:")
        self.indent += 1
        self.out(2, pc, "_x")
        self.indent -= 1

    def flush_cyc(self) -> None:
        if not self.scoreboard:
            self.emit("timer.cycles += cyc")
            self.emit("cyc = 0")

    # -- scan pass -------------------------------------------------------
    def scan(self) -> None:
        """Classify every entry: the registers the inline code touches
        (host locals), whether any may trap, and
        whether any can invalidate a block."""
        track = set()
        for block in self.members:
            mem = not block.mram
            for instr, pc, flags in block.entries:
                if flags & F_ICEPT:
                    if self.has_mram:
                        # The delivery latches the word's operands.
                        track.update(((instr >> 15) & 31, (instr >> 20) & 31))
                    continue
                ir = None if flags else uop_ir(instr, pc)
                if ir is not None:
                    kind, rd, a, b, _m = ir
                    if kind == IR_IMM:
                        track.update((rd, a))
                    elif kind == IR_REG:
                        track.update((rd, a, b))
                    elif kind == IR_SET:
                        track.add(rd)
                    continue
                cls = instr.spec.cls
                m = instr.mnemonic
                if m == "rmr" and not flags:
                    track.add(instr.rd)
                elif m == "wmr" and not flags:
                    track.add(instr.rs1)
                elif mem and m == "ecall":
                    pass  # delivered, or leaves with the unraised trap
                elif mem and m == "menter" and self.has_mram:
                    self.trapping = True  # an entry with no mroutine
                elif cls is InstrClass.BRANCH:
                    track.update((instr.rs1, instr.rs2))
                elif cls is InstrClass.JAL:
                    track.add(instr.rd)
                elif cls is InstrClass.JALR:
                    track.update((instr.rs1, instr.rd))
                elif cls is InstrClass.MULDIV:
                    track.update((instr.rd, instr.rs1, instr.rs2))
                elif m in ("mexit", "mexitm") and not mem:
                    # The crossing re-check may flush the mem blocks.
                    if self.has_mem:
                        self.quiet = False
                elif cls is InstrClass.LOAD or (m == "mld" and not flags):
                    # A guest-RAM load, or a raw MRAM data access behind
                    # the segment check: either may trap.
                    self.trapping = True
                    self.quiet &= cls is not InstrClass.LOAD
                    track.update((instr.rs1, instr.rd))
                elif cls is InstrClass.STORE or (m == "mst" and not flags):
                    self.trapping = True
                    self.quiet &= cls is not InstrClass.STORE
                    track.update((instr.rs1, instr.rs2))
                else:
                    self.trapping = True  # an execute() dispatch
                    self.quiet = False
        track.discard(0)
        self.tracked = track

    # -- body emission ---------------------------------------------------
    def emit_entry(self, index: int, entry) -> None:
        instr, pc, flags = entry
        if flags & F_ICEPT:
            self.flush_units()
            self._emit_intercept(index, instr, pc)
            return
        ir = None if flags else uop_ir(instr, pc)
        if ir is not None:
            self._emit_ir(ir)
            self.unit(index, instr, pc)
            return
        cls = instr.spec.cls
        m = instr.mnemonic
        if m == "rmr" and not flags:
            if instr.rd:
                self.emit(f"{self.reg(instr.rd)} = _mr[{instr.rs1}]")
            self.unit(index, instr, pc)
        elif m == "wmr" and not flags:
            self.emit(f"_mr[{instr.rd}] = {self.reg(instr.rs1)}")
            self.unit(index, instr, pc)
        elif self.mem and m == "ecall":
            self.flush_units()
            self._emit_ecall(index, pc)
        elif self.mem and m == "menter" and self.has_mram:
            self.flush_units()
            self._emit_menter(index, instr, pc)
        else:
            mexit = m in ("mexit", "mexitm") and not self.mem
            # These retire before any exit: the batch's count goes along.
            self.flush_units(carry=mexit or cls in _CARRY_CLASSES)
            if cls is InstrClass.BRANCH:
                self._emit_branch(index, instr, pc)
            elif cls is InstrClass.JAL:
                self._emit_jal(index, instr, pc, flags)
            elif cls is InstrClass.JALR:
                self._emit_jalr(index, instr, pc)
            elif cls is InstrClass.MULDIV:
                self._emit_muldiv(index, instr, pc)
            elif mexit:
                self._emit_mexit(index, instr, pc)
            elif m in ("mld", "mst") and not flags:
                self._emit_data_access(index, instr, pc)
            elif cls is InstrClass.LOAD:
                self._emit_load(index, instr, pc)
            elif cls is InstrClass.STORE:
                self._emit_store(index, instr, pc)
            else:
                self._emit_dispatch(index, instr, pc, flags)

    def _emit_ir(self, ir) -> None:
        kind, rd, a, b, m = ir
        if kind == IR_NOP:
            return  # still retired + costed via the unit batch
        if kind == IR_IMM:
            rhs = _imm_rhs(m, self.reg(a), b)
        elif kind == IR_REG:
            rhs = _reg_rhs(m, self.reg(a), self.reg(b))
        else:  # IR_SET
            rhs = str(a)
        self.emit(f"{self.reg(rd)} = {rhs}")

    def _emit_muldiv(self, index: int, instr, pc: int) -> None:
        m = instr.mnemonic
        if instr.rd:
            self.emit(f"{self.reg(instr.rd)} = _op_{m}"
                      f"({self.reg(instr.rs1)}, {self.reg(instr.rs2)})")
        fetch = self.fetch(index, pc)
        self.retire()
        self.charge(fetch, (instr.rs1, instr.rs2), instr.rd,
                    extra="_dx" if m.startswith(("div", "rem")) else "_mx")

    def _emit_ecall(self, index: int, pc: int) -> None:
        """A mem member's ``ecall``: its fetch, then the status-2 exit
        with the unraised ECALL trap, which the engine delivers; in a
        region with mram members, the delivery instead, when the
        dispatch may cross, and the crossing."""
        self.fetch(index, pc)
        if not self.has_mram:
            self.out(2, pc, "_ecall")
            return
        self.emit("if cross is None:")
        self.indent += 1
        self.out(2, pc, "_ecall")
        self.indent -= 1
        self.flush_cyc()
        self.deliver(pc, int(Cause.ECALL), 0, None, None)
        self.emit("timer.note_trap(True)")
        self.cross_into_mram(tested=True)

    def _emit_intercept(self, index: int, word: int, pc: int) -> None:
        """An intercepted *word*: its fetch, the raw fetch latency as
        ``step()`` charges it, then the status-2 exit with the member's
        unraised INTERCEPT trap, which the engine delivers; in a region
        with mram members, when the dispatch may cross and a rule
        matches, the redirect, the delivery with the latched operands
        and the crossing instead."""
        _cost, lat = self.fetch(index, pc)
        if self.scoreboard:
            self.emit(f"timer.note_event({lat})")
        else:
            self.emit(f"cyc += {lat}")
        key = f"_icept{self.k}"
        self.ns[key] = TrapException(Cause.INTERCEPT, word)
        if not self.has_mram:
            self.out(2, pc, key)
            return
        self.emit("if cross is None:")
        self.indent += 1
        self.out(2, pc, key)
        self.indent -= 1
        self.emit(f"_e = _match({word})")
        self.emit("if _e is None:")
        self.indent += 1
        self.out(2, pc, key)
        self.indent -= 1
        self.flush_cyc()
        self.emit("timer.note_intercept()")
        operands = (f"({self.reg((word >> 15) & 31)}, "
                    f"{self.reg((word >> 20) & 31)})")
        self.deliver(pc, int(Cause.INTERCEPT), word, "_e", operands)
        self.cross_into_mram(tested=True)

    def _emit_menter(self, index: int, instr, pc: int) -> None:
        """``menter`` in a region with mram members: the Metal unit's
        ``enter()`` gives the mroutine's offset at the fetch plus
        ``menter_cost`` (a ``note_op`` with the ``menter`` redirect); an
        entry with no mroutine is the illegal instruction ``execute()``
        makes it.  Then the crossing."""
        fetch = self.fetch(index, pc)
        self.emit(f"epc = {pc}")
        self.emit("try:")
        self.emit(f"    next_pc = _enter({instr.imm}, {pc + 4})")
        self.emit("except MetalError:")
        self.emit(f"    raise TrapException(CAUSE_ILLEGAL, {instr.raw or 0})")
        self.retire()
        self.charge(fetch, control="menter")
        self.cross_into_mram(tested=False)

    def _emit_mexit(self, index: int, instr, pc: int) -> None:
        """``mexit``/``mexitm``: the Metal unit's ``exit_metal()`` gives
        the resume pc, at the fetch plus ``mexit_cost`` (the scoreboard
        is told the register ``mexitm`` commits).  ``mexitm`` commits
        over the spilled register file, and the locals are reloaded.  In
        a region with mem members, when the dispatch may cross, the
        crossing re-checks the engine's ``_mem_horizon`` (``cross``);
        None leaves the region."""
        commit = instr.mnemonic == "mexitm"
        fetch = self.fetch(index, pc)
        self.retire()
        self.charge(fetch, rd="_mr[26] & 31" if commit else 0,
                    control="mexit")
        self.emit("next_pc = _exit()")
        if commit:
            self.commit()
        if self.has_mem:
            self.emit("if cross is not None:")
            self.indent += 1
            self.emit("hz = cross()")
            self.emit("if hz is not None:")
            self.indent += 1
            self.emit(f"live = hz < {MASKED}")
            for j, block in enumerate(self.members):
                if not block.mram:
                    self.edge(j, f"next_pc == {block.start}", crossing=True)
            self.indent -= 2
        self.out()

    def commit(self) -> None:
        """``mexitm``'s commit of m27 into ``x[m26 & 31]``: over the
        spilled register file, then the locals are reloaded."""
        self.spill()
        self.emit("_rset(_mr[26] & 31, _mr[27])")
        self.reload()

    def _sync_prologue(self, pc: int) -> None:
        """Flush + device sync + invalidation escape (loads/stores)."""
        self.settle()
        self.flush_cyc()
        self.emit("sync()")
        self.emit(f"if not b{self.k}.valid:")
        self.indent += 1
        self.out(1, pc)
        self.indent -= 1

    def _emit_load(self, index: int, instr, pc: int) -> None:
        m = instr.mnemonic
        width = _mem_width(m)
        self._sync_prologue(pc)
        fetch = self.fetch(index, pc)
        self.emit(f"epc = {pc}")
        self.emit(f"_v, _l = read_mem(({self.reg(instr.rs1)} + {instr.imm})"
                  f" & 4294967295, {width})")
        if m == "lb":
            self.emit("if _v >= 128:")
            self.emit("    _v |= 4294967040")
        elif m == "lh":
            self.emit("if _v >= 32768:")
            self.emit("    _v |= 4294901760")
        if instr.rd:
            self.emit(f"{self.reg(instr.rd)} = _v")
        self.retire()
        self.charge(fetch, (instr.rs1, 0), instr.rd, "_l", is_load=True)
        self.access_exit(pc, False)

    def _emit_store(self, index: int, instr, pc: int) -> None:
        width = _mem_width(instr.mnemonic)
        self._sync_prologue(pc)
        fetch = self.fetch(index, pc)
        self.emit(f"epc = {pc}")
        self.emit(f"_l = write_mem(({self.reg(instr.rs1)} + {instr.imm})"
                  f" & 4294967295, {width}, {self.reg(instr.rs2)})")
        self.retire()
        self.charge(fetch, (instr.rs1, instr.rs2), mem="_l")
        self.access_exit(pc, True)

    def _emit_data_access(self, index: int, instr, pc: int) -> None:
        """mld/mst: the data-segment check, then a raw word access."""
        fetch = self.fetch(index, pc)
        self.emit(f"epc = {pc}")
        self.emit(f"_o = ({self.reg(instr.rs1)} + {instr.imm}) & 4294967295")
        self.emit("if _o & 3 or _o >= _dn:")
        self.emit("    raise TrapException(CAUSE_BUS_ERROR, _o)")
        if instr.mnemonic == "mld":
            if instr.rd:
                self.emit(f"{self.reg(instr.rd)} = _upk(data, _o)[0]")
            self.retire()
            self.charge(fetch, (instr.rs1, 0), instr.rd, "_mm", is_load=True)
        else:
            self.emit(f"_pk(data, _o, {self.reg(instr.rs2)})")
            self.retire()
            self.charge(fetch, (instr.rs1, instr.rs2), mem="_mm")

    def _emit_dispatch(self, index: int, instr, pc: int, flags: int) -> None:
        """An ``execute()`` whose StepInfo goes to ``timer.note``: the
        terminators MJIT does not inline (CSR, SYSTEM and
        architectural-feature instructions, ``menter`` outside a region
        with mram members, and a mem member's ``mexit``/``mexitm``),
        none of which chains."""
        if flags & F_SYNC:
            self._sync_prologue(pc)
        key = f"_i{self.k}_{index}"
        self.ns[key] = instr
        self.generic.append((key, self.k, index))
        if flags & F_CSR:
            # Publish cycles and instret for the CSR read.
            self.flush_cyc()
            self.emit("core._timer_cycles = timer.cycles")
            self.emit("core.instret = instret_base + retired")
        _cost, lat = self.fetch(index, pc)
        self.emit(f"epc = {pc}")
        self.spill()
        if self.tracked:
            self.emit("_lv = 0")
        self.emit(f"_s = execute(core, {key}, {pc}, fetch_latency={lat})")
        self.reload()
        if self.tracked:
            self.emit("_lv = 1")
        self.emit("note(_s)")
        self.retire()
        self.out(pc="_s.next_pc")

    # -- inlined terminators --------------------------------------------
    def _emit_branch(self, index: int, instr, pc: int) -> None:
        taken = (pc + instr.imm) & _M
        fall = (pc + 4) & _M
        reads = (instr.rs1, instr.rs2)
        cond = _branch_cond(instr.mnemonic, self.reg(instr.rs1),
                            self.reg(instr.rs2))
        fetch = self.fetch(index, pc)
        self.retire()
        self.emit(f"if {cond}:")
        self.indent += 1
        self.charge(fetch, reads, control="branch")
        self.leave(taken)
        self.indent -= 1
        self.emit("else:")
        self.indent += 1
        self.charge(fetch, reads)
        self.leave(fall)
        self.indent -= 1

    def _emit_jal(self, index: int, instr, pc: int, flags: int) -> None:
        """A ``jal``: its fetch, charge and link write, then its exit; a
        ``jal`` the block continues through (no ``F_TERM``) has none."""
        target = (pc + instr.imm) & _M
        fetch = self.fetch(index, pc)
        self.retire()
        self.charge(fetch, rd=instr.rd, control="jal")
        if instr.rd:
            self.emit(f"{self.reg(instr.rd)} = {(pc + 4) & _M}")
        if flags & F_TERM:
            self.leave(target)

    def _emit_jalr(self, index: int, instr, pc: int) -> None:
        fetch = self.fetch(index, pc)
        self.retire()
        self.charge(fetch, (instr.rs1, 0), instr.rd, control="jalr")
        # Target reads rs1 before the link write (rd == rs1 is legal).
        self.emit(f"_t0 = ({self.reg(instr.rs1)} + {instr.imm}) & 4294967294")
        if instr.rd:
            self.emit(f"{self.reg(instr.rd)} = {(pc + 4) & _M}")
        self.leave("_t0")

    # -- whole-function assembly ----------------------------------------
    def generate(self) -> str:
        members = self.members
        self.scan()
        scored = self.scoreboard

        # Body first (into a side buffer) so the prologue can hoist
        # exactly what the body turned out to need.
        head_lines, self.lines = self.lines, []
        if self.trapping:
            self.emit("try:")
            self.indent += 1
        self.emit("while True:")
        self.indent += 1
        for k, block in enumerate(members):
            if self.multi:
                self.emit("if m == 0:" if k == 0
                          else "else:" if k == len(members) - 1
                          else f"elif m == {k}:")
                self.indent += 1
            self.member(k)
            for index, entry in enumerate(block.entries):
                self.emit_entry(index, entry)
            if not block.entries[-1][2] & F_TERM:
                # No terminator: the member runs off its last entry.
                self.flush_units()
                self.settle()
                self.leave(block.end)
            if self.multi:
                self.indent -= 1
        self.indent -= 1
        if self.trapping:
            # A trap leaves for the epilogue too, with a copy of the
            # handler's name, which Python unbinds as the handler ends.
            self.indent -= 1
            self.emit("except TrapException as _x:")
            self.emit("    status = 2")
            self.emit("    next_pc = epc")
            self.emit("    trap = _x")
        # The epilogue.  Locals are truth for inlined code, but a trap
        # from inside a generic execute() must NOT spill: the registers
        # were spilled before the call and execute() may have already
        # mutated them.
        if self.generic and self.tracked:
            self.emit("if _lv:")
            self.indent += 1
            self.spill()
            self.indent -= 1
        else:
            self.spill()
        if not scored:
            self.emit("timer.cycles += cyc")
        if self.cached_any:
            # The non-head fetches' hits, in one batch.
            self.emit("_ist.hits += ih")
        self.emit("return (status, next_pc, retired, loops, trap, m, hz)")
        body, self.lines = self.lines, head_lines

        # Prologue.
        self.indent = 0
        self.emit("def _jit(core, m, timer, sync, instret_base, budget, "
                  "stop, hz, quantum, cross):")
        self.indent = 1
        self.emit("regs = core.regs")
        self.emit("timing = timer.timing")
        if self.has_mem:
            self.emit("_ml = core.icache.hit_latency" if self.cached_any
                      else "_ml = timing.mem_latency")
            self.emit("bc = _ml if _ml > 1 else 1")
        if self.has_mram:
            self.emit("_mm = timing.mram_fetch")
            self.emit("bm = _mm if _mm > 1 else 1")
        if self.cached_any:
            self.emit("access = core.icache.access")
            self.emit("_ist = core.icache.stats")
        body_text = "\n".join(body)
        if "note(" in body_text:
            self.emit("note = timer.note")
        if "note_run(" in body_text:
            self.emit("note_run = timer.note_run")
        if "note_op(" in body_text:
            self.emit("note_op = timer.note_op")
        if self.uses_me:
            self.emit("_me = _mm - 1 if _mm > 1 else 0")
        for name in sorted(self.timing_needs):
            self.emit(f"{name} = timing.{_TIMING_LOCALS[name]}")
        if "_bus.horizon" in body_text:
            self.emit("_bus = core.bus")
        if "read_mem(" in body_text:
            self.emit("read_mem = core.read_mem")
        if "write_mem(" in body_text:
            self.emit("write_mem = core.write_mem")
        if "_mr[" in body_text:
            self.emit("_mr = core.metal.mregs.values")
        if "_exit()" in body_text:
            self.emit("_exit = core.metal.exit_metal")
        if "_rset(" in body_text:
            self.emit("_rset = core.rset")
        if "(data, _o" in body_text:
            self.emit("data = core.metal.mram.data")
        if "_o >= _dn" in body_text:
            self.emit("_dn = core.metal.mram.data_bytes")
        if "_deliver(" in body_text:
            self.emit("_deliver = core.metal.deliver")
        if "_match(" in body_text:
            self.emit("_match = core.metal.intercept.match")
        if "_enter(" in body_text:
            self.emit("_enter = core.metal.enter")
        if "_mram.code_version" in body_text:
            self.emit("_mram = core.metal.mram")
        for k in range(len(members)):
            if f"b{k}.valid" in body_text:
                self.emit(f"b{k} = _b{k}")
        for j in sorted(self.budgets):
            self.emit(f"bud{j} = budget - {len(members[j].entries)}")
        if "not live" in body_text:
            self.emit(f"live = hz < {MASKED}")
        self.reload()
        self.emit("retired = 0")
        self.emit("loops = 0")
        if not scored:
            self.emit("cyc = 0")
        if self.cached_any:
            self.emit("ih = 0")
        if self.trapping:
            self.emit(f"epc = {members[0].start}")
        if self.generic and self.tracked:
            self.emit("_lv = 1")
        self.emit("status = 0")
        self.emit("trap = None")
        self.lines.extend(body)
        return "\n".join(self.lines) + "\n"


#: Generated regions by content (:func:`_content_key`), shared by every
#: translation cache in the process: ``(source, code object, namespace
#: template, generic entries)``.  A region's source is a pure function of
#: the codegen mode and the member attributes the key holds, so a machine
#: running code another machine already ran (a fresh machine per job, a
#: shard restoring a capsule) generates and compiles nothing.  The
#: template holds what :class:`_Codegen` bound (instruction objects,
#: schedules, intercept traps) and never a block or a machine, so a dead
#: machine's garbage stays small.  The table is cleared when full.
_REGIONS = {}
_REGIONS_MAX = 1024


def _content_key(members, line_size, scoreboard: bool) -> tuple:
    """The codegen mode and, per member, every block attribute
    :class:`_Codegen` reads: ``start``, ``end``, ``mram``,
    ``chainable``, ``starts[-1]`` and the entries as ``(raw word, pc,
    flags)``."""
    return (line_size, scoreboard, tuple(
        (block.start, block.end, block.mram, block.chainable,
         block.starts[-1],
         tuple((instr if flags & F_ICEPT else instr.raw, pc, flags)
               for instr, pc, flags in block.entries))
        for block in members))


def compile_region(members, line_size, scoreboard: bool, version=None):
    """Tier-2 compile the region *members* (a tuple of blocks of either
    namespace, see :meth:`repro.cpu.tcache.TranslationCache.join`).

    *line_size* is the I-cache line size the mem members' fetches go
    through (None: no I-cache), *scoreboard* selects code that feeds
    the pipeline timer instead of adding the analytic timer's costs,
    and *version* is the MRAM code version the mram members were built
    under (an edge into MRAM tests it).  The source is generated once
    per content (:data:`_REGIONS`); each call binds only this machine's
    members as ``_b<k>``, their ``execute()`` entries' instruction
    objects, and with mram members the version as ``_cv``.
    """
    key = _content_key(members, line_size, scoreboard)
    region = _REGIONS.get(key)
    if region is None:
        gen = _Codegen(members, line_size, scoreboard)
        source = gen.generate()
        head = members[0]
        ns_label = "mram" if head.mram else "mem"
        code = compile(source, f"<mjit:{ns_label}:{head.start:#x}>", "exec")
        if len(_REGIONS) >= _REGIONS_MAX:
            _REGIONS.clear()
        region = _REGIONS[key] = (source, code, gen.ns, tuple(gen.generic))
    source, code, template, generic = region
    ns = dict(_BASE_NS)
    ns.update(template)
    for k, block in enumerate(members):
        ns[f"_b{k}"] = block
    for name, k, index in generic:
        ns[name] = members[k].entries[index][0]
    if any(block.mram for block in members):
        # The MRAM code version the mram members were built under.
        ns["_cv"] = version
    exec(code, ns)
    fn = ns.pop("_jit")
    fn.__jit_source__ = source
    return fn
