"""MJIT: the tier-2 compiler (blocks → specialized Python).

On the engine's ``step()`` every instruction pays a fetch, a decode,
an ``execute()`` dispatch, a ``StepInfo`` and a timer call.  At a
block's first dispatch MJIT renders the block as straight Python source
and ``exec``-compiles it once:

* decoded fields, immediates and ALU semantics are baked in as literal
  expressions from the shared micro-op IR
  (:func:`repro.cpu.tcache.uop_ir`), the same IR the translation
  validator checks the generated code against;
* the invalidation guards are hoisted out of the instruction stream,
  and a trace whose terminator targets its own head internalises the
  loop (bounded by the caller's iteration limit);
* the block's I-cache fetch plan (:func:`fetch_plan`) is baked in: a
  line head makes a real ``access(pc)``, in program order; every other
  fetch costs the hit latency and is credited to the I-cache's hit count
  in one batch at every exit.

The codegen mode follows from the engine, never from an option (see
docs/PERF.md), and decides only where guest registers live and how an
entry is charged; one emitter per entry class serves every mode.  With
the analytic timer, guest registers live in host locals and costs add
into ``cyc``, in lockstep with
:class:`~repro.cpu.functional.SimpleTimer` (*uncached*, or *cached* for
mem blocks of a core with an I-cache).  With the pipeline scoreboard
(*scoreboard*) the registers stay in ``core.regs``, each run of plain
entries ends in one ``timer.note_run`` with the run's schedule, and
every other inlined entry (branch, ``jal``, ``jalr``, muldiv, load,
store, and in mroutines ``mld``/``mst`` and ``mexit``/``mexitm``) makes
one ``timer.note_op`` with what ``execute()`` would report.  Only CSR,
SYSTEM and architectural-feature terminators and ``menter`` (and a mem
block's illegal ``mexit``) stay ``execute()`` entries whose StepInfo
goes to ``timer.note``.  Inside compiled mroutines every
``mld``/``mst`` is a raw ``struct`` access on the MRAM data bytearray
behind the test :meth:`repro.metal.mram.Mram._check_data` makes, so no
site needs a static proof, and every ``rmr``/``wmr`` indexes the MReg
list (:attr:`repro.metal.mregs.MRegFile.values`); in scoreboard mode
they join the plain ``note_run`` runs.

The Metal transitions are compiled too, so the engine can chain across
them (docs/PERF.md, "Crossings"): a mem block's ``ecall`` is fetched
and leaves with status 2 and an ECALL trap that is never raised (every
mode); a mem block's intercept terminator (``F_ICEPT``) is fetched,
charges its raw fetch latency as ``step()`` does (``timer.note_event``
in scoreboard mode) and leaves the same way with an INTERCEPT trap
carrying the word, bound once per block as ``_icept``; and
``mexit``/``mexitm`` call the Metal unit's own ``exit_metal()`` and
charge the fetch plus ``mexit_cost`` (a ``note_op`` with the ``mexit``
redirect, and for ``mexitm`` the register it commits, in scoreboard
mode); ``mexitm`` commits ``m27`` into ``x[m26 & 31]`` after the final
spill.

Calling convention (every mode and namespace)::

    status, next_pc, retired, loops, trap = jit_fn(
        core, block, timer, sync, instret_base, limit, hz)

* ``status == 0`` — normal exit; ``next_pc`` is the successor pc.
* ``status == 1`` — aborted: the block was invalidated mid-trace (DMA
  during a sync, or the trace's own store — SMC; only mem blocks can
  be), or in a mem block a load or store pulled the bus horizon below
  *hz*; ``next_pc`` is the resume pc and no stale entry was executed.
* ``status == 2`` — trap: ``next_pc`` is the faulting pc (epc), ``trap``
  the :class:`TrapException` (raised inside the code, or for a mem
  block's ``ecall`` or intercept terminator an unraised one); registers
  are already spilled and ``timer.cycles`` flushed — the caller only
  dispatches.

*hz* is the dispatch's interrupt horizon: the bus horizon while
interrupts are deliverable, else ``MASKED``, above every horizon.
*limit* bounds the internalised self-loop iterations after the first,
and the guard at the back edge is only ``loops < limit``: the engine
admits the first run and counts its admission rule in further runs (the
chain quantum left, the runs the remaining budget covers, and while
interrupts are deliverable the runs that end short of *hz* at
``block.bound`` cycles each), so the loop never overshoots the budget
and no entry boundary it runs can reach a deliverable interrupt.
``retired`` counts instructions retired inside the call and ``loops``
the internalised self-loop iterations (chain transitions the caller
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
}

#: The analytic modes' penalty local for each control kind MJIT inlines
#: (the scoreboard gets the kind itself).
_PENALTY = {"branch": "_bt", "jal": "_jp", "jalr": "_bt", "mexit": "_mxc"}

#: Classes whose emitter retires the entry before any exit, so the
#: plain entries flushed before it retire in the same statement.
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
    """One block → one Python source string (+ its exec namespace)."""

    def __init__(self, block, mem: bool, line_size, scoreboard: bool):
        self.block = block
        self.mem = mem
        self.scoreboard = scoreboard
        #: Whether fetches go through an I-cache model (mem blocks only).
        self.cached = line_size is not None
        self.heads = fetch_plan(block.entries, line_size)
        self.ns = dict(_BASE_NS)
        self.lines = []
        self.indent = 1
        self.tracked = set()        # guest regs living in host locals
        self.timing_needs = set()   # local names from _TIMING_LOCALS
        self.generic = []           # ns keys of execute() entries
        self.trapping = False
        self.looped = block.looped
        #: Set once a terminator has emitted its own return (``ecall``).
        self.exited = False
        #: Whether the final spill is followed by the ``mexitm`` commit.
        self.commit = False
        self.units = 0              # pending retirements of plain entries
        self.fetches = 0            # pending non-head fetches among them
        #: Flushed retirements and non-head fetches not yet emitted: the
        #: next entry's own ``retired +=`` (:meth:`retire`) and ``ih +=``
        #: (:meth:`fetch`) take them along, or :meth:`settle` emits them
        #: before an exit.
        self.carry = 0
        self.carry_ih = 0
        self.run = []               # scoreboard: pending run schedule
        self.schedules = 0          # scoreboard: runs bound so far

    # -- emission helpers ------------------------------------------------
    def emit(self, line: str = "") -> None:
        self.lines.append(("    " * self.indent + line) if line else "")

    def reg(self, n: int) -> str:
        """Source for guest register *n*: a literal 0 for x0, a host
        local, or (scoreboard mode) the register file itself."""
        if n == 0:
            return "0"
        return f"regs[{n}]" if self.scoreboard else f"r{n}"

    def flush_units(self, carry: bool = False) -> None:
        """Retire the pending plain entries: one ``note_run`` with their
        schedule (scoreboard), or their batched fetch cost.  Their hit
        count goes to the next entry's fetch, and with *carry* (that
        entry retires before any exit can read ``retired``) their
        retirements to its :meth:`retire`."""
        n = self.units
        if not n:
            return
        fetches = self.fetches
        self.units = self.fetches = 0
        if self.scoreboard:
            key = f"_q{self.schedules}"
            self.schedules += 1
            self.ns[key] = tuple(self.run)
            self.run = []
            access = "access" if self.cached else "None"
            self.emit(f"note_run({key}, {access}, bc)")
        if carry:
            self.carry = n
        else:
            self.emit(f"retired += {n}")
        if fetches and not self.scoreboard:
            self.emit("cyc += bc" if fetches == 1
                      else f"cyc += {fetches} * bc")
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
        clamped cycle cost and for the latency ``execute()`` is told."""
        head = self.heads[index]
        if self.cached and (self.carry_ih or not head):
            # A non-head fetch counts with the carried ones.
            self.emit(f"ih += {self.carry_ih + (0 if head else 1)}")
            self.carry_ih = 0
        if head:
            self.emit(f"_f = access({pc})")
            return "(_f if _f > 1 else 1)", "_f"
        return "bc", "_ml"

    def credit(self) -> None:
        """Credit the non-head fetches to the I-cache (every exit)."""
        if self.cached:
            self.emit("_ist.hits += ih")

    def spill(self) -> None:
        for n in sorted(self.tracked):
            self.emit(f"regs[{n}] = r{n}")

    def reload(self) -> None:
        for n in sorted(self.tracked):
            self.emit(f"r{n} = regs[{n}]")

    def abort(self, resume_pc: int) -> None:
        """Escape with status 1 (block invalidated), locals spilled."""
        self.spill()
        if not self.scoreboard:
            self.emit("timer.cycles += cyc")
        self.credit()
        self.emit(f"return (1, {resume_pc}, retired, loops, None)")

    def access_exit(self, pc: int, store: bool) -> None:
        """After the load or store at *pc*: escape to ``pc + 4`` when a
        store evicted this block (SMC) or, in a mem block, the access
        pulled the bus horizon below the interrupt horizon ``hz`` (an
        armed timer, a fault injected from inside an MMIO access)."""
        tests = []
        if store:
            tests.append("not block.valid")
        if self.mem:
            tests.append(f"hz < {MASKED} and _bus.horizon < hz")
        if not tests:
            return
        self.emit(f"if {' or '.join(tests)}:")
        self.indent += 1
        self.abort(pc + 4)
        self.indent -= 1

    def charge(self, fetch, reads=(0, 0), rd=0, mem=None, is_load=False,
               extra=None, control=None) -> None:
        """Charge one inlined entry, given :meth:`fetch`'s ``(cost,
        latency)`` pair: its SimpleTimer cost into ``cyc`` (analytic
        modes), or one ``note_op`` with what ``execute()`` would report
        to the scoreboard.  *reads* and *rd* are the registers it reads
        and writes (source text, 0 for none), *mem* the source of its
        data latency (``_l`` after a load or store, ``_ml`` for an MRAM
        data access), *extra* its EX-extra timing local and *control*
        its redirect kind."""
        cost, lat = fetch
        if extra:
            self.timing_needs.add(extra)
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
        if mem == "_ml":
            terms.append("_me")   # the prologue's ``_ml - 1`` clamp
        rhs = " + ".join(terms)
        if mem == "_l":
            self.emit("if _l > 1:")
            self.emit(f"    cyc += {rhs} + _l - 1")
            self.emit("else:")
            self.emit(f"    cyc += {rhs}")
        else:
            self.emit(f"cyc += {rhs}")

    # -- scan pass -------------------------------------------------------
    def scan(self) -> None:
        """Classify every entry: the registers the inline code touches
        (host locals in the analytic modes) and whether any may trap."""
        track = set()
        for instr, pc, flags in self.block.entries:
            if flags & F_ICEPT:
                continue  # leaves with the unraised trap
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
            elif self.mem and m == "ecall":
                pass  # leaves with the unraised trap
            elif cls is InstrClass.BRANCH:
                track.update((instr.rs1, instr.rs2))
            elif cls is InstrClass.JAL:
                track.add(instr.rd)
            elif cls is InstrClass.JALR:
                track.update((instr.rs1, instr.rd))
            elif cls is InstrClass.MULDIV:
                track.update((instr.rd, instr.rs1, instr.rs2))
            elif m in ("mexit", "mexitm") and not self.mem:
                pass
            elif cls is InstrClass.LOAD or (m == "mld" and not flags):
                # A guest-RAM load, or a raw MRAM data access behind the
                # segment check: either may trap.
                self.trapping = True
                track.update((instr.rs1, instr.rd))
            elif cls is InstrClass.STORE or (m == "mst" and not flags):
                self.trapping = True
                track.update((instr.rs1, instr.rs2))
            else:
                self.trapping = True  # an execute() dispatch
        if not self.scoreboard:
            # Scoreboard code keeps the registers in ``regs``.
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
        """A mem block's ``ecall``: its fetch, then the status-2 exit
        with the unraised ECALL trap, which the engine delivers."""
        self.fetch(index, pc)
        self.spill()
        if not self.scoreboard:
            self.emit("timer.cycles += cyc")
        self.credit()
        self.emit(f"return (2, {pc}, retired, loops, _ecall)")
        self.exited = True

    def _emit_intercept(self, index: int, word: int, pc: int) -> None:
        """An intercepted *word*: its fetch, the raw fetch latency as
        ``step()`` charges it, then the status-2 exit with the block's
        unraised INTERCEPT trap, which the engine delivers."""
        _cost, lat = self.fetch(index, pc)
        if self.scoreboard:
            self.emit(f"timer.note_event({lat})")
        else:
            self.emit(f"cyc += {lat}")
        self.ns["_icept"] = TrapException(Cause.INTERCEPT, word)
        self.spill()
        if not self.scoreboard:
            self.emit("timer.cycles += cyc")
        self.credit()
        self.emit(f"return (2, {pc}, retired, loops, _icept)")
        self.exited = True

    def _emit_mexit(self, index: int, instr, pc: int) -> None:
        """``mexit``/``mexitm``: the Metal unit's ``exit_metal()`` gives
        the resume pc, at the fetch plus ``mexit_cost`` (the scoreboard
        is told the register ``mexitm`` commits).  ``mexitm``'s commit
        follows the final spill."""
        self.commit = instr.mnemonic == "mexitm"
        fetch = self.fetch(index, pc)
        self.retire()
        self.charge(fetch, rd="_mr[26] & 31" if self.commit else 0,
                    control="mexit")
        self.emit("next_pc = _exit()")

    def _sync_prologue(self, pc: int) -> None:
        """Flush + device sync + invalidation escape (loads/stores)."""
        self.settle()
        if not self.scoreboard:
            self.emit("timer.cycles += cyc")
            self.emit("cyc = 0")
        self.emit("sync()")
        self.emit("if not block.valid:")
        self.indent += 1
        self.spill()
        self.credit()
        self.emit(f"return (1, {pc}, retired, loops, None)")
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
            self.charge(fetch, (instr.rs1, 0), instr.rd, "_ml", is_load=True)
        else:
            self.emit(f"_pk(data, _o, {self.reg(instr.rs2)})")
            self.retire()
            self.charge(fetch, (instr.rs1, instr.rs2), mem="_ml")

    def _emit_dispatch(self, index: int, instr, pc: int, flags: int) -> None:
        """An ``execute()`` whose StepInfo goes to ``timer.note``: the
        terminators MJIT does not inline (CSR, SYSTEM and
        architectural-feature instructions, ``menter``, and a mem
        block's ``mexit``/``mexitm``), none of which chains."""
        if flags & F_SYNC:
            self._sync_prologue(pc)
        key = f"_i{index}"
        self.ns[key] = instr
        self.generic.append(key)
        if flags & F_CSR:
            # Publish cycles and instret for the CSR read.
            if not self.scoreboard:
                self.emit("timer.cycles += cyc")
                self.emit("cyc = 0")
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
        self.emit("next_pc = _s.next_pc")

    # -- inlined terminators --------------------------------------------
    def _self_loop_guard(self) -> str:
        return "loops < limit"

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
        if self.looped and taken == self.block.start:
            self.emit(f"if {self._self_loop_guard()}:")
            self.emit("    loops += 1")
            self.emit("    continue")
        self.emit(f"next_pc = {taken}")
        if self.looped:
            self.emit("break")
        self.indent -= 1
        self.emit("else:")
        self.indent += 1
        self.charge(fetch, reads)
        self.emit(f"next_pc = {fall}")
        if self.looped:
            self.emit("break")
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
        if not flags & F_TERM:
            return
        if self.looped and target == self.block.start:
            self.emit(f"if {self._self_loop_guard()}:")
            self.emit("    loops += 1")
            self.emit("    continue")
        self.emit(f"next_pc = {target}")
        if self.looped:
            self.emit("break")

    def _emit_jalr(self, index: int, instr, pc: int) -> None:
        fetch = self.fetch(index, pc)
        self.retire()
        self.charge(fetch, (instr.rs1, 0), instr.rd, control="jalr")
        # Target reads rs1 before the link write (rd == rs1 is legal).
        self.emit(f"_t0 = ({self.reg(instr.rs1)} + {instr.imm}) & 4294967294")
        if instr.rd:
            self.emit(f"{self.reg(instr.rd)} = {(pc + 4) & _M}")
        if self.looped:
            self.emit(f"if _t0 == {self.block.start} and "
                      f"{self._self_loop_guard()}:")
            self.emit("    loops += 1")
            self.emit("    continue")
        self.emit("next_pc = _t0")
        if self.looped:
            self.emit("break")

    # -- whole-function assembly ----------------------------------------
    def generate(self) -> str:
        block = self.block
        entries = block.entries
        self.scan()
        last_flags = entries[-1][2]
        scored = self.scoreboard

        # Body first (into a side buffer) so the prologue can hoist
        # exactly what the body turned out to need.
        head_lines, self.lines = self.lines, []
        if self.trapping:
            self.emit("try:")
            self.indent += 1
        if self.looped:
            self.emit("while True:")
            self.indent += 1
        for index, entry in enumerate(entries):
            self.emit_entry(index, entry)
        self.flush_units()
        self.settle()
        if not (last_flags & F_TERM):
            self.emit(f"next_pc = {block.end}")
        if self.looped:
            self.indent -= 1
        if self.trapping:
            self.indent -= 1
            self.emit("except TrapException as trap:")
            self.indent += 1
            # Locals are truth for inlined code, but a trap from inside a
            # generic execute() must NOT spill: the registers were spilled
            # before the call and execute() may have already mutated them.
            if self.generic and self.tracked:
                self.emit("if _lv:")
                self.indent += 1
                self.spill()
                self.indent -= 1
            elif self.tracked:
                self.spill()
            if not scored:
                self.emit("timer.cycles += cyc")
            self.credit()
            self.emit("return (2, epc, retired, loops, trap)")
            self.indent -= 1
        if not self.exited:
            self.spill()
            if self.commit:
                self.emit("_rset(_mr[26] & 31, _mr[27])")
            if not scored:
                self.emit("timer.cycles += cyc")
            self.credit()
            self.emit("return (0, next_pc, retired, loops, None)")
        body, self.lines = self.lines, head_lines

        # Prologue.
        self.indent = 0
        self.emit("def _jit(core, block, timer, sync, instret_base, limit, "
                  "hz):")
        self.indent = 1
        self.emit("regs = core.regs")
        self.emit("timing = timer.timing")
        if self.cached:
            self.emit("_ml = core.icache.hit_latency")
        elif self.mem:
            self.emit("_ml = timing.mem_latency")
        else:
            self.emit("_ml = timing.mram_fetch")
        self.emit("bc = _ml if _ml > 1 else 1")
        if self.cached:
            self.emit("access = core.icache.access")
            self.emit("_ist = core.icache.stats")
        body_text = "\n".join(body)
        if "note(" in body_text:
            self.emit("note = timer.note")
        if "note_run(" in body_text:
            self.emit("note_run = timer.note_run")
        if "note_op(" in body_text:
            self.emit("note_op = timer.note_op")
        if not self.mem and ("bc + _me" in body_text):
            self.emit("_me = _ml - 1 if _ml > 1 else 0")
        for name in sorted(self.timing_needs):
            self.emit(f"{name} = timing.{_TIMING_LOCALS[name]}")
        if "_bus.horizon" in body_text:
            self.emit("_bus = core.bus")
        if "read_mem(" in body_text:
            self.emit("read_mem = core.read_mem")
        if "write_mem(" in body_text:
            self.emit("write_mem = core.write_mem")
        if not self.mem:
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
        self.reload()
        self.emit("retired = 0")
        self.emit("loops = 0")
        if not scored:
            self.emit("cyc = 0")
        if self.cached:
            self.emit("ih = 0")
        if self.trapping:
            self.emit(f"epc = {block.start}")
        if self.generic and self.tracked:
            self.emit("_lv = 1")
        self.lines.extend(body)
        return "\n".join(self.lines) + "\n"


#: ``(source, code object)`` by generated source, shared by every
#: translation cache in the process.  A block's source is a pure function
#: of its entries and codegen mode, so a machine running code another
#: machine already ran (a fresh machine per job, a shard restoring a
#: capsule) reuses the bytecode: ``compile()`` is most of a compile's
#: cost, and shared code keeps each dead machine's garbage small.  An
#: entry is ~8 KiB; the table is cleared when full.
_CODE = {}
_CODE_MAX = 1024


def compile_block(block, mram: bool, line_size, scoreboard: bool):
    """Tier-2 compile a block of the mem or (*mram*) the mram namespace.

    *line_size* is the I-cache line size a mem block's fetches go
    through (None: no I-cache), and *scoreboard* selects code that feeds
    the pipeline timer instead of adding the analytic timer's costs.
    """
    gen = _Codegen(block, not mram, line_size, scoreboard)
    source = gen.generate()
    compiled = _CODE.get(source)
    if compiled is None:
        if len(_CODE) >= _CODE_MAX:
            _CODE.clear()
        ns_label = "mram" if mram else "mem"
        compiled = _CODE[source] = (source, compile(
            source, f"<mjit:{ns_label}:{block.start:#x}>", "exec"))
    exec(compiled[1], gen.ns)
    fn = gen.ns.pop("_jit")
    fn.__jit_source__ = compiled[0]
    return fn
