"""MJIT: the tier-2 trace compiler (hot blocks → specialized Python).

The closure tier (:mod:`repro.cpu.tcache`) already removes fetch/decode
work, but every retired instruction still pays a Python call — a
micro-op closure or a full ``execute()`` dispatch — plus ``StepInfo``
traffic and a cost-table lookup for the non-plain entries.  MJIT
removes that last layer for hot blocks: once a block's ``heat``
(dispatches through the engine's unguarded loop) crosses
``TranslationCache.jit_threshold``, the block is rendered as straight
Python source and ``exec``-compiled once:

* guest registers used by the trace live in host locals, loaded from
  ``core.regs`` at entry and stored back at exit / any escape —
  a self-looping trace never touches the register file mid-flight;
* decoded fields, immediates and ALU semantics are baked in as literal
  expressions from the same micro-op IR (:func:`repro.cpu.tcache.uop_ir`)
  the closure tier consumes, so the tiers cannot drift;
* the invalidation / budget / chain-quantum guards are hoisted out of
  the instruction stream: plain runs carry no per-entry tests at all,
  and a trace whose terminator targets its own head internalises the
  loop (bounded by the caller's remaining budget and chain quantum);
* cycle accounting batches the unit-cost entries (``cyc += n * bc``)
  and stays line-for-line in lockstep with :class:`SimpleTimer.note` —
  the differential fuzzer holds bit-identity on cycles, not just state.

Both namespaces compile.  MJIT runs wherever its code is exact: every
mram block, and every mem block whose fetches need no I-cache model, on
the engine with the analytic timer (the engine's unguarded loop picks
the tier; nothing else gates it).  Guest-RAM loads and stores compile
the same way in both namespaces: flush the cycle batch, sync devices,
then ``core.read_mem``/``core.write_mem``.

MRAM data accesses.  Inside compiled mroutines every ``mld``/``mst``
is a raw ``struct`` access on the MRAM data bytearray behind the same
test :meth:`repro.metal.mram.Mram._check_data` makes — one alignment
test and one compare against the data-segment size, which the prologue
reads once — raising the BUS_ERROR trap ``execute()`` would.  The check
is exact at every site, so no site needs a static proof.

Calling convention (both namespaces)::

    status, next_pc, retired, loops, trap = jit_fn(
        core, block, timer, sync, budget, instret_base, limit)

* ``status == 0`` — normal exit; ``next_pc`` is the successor pc.
* ``status == 1`` — aborted: the block was invalidated mid-trace (DMA
  during a sync, or the trace's own store — SMC; only mem blocks can
  be); ``next_pc`` is the resume pc and no stale entry was executed.
* ``status == 2`` — trap: ``next_pc`` is the faulting pc (epc), ``trap``
  the :class:`TrapException`; registers are already spilled and
  ``timer.cycles`` flushed — the caller only dispatches.

``retired`` counts instructions retired inside the call and ``loops``
the internalised self-loop iterations (chain transitions the caller
credits to ``chain_hits``).  The caller must flush its pending cycle
batch into ``timer.cycles`` before calling (the compiled code reads and
writes ``timer.cycles`` directly) and passes ``instret_base`` so CSR
reads inside the trace can latch an exact ``core.instret``.

Failure is always graceful: :func:`compile_block` returns ``None`` for
blocks not worth (or not safe) compiling, and the translation cache
parks such blocks cold so the attempt happens exactly once.
"""

from __future__ import annotations

import struct

from repro.cpu import alu
from repro.cpu.exceptions import Cause, TrapException
from repro.cpu.executor import _mem_width, execute
from repro.cpu.tcache import (
    _PLAIN_METAL_MNEMONICS,
    F_CSR,
    F_STORE,
    F_SYNC,
    F_TERM,
    IR_IMM,
    IR_NOP,
    IR_REG,
    IR_SET,
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
    "_mrp": "mret_penalty",
    "_men": "menter_cost",
    "_mex": "mexit_cost",
}

def _r(n: int) -> str:
    """Source expression for guest register *n* (x0 reads are literal)."""
    return "0" if n == 0 else f"r{n}"


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

    def __init__(self, block, mem: bool):
        self.block = block
        self.mem = mem
        self.ns = dict(_BASE_NS)
        self.lines = []
        self.indent = 1
        self.tracked = set()        # guest regs living in host locals
        self.timing_needs = set()   # local names from _TIMING_LOCALS
        self.generic = []           # ns keys of execute() entries
        self.trapping = False
        self.units = 0              # pending unit-cost batch

    # -- emission helpers ------------------------------------------------
    def emit(self, line: str = "") -> None:
        self.lines.append(("    " * self.indent + line) if line else "")

    def flush_units(self) -> None:
        n = self.units
        if not n:
            return
        self.units = 0
        self.emit(f"retired += {n}")
        self.emit("cyc += bc" if n == 1 else f"cyc += {n} * bc")

    def spill(self) -> None:
        for n in sorted(self.tracked):
            self.emit(f"regs[{n}] = r{n}")

    def reload(self) -> None:
        for n in sorted(self.tracked):
            self.emit(f"r{n} = regs[{n}]")

    def abort(self, resume_pc: int) -> None:
        """Escape with status 1 (block invalidated), locals spilled."""
        self.spill()
        self.emit("timer.cycles += cyc")
        self.emit(f"return (1, {resume_pc}, retired, loops, None)")

    # -- scan pass -------------------------------------------------------
    def scan(self) -> bool:
        """Classify every entry; returns False to decline the block."""
        track = self.tracked
        inlined = 0
        for instr, _op_fn, pc, flags, _hint in self.block.entries:
            cls = instr.spec.cls
            if flags & F_TERM:
                if cls is InstrClass.BRANCH:
                    track.update((instr.rs1, instr.rs2))
                    self.timing_needs.add("_bt")
                    inlined += 1
                elif cls is InstrClass.JAL:
                    track.add(instr.rd)
                    self.timing_needs.add("_jp")
                    inlined += 1
                elif cls is InstrClass.JALR:
                    track.update((instr.rs1, instr.rd))
                    self.timing_needs.add("_bt")
                    inlined += 1
                else:
                    self._note_generic()
                continue
            if flags == 0:
                ir = uop_ir(instr, pc)
                if ir is not None:
                    kind, rd, a, b, _m = ir
                    if kind == IR_IMM:
                        track.update((rd, a))
                    elif kind == IR_REG:
                        track.update((rd, a, b))
                    elif kind == IR_SET:
                        track.add(rd)
                    inlined += 1
                    continue
                if cls is InstrClass.MULDIV:
                    track.update((instr.rd, instr.rs1, instr.rs2))
                    m = instr.mnemonic
                    self.timing_needs.add(
                        "_dx" if m.startswith(("div", "rem")) else "_mx")
                    inlined += 1
                    continue
                if (cls is InstrClass.METAL
                        and instr.mnemonic in _PLAIN_METAL_MNEMONICS):
                    m = instr.mnemonic
                    if m == "rmr":
                        track.add(instr.rd)
                        inlined += 1
                    elif m == "wmr":
                        track.add(instr.rs1)
                        inlined += 1
                    else:
                        # mld/mst: raw data access behind the segment check.
                        self.trapping = True
                        if m == "mld":
                            track.update((instr.rs1, instr.rd))
                        else:
                            track.update((instr.rs1, instr.rs2))
                        inlined += 1
                    continue
                self._note_generic()
                continue
            if cls is InstrClass.LOAD:
                track.update((instr.rs1, instr.rd))
                self.trapping = True
                inlined += 1
                continue
            if cls is InstrClass.STORE:
                track.update((instr.rs1, instr.rs2))
                self.trapping = True
                inlined += 1
                continue
            # A flagged non-terminator we cannot inline (should not occur
            # in either namespace, but decline rather than guess).
            return False
        track.discard(0)
        # A block with nothing inlinable gains nothing over the closure
        # tier; leave it there.
        return inlined > 0

    def _note_generic(self) -> None:
        self.trapping = True
        self.timing_needs.update(("_bt", "_jp", "_mrp", "_men", "_mex"))

    # -- body emission ---------------------------------------------------
    def emit_entry(self, index: int, entry) -> None:
        instr, _op_fn, pc, flags, _hint = entry
        cls = instr.spec.cls
        if flags & F_TERM:
            self.flush_units()
            if cls is InstrClass.BRANCH:
                self._emit_branch(instr, pc)
            elif cls is InstrClass.JAL:
                self._emit_jal(instr, pc)
            elif cls is InstrClass.JALR:
                self._emit_jalr(instr, pc)
            else:
                self._emit_generic(index, instr, pc, flags)
            return
        if flags == 0:
            ir = uop_ir(instr, pc)
            if ir is not None:
                self._emit_ir(ir)
                self.units += 1
                return
            if cls is InstrClass.MULDIV:
                self.flush_units()
                self._emit_muldiv(instr)
                return
            if (cls is InstrClass.METAL
                    and instr.mnemonic in _PLAIN_METAL_MNEMONICS):
                m = instr.mnemonic
                if m == "rmr":
                    if instr.rd:
                        self.emit(f"r{instr.rd} = _mrr({instr.rs1})")
                    self.units += 1
                elif m == "wmr":
                    self.emit(f"_mrw({instr.rd}, {_r(instr.rs1)})")
                    self.units += 1
                else:
                    self.flush_units()
                    self._emit_data_access(instr, pc)
                return
            self.flush_units()
            self._emit_generic(index, instr, pc, flags)
            return
        if cls is InstrClass.LOAD:
            self.flush_units()
            self._emit_load(instr, pc)
            return
        # STORE (F_SYNC | F_STORE)
        self.flush_units()
        self._emit_store(instr, pc)

    def _emit_ir(self, ir) -> None:
        kind, rd, a, b, m = ir
        if kind == IR_NOP:
            return  # still retired + costed via the unit batch
        if kind == IR_IMM:
            self.emit(f"r{rd} = {_imm_rhs(m, _r(a), b)}")
        elif kind == IR_REG:
            self.emit(f"r{rd} = {_reg_rhs(m, _r(a), _r(b))}")
        else:  # IR_SET
            self.emit(f"r{rd} = {a}")

    def _emit_muldiv(self, instr) -> None:
        m = instr.mnemonic
        extra = "_dx" if m.startswith(("div", "rem")) else "_mx"
        if instr.rd:
            self.emit(f"r{instr.rd} = _op_{m}"
                      f"({_r(instr.rs1)}, {_r(instr.rs2)})")
        self.emit("retired += 1")
        self.emit(f"cyc += bc + {extra}")

    def _sync_prologue(self, pc: int) -> None:
        """Flush + device sync + invalidation escape (loads/stores)."""
        self.emit("timer.cycles += cyc")
        self.emit("cyc = 0")
        self.emit("sync()")
        self.emit("if not block.valid:")
        self.indent += 1
        self.spill()
        self.emit(f"return (1, {pc}, retired, loops, None)")
        self.indent -= 1

    def _emit_load(self, instr, pc: int) -> None:
        m = instr.mnemonic
        width = _mem_width(m)
        self._sync_prologue(pc)
        self.emit(f"epc = {pc}")
        self.emit(f"_v, _l = read_mem(({_r(instr.rs1)} + {instr.imm})"
                  f" & 4294967295, {width})")
        if m == "lb":
            self.emit("if _v >= 128:")
            self.emit("    _v |= 4294967040")
        elif m == "lh":
            self.emit("if _v >= 32768:")
            self.emit("    _v |= 4294901760")
        if instr.rd:
            self.emit(f"r{instr.rd} = _v")
        self.emit("retired += 1")
        self.emit("if _l > 1:")
        self.emit("    cyc += bc + _l - 1")
        self.emit("else:")
        self.emit("    cyc += bc")

    def _emit_store(self, instr, pc: int) -> None:
        width = _mem_width(instr.mnemonic)
        self._sync_prologue(pc)
        self.emit(f"epc = {pc}")
        self.emit(f"_l = write_mem(({_r(instr.rs1)} + {instr.imm})"
                  f" & 4294967295, {width}, {_r(instr.rs2)})")
        self.emit("retired += 1")
        self.emit("if _l > 1:")
        self.emit("    cyc += bc + _l - 1")
        self.emit("else:")
        self.emit("    cyc += bc")
        # The store itself may have evicted this block (SMC): escape
        # before any further entry runs, resuming after the store.
        self.emit("if not block.valid:")
        self.indent += 1
        self.abort(pc + 4)
        self.indent -= 1

    def _emit_data_access(self, instr, pc: int) -> None:
        """mld/mst: the data-segment check, then a raw word access."""
        self.emit(f"epc = {pc}")
        self.emit(f"_o = ({_r(instr.rs1)} + {instr.imm}) & 4294967295")
        self.emit("if _o & 3 or _o >= _dn:")
        self.emit("    raise TrapException(CAUSE_BUS_ERROR, _o)")
        if instr.mnemonic == "mld":
            if instr.rd:
                self.emit(f"r{instr.rd} = _upk(data, _o)[0]")
        else:
            self.emit(f"_pk(data, _o, {_r(instr.rs2)})")
        self.emit("retired += 1")
        self.emit("cyc += bc + _me")

    def _emit_generic(self, index: int, instr, pc: int, flags: int) -> None:
        key = f"_i{index}"
        self.ns[key] = instr
        self.generic.append(key)
        if flags & F_CSR:
            self.emit("timer.cycles += cyc")
            self.emit("cyc = 0")
            self.emit("core._timer_cycles = timer.cycles")
            self.emit("core.instret = instret_base + retired")
        self.emit(f"epc = {pc}")
        self.spill()
        self.emit("_lv = 0")
        self.emit(f"_s = execute(core, {key}, {pc}, fetch_latency=_ml)")
        self.reload()
        self.emit("_lv = 1")
        self.emit("retired += 1")
        self.emit("_c = bc")
        self.emit("_l = _s.mem_latency")
        self.emit("if _l > 1:")
        self.emit("    _c += _l - 1")
        self.emit("_ctl = _s.control")
        self.emit("if _ctl is not None:")
        self.indent += 1
        self.emit('if _ctl == "branch":')
        self.emit("    _c += _bt")
        self.emit('elif _ctl == "jal":')
        self.emit("    _c += _jp")
        self.emit('elif _ctl == "jalr":')
        self.emit("    _c += _bt")
        self.emit('elif _ctl == "mret":')
        self.emit("    _c += _mrp")
        self.emit('elif _ctl == "menter":')
        self.emit("    _c += _men")
        self.emit('elif _ctl == "mexit":')
        self.emit("    _c += _mex")
        self.emit('elif _ctl == "mraise":')
        self.emit("    _c += _jp")
        self.indent -= 1
        self.emit("cyc += _c")
        self.emit("next_pc = _s.next_pc")

    # -- inlined terminators --------------------------------------------
    def _self_loop_guard(self) -> str:
        nlen = len(self.block.entries)
        return f"loops < limit and budget - retired >= {nlen}"

    def _emit_branch(self, instr, pc: int) -> None:
        taken = (pc + instr.imm) & _M
        fall = (pc + 4) & _M
        cond = _branch_cond(instr.mnemonic, _r(instr.rs1), _r(instr.rs2))
        self.emit("retired += 1")
        self.emit(f"if {cond}:")
        self.indent += 1
        self.emit("cyc += bc + _bt")
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
        self.emit("cyc += bc")
        self.emit(f"next_pc = {fall}")
        if self.looped:
            self.emit("break")
        self.indent -= 1

    def _emit_jal(self, instr, pc: int) -> None:
        target = (pc + instr.imm) & _M
        self.emit("retired += 1")
        self.emit("cyc += bc + _jp")
        if instr.rd:
            self.emit(f"r{instr.rd} = {(pc + 4) & _M}")
        if self.looped and target == self.block.start:
            self.emit(f"if {self._self_loop_guard()}:")
            self.emit("    loops += 1")
            self.emit("    continue")
        self.emit(f"next_pc = {target}")
        if self.looped:
            self.emit("break")

    def _emit_jalr(self, instr, pc: int) -> None:
        self.emit("retired += 1")
        self.emit("cyc += bc + _bt")
        # Target reads rs1 before the link write (rd == rs1 is legal).
        self.emit(f"_t0 = ({_r(instr.rs1)} + {instr.imm}) & 4294967294")
        if instr.rd:
            self.emit(f"r{instr.rd} = {(pc + 4) & _M}")
        if self.looped:
            self.emit(f"if _t0 == {self.block.start} and "
                      f"{self._self_loop_guard()}:")
            self.emit("    loops += 1")
            self.emit("    continue")
        self.emit("next_pc = _t0")
        if self.looped:
            self.emit("break")

    # -- whole-function assembly ----------------------------------------
    def generate(self):
        block = self.block
        entries = block.entries
        if not self.scan():
            return None
        last = entries[-1]
        term_cls = last[0].spec.cls if last[3] & F_TERM else None
        # Internalise the loop only for exits that can actually target
        # the block head: a statically self-targeting branch/jal, or any
        # jalr (dynamic target, checked at run time).
        self.looped = bool(block.chainable) and (
            (term_cls is InstrClass.BRANCH
             and ((last[2] + last[0].imm) & _M) == block.start)
            or (term_cls is InstrClass.JAL
                and ((last[2] + last[0].imm) & _M) == block.start)
            or term_cls is InstrClass.JALR
        )

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
        if not (last[3] & F_TERM):
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
            self.emit("timer.cycles += cyc")
            self.emit("return (2, epc, retired, loops, trap)")
            self.indent -= 1
        self.spill()
        self.emit("timer.cycles += cyc")
        self.emit("return (0, next_pc, retired, loops, None)")
        body, self.lines = self.lines, head_lines

        # Prologue.
        self.indent = 0
        self.emit("def _jit(core, block, timer, sync, budget, "
                  "instret_base, limit):")
        self.indent = 1
        self.emit("regs = core.regs")
        self.emit("timing = timer.timing")
        if self.mem:
            self.emit("_ml = timing.mem_latency")
        else:
            self.emit("_ml = timing.mram_fetch")
        self.emit("bc = _ml if _ml > 1 else 1")
        body_text = "\n".join(body)
        if not self.mem and ("bc + _me" in body_text):
            self.emit("_me = _ml - 1 if _ml > 1 else 0")
        for name in sorted(self.timing_needs):
            self.emit(f"{name} = timing.{_TIMING_LOCALS[name]}")
        if "read_mem(" in body_text:
            self.emit("read_mem = core.read_mem")
        if "write_mem(" in body_text:
            self.emit("write_mem = core.write_mem")
        if not self.mem:
            if "_mrr(" in body_text:
                self.emit("_mrr = core.metal.mregs.read")
            if "_mrw(" in body_text:
                self.emit("_mrw = core.metal.mregs.write")
            if "(data, _o" in body_text:
                self.emit("data = core.metal.mram.data")
            if "_o >= _dn" in body_text:
                self.emit("_dn = core.metal.mram.data_bytes")
        self.reload()
        self.emit("retired = 0")
        self.emit("loops = 0")
        self.emit("cyc = 0")
        if self.trapping:
            self.emit(f"epc = {block.start}")
        if self.generic:
            self.emit("_lv = 1")
        self.lines.extend(body)
        return "\n".join(self.lines) + "\n"


def compile_block(block, mram: bool):
    """Tier-2 compile a block of the mem or (*mram*) the mram
    namespace, or ``None`` to decline."""
    gen = _Codegen(block, not mram)
    source = gen.generate()
    if source is None:
        return None
    ns_label = "mram" if mram else "mem"
    code = compile(source, f"<mjit:{ns_label}:{block.start:#x}>", "exec")
    exec(code, gen.ns)
    fn = gen.ns["_jit"]
    fn.__jit_source__ = source
    return fn
