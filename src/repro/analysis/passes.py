"""The MAS verification passes.

:func:`analyze_routine` runs every pass over one mroutine and returns an
:class:`AnalysisResult`: typed :class:`Diagnostic` records plus the
:class:`~repro.analysis.facts.RoutineFacts` the loader hands to the
translation cache.

Passes (``Diagnostic.pass_name``):

``structure``
    Word-level legality: decode, forbidden baseline instructions, nested
    ``menter``, undeclared ``jalr``, escaping/misaligned branch targets.
``exit``
    Exit-on-all-paths over the CFG: no falling off the end, no region
    from which ``mexit``/``mraise`` is unreachable (infinite loops), and
    — under lint — unreachable code.
``mreg``
    MReg discipline: use of undeclared persistent MRegs (lint) and dead
    stores to ``m31``, the caller return address — a write all of whose
    paths overwrite it again before any exit observes it.
``bounds``
    Interval abstract interpretation of ``mld``/``mst`` addresses
    against the routine's allowed MRAM data ranges.  Provable
    out-of-bounds accesses are errors; unprovable ones are warnings
    (the runtime bounds check remains the backstop).
``budget``
    Worst-case instruction count for loop-free routines against a
    configurable budget; mroutines are non-interruptible, so an
    unbounded routine is a latency liability (warning under lint).
``effects``
    Side-effect classification (no diagnostics in the default configs —
    it produces the purity facts).

Two stock configurations:

* :data:`LOAD_CONFIG` — what :func:`repro.metal.verifier.verify_mroutine`
  enforces at image-build time.  Structural and exit errors reject the
  routine; lint-only style checks are off.
* :data:`LINT_CONFIG` — ``python -m repro lint``: everything on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis import cfg as cfgmod
from repro.analysis import domain as dom
from repro.analysis.cfg import (
    T_BAD_WORD,
    T_BRANCH,
    T_DYNAMIC,
    T_EXIT,
    T_FALL_OFF,
    T_RAISE,
    build_cfg,
)
from repro.analysis.dataflow import solve_forward
from repro.analysis.domain import Interval, IntervalEnv
from repro.analysis.facts import Purity, RoutineFacts
from repro.isa.disasm import format_instruction
from repro.isa.instruction import InstrClass
from repro.isa.registers import MREG_ICEPT_RS2, MREG_RETURN

#: Instructions from the trap-architecture baseline, illegal in mcode.
FORBIDDEN = frozenset((
    "csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci",
    "mret", "wfi", "ecall", "ebreak", "halt",
))


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding, anchored to a word of the routine."""

    pass_name: str          # structure | exit | mreg | bounds | budget
    severity: str           # "error" | "warn"
    word_index: int
    message: str
    routine: str = ""
    raw: int = None         # the offending 32-bit word
    disasm: str = None      # its disassembly (None if undecodable)
    #: Entry-to-offence path witness: leader word indices of the blocks
    #: on a shortest feasible path, or None when not applicable.
    witness: tuple = None

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def legacy(self) -> str:
        """The historical ``VerifyReport.problems`` string form."""
        return f"[word {self.word_index}] {self.message}"


@dataclass(frozen=True)
class AnalysisConfig:
    """Which passes run and how strict they are."""

    name: str = "custom"
    #: Lint-style checks (off at load time to keep the loader permissive
    #: about patterns the execution model tolerates).
    check_dead_code: bool = False
    dead_code_severity: str = "warn"
    check_mreg_ownership: bool = False
    check_m31_dead_store: bool = False
    #: Worst-case instruction budget for loop-free routines (None = off).
    cycle_budget: int = None
    #: Severity when a routine's instruction count cannot be bounded.
    unbounded_severity: str = "warn"


LOAD_CONFIG = AnalysisConfig(name="load")
LINT_CONFIG = AnalysisConfig(
    name="lint",
    check_dead_code=True,
    check_mreg_ownership=True,
    check_m31_dead_store=True,
    cycle_budget=4096,
)


@dataclass
class AnalysisResult:
    """Everything MAS derived about one routine."""

    name: str
    cfg: cfgmod.CFG
    facts: RoutineFacts
    diagnostics: list = field(default_factory=list)
    config: AnalysisConfig = LOAD_CONFIG

    @property
    def errors(self):
        return [d for d in self.diagnostics if d.is_error]

    @property
    def warnings(self):
        return [d for d in self.diagnostics if not d.is_error]

    @property
    def ok(self) -> bool:
        return not self.errors


def analyze_routine(routine, allowed_data_ranges=None,
                    config: AnalysisConfig = LOAD_CONFIG) -> AnalysisResult:
    """Run every MAS pass over *routine* (code_words populated).

    *allowed_data_ranges* is a list of ``(lo, hi)`` byte ranges of the
    MRAM data segment the routine may touch; ``None`` skips the bounds
    pass (routine not yet placed).
    """
    words = list(routine.code_words or [])
    graph = build_cfg(words)
    facts = RoutineFacts()
    diags = []

    def emit(pass_name, severity, word_index, message, witness=None):
        raw = words[word_index] if 0 <= word_index < len(words) else None
        instr = (graph.instrs[word_index]
                 if 0 <= word_index < len(graph.instrs) else None)
        diags.append(Diagnostic(
            pass_name=pass_name, severity=severity, word_index=word_index,
            message=message, routine=routine.name, raw=raw,
            disasm=format_instruction(instr) if instr is not None else None,
            witness=witness,
        ))

    if not words:
        emit("structure", "error", 0, "empty routine")
        result = AnalysisResult(routine.name, graph, facts, diags, config)
        return result

    _pass_structure(routine, words, graph, emit)
    _pass_exit(graph, config, emit)
    _pass_mreg(routine, graph, config, facts, emit)
    _pass_bounds(routine, graph, allowed_data_ranges, facts, emit)
    _pass_budget(graph, config, facts, emit)
    _pass_effects(graph, facts)

    facts.diagnostics = {}
    for d in diags:
        facts.diagnostics[d.pass_name] = facts.diagnostics.get(d.pass_name, 0) + 1
    return AnalysisResult(routine.name, graph, facts, diags, config)


# --------------------------------------------------------------------------
# structure
# --------------------------------------------------------------------------

def _pass_structure(routine, words, graph, emit):
    code_len = 4 * len(words)
    for i, instr in enumerate(graph.instrs):
        if instr is None:
            exc = graph.decode_errors[i]
            emit("structure", "error", i,
                 f"undecodable word {words[i]:#010x} ({exc.reason})")
            continue
        m = instr.mnemonic
        if m in FORBIDDEN:
            emit("structure", "error", i, f"{m} is illegal in mcode")
        if m == "menter":
            emit("structure", "error", i,
                 "nested menter is not allowed in base Metal")
        if m == "jalr" and not routine.allow_dynamic_jumps:
            emit("structure", "error", i,
                 "dynamic jump (jalr) requires allow_dynamic_jumps=True")
        if instr.cls is InstrClass.BRANCH or m == "jal":
            target = 4 * i + instr.imm
            if not 0 <= target < code_len:
                emit("structure", "error", i,
                     f"{m} target {target:+#x} escapes the routine "
                     f"(code is {code_len:#x} bytes)")
            elif target % 4:
                emit("structure", "error", i,
                     f"{m} target {target:+#x} is not word-aligned")


# --------------------------------------------------------------------------
# exit
# --------------------------------------------------------------------------

def _pass_exit(graph, config, emit):
    exit_blocks = {b.index for b in graph.blocks
                   if b.terminator in (T_EXIT, T_RAISE)}
    has_any_exit = any(
        instr is not None and instr.mnemonic in cfgmod.EXIT_MNEMONICS
        for instr in graph.instrs
    )
    if not has_any_exit:
        emit("exit", "error", len(graph.instrs) - 1,
             "routine has no mexit/mraise")
        return

    # Blocks that can reach an exit (reverse reachability).  A dynamic
    # jump leaves the static graph, so it counts as "may exit" — the
    # declaration already acknowledges the analyzer loses track there.
    can_exit = set(exit_blocks)
    can_exit.update(b.index for b in graph.blocks if b.terminator == T_DYNAMIC)
    changed = True
    while changed:
        changed = False
        for b in graph.blocks:
            if b.index not in can_exit and any(s in can_exit for s in b.succs):
                can_exit.add(b.index)
                changed = True

    for b in graph.blocks:
        if b.index not in graph.reachable:
            continue
        if b.terminator == T_FALL_OFF:
            emit("exit", "error", b.term_word,
                 "control falls off the end of the routine "
                 "(no mexit/mraise on this path)",
                 witness=graph.witness(b.index))
        elif b.index not in can_exit and b.terminator != T_BAD_WORD:
            emit("exit", "error", b.term_word,
                 "no mexit/mraise reachable from here "
                 "(infinite loop or stuck region)",
                 witness=graph.witness(b.index))

    if config.check_dead_code:
        for b in graph.blocks:
            if b.index not in graph.reachable:
                emit("exit", config.dead_code_severity, b.start,
                     "unreachable code (dead block)")


# --------------------------------------------------------------------------
# mreg
# --------------------------------------------------------------------------

def _mreg_access(instr):
    """(read_index, written_index) of the MReg an instruction touches,
    or (None, None)."""
    if instr is None:
        return None, None
    if instr.mnemonic == "rmr":
        return instr.rs1, None
    if instr.mnemonic == "wmr":
        return None, instr.rd
    return None, None


def _pass_mreg(routine, graph, config, facts, emit):
    reads, writes = set(), set()
    declared = set(routine.mregs) | set(routine.shared_mregs)
    for i, instr in enumerate(graph.instrs):
        r, w = _mreg_access(instr)
        if r is not None:
            reads.add(r)
            if (config.check_mreg_ownership and r < MREG_ICEPT_RS2
                    and r not in declared):
                emit("mreg", "error", i,
                     f"reads m{r} without declaring it "
                     f"(mregs={tuple(routine.mregs)}, "
                     f"shared_mregs={tuple(routine.shared_mregs)})")
        if w is not None:
            writes.add(w)
            if (config.check_mreg_ownership and w < MREG_ICEPT_RS2
                    and w not in declared):
                emit("mreg", "error", i,
                     f"writes m{w} without declaring it "
                     f"(mregs={tuple(routine.mregs)}, "
                     f"shared_mregs={tuple(routine.shared_mregs)})")
    facts.mregs_read = tuple(sorted(reads))
    facts.mregs_written = tuple(sorted(writes))

    if config.check_m31_dead_store:
        _check_m31_dead_stores(graph, emit)


def _check_m31_dead_stores(graph, emit):
    """Backward liveness of ``m31`` (the caller return address).

    A ``wmr m31`` after which *every* path overwrites ``m31`` again
    before any use (``rmr m31``, an exit, or a dynamic jump) is a dead
    store: the redirect the author presumably intended never happens.
    """
    uses_at_term = (T_EXIT, T_RAISE, T_DYNAMIC, T_FALL_OFF, T_BAD_WORD)

    def scan(block, live_out):
        """Return live-in; optionally report dead stores when *report*."""
        live = live_out
        findings = []
        for off in range(len(block.instrs) - 1, -1, -1):
            instr = block.instrs[off]
            if instr is None:
                live = True
                continue
            m = instr.mnemonic
            if m in ("mexit", "mexitm", "mraise") or m == "jalr":
                live = True
            r, w = _mreg_access(instr)
            if w == MREG_RETURN:
                if not live:
                    findings.append(block.start + off)
                live = False
            if r == MREG_RETURN:
                live = True
        return live, findings

    # Fixpoint on block live-in values (backward, single bit).
    live_in = {}
    changed = True
    while changed:
        changed = False
        for block in graph.blocks:
            if block.terminator in uses_at_term:
                out = True
            else:
                out = any(live_in.get(s, False) for s in block.succs)
            new_in, _ = scan(block, out)
            if live_in.get(block.index) != new_in:
                live_in[block.index] = new_in
                changed = True

    for block in graph.blocks:
        if block.index not in graph.reachable:
            continue
        if block.terminator in uses_at_term:
            out = True
        else:
            out = any(live_in.get(s, False) for s in block.succs)
        _, findings = scan(block, out)
        for word in findings:
            emit("mreg", "error", word,
                 "write to m31 (caller return address) is overwritten "
                 "on every path before any exit observes it",
                 witness=graph.witness(block.index))


# --------------------------------------------------------------------------
# bounds (interval abstract interpretation)
# --------------------------------------------------------------------------

def _eval_instr(env, instr):
    """Apply *instr*'s transfer function to *env* (mutates *env*)."""
    m = instr.mnemonic
    cls = instr.cls
    g = env.get
    if cls is InstrClass.LUI:
        env.set(instr.rd, Interval.const(instr.imm))
        return
    if cls is InstrClass.ALU_IMM:
        a = g(instr.rs1)
        imm = instr.imm
        if m == "addi":
            env.set(instr.rd, dom.add_imm(a, imm))
        elif m == "andi":
            env.set(instr.rd, dom.and_(a, Interval.const(imm)))
        elif m == "ori":
            env.set(instr.rd, dom.or_(a, Interval.const(imm))
                    if a is not dom.TOP else dom.TOP)
        elif m == "xori":
            env.set(instr.rd, dom.xor(a, Interval.const(imm)))
        elif m in ("slti", "sltiu"):
            env.set(instr.rd, dom.bool_interval())
        elif m == "slli":
            env.set(instr.rd, dom.shl(a, Interval.const(imm)))
        elif m == "srli":
            env.set(instr.rd, dom.shr(a, Interval.const(imm)))
        elif m == "srai":
            env.set(instr.rd, dom.sra(a, Interval.const(imm)))
        else:
            env.set(instr.rd, dom.TOP)
        return
    if cls is InstrClass.ALU_REG:
        a, b = g(instr.rs1), g(instr.rs2)
        if m == "add":
            env.set(instr.rd, dom.add(a, b))
        elif m == "sub":
            env.set(instr.rd, dom.sub(a, b))
        elif m == "and":
            env.set(instr.rd, dom.and_(a, b))
        elif m == "or":
            env.set(instr.rd, dom.or_(a, b))
        elif m == "xor":
            env.set(instr.rd, dom.xor(a, b))
        elif m in ("slt", "sltu"):
            env.set(instr.rd, dom.bool_interval())
        elif m == "sll":
            env.set(instr.rd, dom.shl(a, b))
        elif m == "srl":
            env.set(instr.rd, dom.shr(a, b))
        elif m == "sra":
            env.set(instr.rd, dom.sra(a, b))
        else:
            env.set(instr.rd, dom.TOP)
        return
    if cls is InstrClass.MULDIV:
        a, b = g(instr.rs1), g(instr.rs2)
        if m == "mul":
            env.set(instr.rd, dom.mul(a, b))
        elif m == "divu":
            env.set(instr.rd, dom.div(a, b))
        elif m == "remu":
            env.set(instr.rd, dom.rem(a, b))
        else:
            env.set(instr.rd, dom.TOP)
        return
    if m == "rmr":
        env.set(instr.rd, env.mregs[instr.rs1])
        return
    if m == "wmr":
        env.mregs[instr.rd] = g(instr.rs1)
        return
    # Everything else that writes a GPR destination produces TOP
    # (loads, mld, auipc, jal/jalr link registers, mgprr, ...).
    if instr.spec.fmt.name in ("R", "I", "U", "J") and m != "wmr":
        env.set(instr.rd, dom.TOP)


def _transfer_block(block, env):
    out = env.copy()
    for instr in block.instrs:
        if instr is None:
            break
        _eval_instr(out, instr)
    return out


def _refine_edge(block, succ, env, graph):
    """Branch refinement: tighten rs1/rs2 along a branch edge."""
    if block.terminator != T_BRANCH or len(block.succs) < 2:
        return env
    instr = block.instrs[-1]
    m = instr.mnemonic
    target_word = (4 * block.term_word + instr.imm) // 4
    taken = graph.blocks[succ].start == target_word
    # With identical taken/fall-through targets "taken" is ambiguous —
    # skip refinement (join of both edges is the unrefined state anyway).
    if graph.blocks[block.succs[0]].start == graph.blocks[block.succs[1]].start:
        return env
    a, b = env.get(instr.rs1), env.get(instr.rs2)
    signed_ok = (a is not dom.TOP and b is not dom.TOP
                 and a.hi <= dom.NON_NEG.hi and b.hi <= dom.NON_NEG.hi)
    refined = None
    if (m == "beq" and taken) or (m == "bne" and not taken):
        refined = dom.refine_eq(a, b)
    elif (m == "bltu" and taken) or (m == "bgeu" and not taken):
        refined = dom.refine_ltu(a, b)
    elif (m == "bltu" and not taken) or (m == "bgeu" and taken):
        refined = dom.refine_geu(a, b)
    elif signed_ok and ((m == "blt" and taken) or (m == "bge" and not taken)):
        refined = dom.refine_ltu(a, b)
    elif signed_ok and ((m == "blt" and not taken) or (m == "bge" and taken)):
        refined = dom.refine_geu(a, b)
    else:
        return env
    if refined is None:
        return None  # infeasible edge
    out = env.copy()
    out.set(instr.rs1, refined[0])
    out.set(instr.rs2, refined[1])
    return out


def _merge_ranges(ranges):
    merged = []
    for lo, hi in sorted(ranges):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _interval_states(graph, max_visits=32):
    """Solve the interval analysis; returns in-states per block."""
    def transfer(block, env):
        return _transfer_block(block, env)

    def join(a, b):
        return a.join(b)

    def eq(a, b):
        return a == b

    def widen(old, new, visits):
        return old.widen(new) if visits >= 3 else new

    def edge_transfer(block, succ, env):
        return _refine_edge(block, succ, env, graph)

    in_states, _ = solve_forward(
        graph, IntervalEnv.entry(), transfer, join, eq,
        widen=widen, edge_transfer=edge_transfer, max_visits=max_visits,
    )
    return in_states


def _pass_bounds(routine, graph, allowed_data_ranges, facts, emit):
    accesses = [
        (i, instr) for i, instr in enumerate(graph.instrs)
        if instr is not None and instr.mnemonic in ("mld", "mst")
    ]
    if not accesses:
        return
    if allowed_data_ranges is None:
        return  # routine not placed yet — nothing to check against

    ranges = _merge_ranges(allowed_data_ranges)
    in_states = _interval_states(graph)

    # Address interval at each access: replay the block transfer up to
    # the access from the block's solved in-state.
    addr_of = {}
    for block in graph.blocks:
        env = in_states.get(block.index)
        if env is None:
            continue  # unreachable — the exit pass owns that report
        env = env.copy()
        for off, instr in enumerate(block.instrs):
            if instr is None:
                break
            if instr.mnemonic in ("mld", "mst"):
                addr_of[block.start + off] = dom.add_imm(env.get(instr.rs1),
                                                         instr.imm)
            _eval_instr(env, instr)

    for i, instr in accesses:
        if i not in addr_of:
            continue  # dead code
        addr = addr_of[i]
        block = graph.block_at(i)
        witness = graph.witness(block.index)
        m = instr.mnemonic
        if addr is not dom.TOP and addr.is_const:
            offset = addr.lo
            if not any(lo <= offset < hi for lo, hi in ranges):
                if instr.rs1 == 0:
                    msg = (f"{m} constant offset {instr.imm:#x} outside the "
                           f"routine's allowed data ranges "
                           f"{list(allowed_data_ranges)}")
                else:
                    msg = (f"{m} computed address is the constant {offset:#x},"
                           f" outside the allowed data ranges {ranges}")
                emit("bounds", "error", i, msg, witness=witness)
            else:
                facts.proven_accesses += 1
        elif addr is not dom.TOP and any(
                lo <= addr.lo and addr.hi < hi for lo, hi in ranges):
            facts.proven_accesses += 1
        elif addr is not dom.TOP and not any(
                addr.hi >= lo and addr.lo < hi for lo, hi in ranges):
            emit("bounds", "error", i,
                 f"{m} address interval {addr} is entirely outside the "
                 f"allowed data ranges {ranges}", witness=witness)
        else:
            facts.unproven_accesses += 1
            bound = "unknown" if addr is dom.TOP else str(addr)
            emit("bounds", "warn", i,
                 f"{m} address (interval {bound}) cannot be proven "
                 f"in-bounds statically; the runtime bounds check applies",
                 witness=witness)


# --------------------------------------------------------------------------
# budget
# --------------------------------------------------------------------------

def _pass_budget(graph, config, facts, emit):
    facts.has_loops = bool(graph.back_edges)
    facts.has_dynamic_jumps = any(b.dynamic for b in graph.blocks)
    if facts.has_loops:
        facts.max_path_instructions = None
        if config.cycle_budget is not None:
            src, dst = min(graph.back_edges)
            emit("budget", config.unbounded_severity,
                 graph.blocks[src].term_word,
                 "instruction count cannot be bounded statically: the "
                 "routine has loops (mroutines are non-interruptible)",
                 witness=graph.witness(src))
        return

    # Loop-free: longest entry-to-anywhere path by topological order.
    order = _topo_order(graph)
    longest = {0: len(graph.blocks[0])}
    for b in order:
        if b not in longest:
            continue  # not reachable from entry
        for s in graph.blocks[b].succs:
            cand = longest[b] + len(graph.blocks[s])
            if cand > longest.get(s, -1):
                longest[s] = cand
    worst = max(longest.values(), default=len(graph.instrs))
    facts.max_path_instructions = worst
    if config.cycle_budget is not None and worst > config.cycle_budget:
        deepest = max(longest, key=longest.get)
        emit("budget", "error", graph.blocks[deepest].term_word,
             f"worst-case path retires {worst} instructions, over the "
             f"configured budget of {config.cycle_budget}",
             witness=graph.witness(deepest))


def _topo_order(graph):
    """Topological order of the (acyclic) reachable subgraph."""
    indeg = {b: 0 for b in graph.reachable}
    for b in graph.reachable:
        for s in graph.blocks[b].succs:
            if s in indeg:
                indeg[s] += 1
    ready = [b for b, d in sorted(indeg.items()) if d == 0]
    order = []
    while ready:
        b = ready.pop()
        order.append(b)
        for s in graph.blocks[b].succs:
            if s in indeg:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
    return order


# --------------------------------------------------------------------------
# effects
# --------------------------------------------------------------------------

def _pass_effects(graph, facts):
    reads_ram = writes_ram = touches_mram = False
    arch = []
    for instr in graph.instrs:
        if instr is None:
            continue
        cls = instr.cls
        m = instr.mnemonic
        if cls is InstrClass.LOAD:
            reads_ram = True
        elif cls is InstrClass.STORE:
            writes_ram = True
        elif cls is InstrClass.METAL:
            if m in ("mld", "mst"):
                touches_mram = True
        elif cls is InstrClass.METAL_ARCH:
            arch.append(m)
            if m == "mpld":
                reads_ram = True
            elif m == "mpst":
                writes_ram = True

    facts.reads_ram = reads_ram
    facts.writes_ram = writes_ram
    facts.arch_ops = tuple(sorted(set(arch)))
    if writes_ram:
        facts.purity = Purity.WRITES_RAM
    elif reads_ram:
        facts.purity = Purity.READS_RAM
    elif touches_mram:
        facts.purity = Purity.MRAM_ONLY
    else:
        facts.purity = Purity.PURE


# --------------------------------------------------------------------------
# image-level checks
# --------------------------------------------------------------------------

def check_image_mregs(results) -> list:
    """Cross-routine MReg check over ``{name: AnalysisResult}``.

    Flags persistent MRegs (below the hardware-reserved bank) that some
    routine reads but *no* routine in the image ever writes: with MRegs
    zero-initialised and no writer anywhere, the read can only ever see
    the initial zero.  Reported as warnings — a writer may legitimately
    live outside the analyzed set.
    """
    writers = {}
    readers = {}  # mreg -> [(routine name, word index), ...]
    for name, res in results.items():
        for mreg in res.facts.mregs_written:
            writers.setdefault(mreg, set()).add(name)
        for i, instr in enumerate(res.cfg.instrs):
            r, _w = _mreg_access(instr)
            if r is not None:
                readers.setdefault(r, []).append((name, i))
    diags = []
    for mreg, sites in sorted(readers.items()):
        if mreg >= MREG_ICEPT_RS2 or mreg in writers:
            continue
        for name, i in sites:
            res = results[name]
            instr = res.cfg.instrs[i]
            diags.append(Diagnostic(
                pass_name="mreg", severity="warn", word_index=i,
                message=(f"reads m{mreg}, which no routine in the image "
                         f"ever writes (value is always the initial 0)"),
                routine=name,
                raw=instr.raw if instr is not None else None,
                disasm=format_instruction(instr) if instr is not None else None,
            ))
    return diags
