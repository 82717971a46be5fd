"""Predecoded translation cache (tcache) for the execution engines.

The seed interpreter pays a full Python round-trip per guest instruction:
``core.fetch()`` (translate + cache model + bus read), a dict-probe
``decode()``, an interception probe, and ``execute()`` dispatch — even
though guest code is overwhelmingly straight-line loops re-executing the
same words.  The tcache amortises everything *before* ``execute()`` by
predecoding guest code into **basic blocks**: arrays of
``(instr, op_fn, pc, flags, next_pc_hint)`` tuples ending at control
flow, ``menter``/``mexit``, CSR/SYSTEM instructions, or any
architectural-feature instruction that could change an invariant blocks
are compiled under.  ``op_fn`` is :func:`repro.cpu.executor.execute` —
semantics stay single-sourced; only the fetch/decode/probe work is cached.

On top of the entry list each block carries two build-time artifacts:

* ``ops`` — a computed-goto-style dispatch program.  Runs of *plain*
  entries (ALU, LUI/AUIPC, FENCE — no traps, no memory, no control, unit
  base cost) are folded into tuples of micro-op closures specialised per
  instruction at compile time; only entries that can sync devices, trap,
  or terminate the block remain full ``execute()`` dispatches.  Each
  segment also carries the block's I-cache fetch plan (which fetches
  start a new cache line), so the engine's unguarded block loop runs
  ``ops`` with the cache model on and no per-entry flag tests.
* ``link``/``link_pc``/``links`` — the **superblock chain**: after a
  block exits through a pure control-flow terminator (branch/jal/jalr,
  or the fall-through of a length-limited block) the engine links it to
  the successor block and on later dispatches follows the link directly,
  never returning to the dispatch loop.  The chain slot is a small LRU
  **target map** (an MRU ``link``/``link_pc`` pair plus up to three
  secondary ``links`` entries), so indirect jumps and data-dependent
  branches that alternate between a few targets keep all of them linked
  instead of relinking on every flip.  A link is followed only when the
  observed ``next_pc`` matches a map entry *and* that successor is
  still valid, so evictions sever chains instead of executing stale
  code.  Only branch/jal/jalr terminators are chainable: every other
  terminator (CSR, SYSTEM, Metal transitions, architectural-feature
  instructions) can move an invariant the chain was built under
  (interrupt enables, translation, interception, halt/wfi), so those
  always return to the dispatcher.

Two separate block namespaces keep Metal-mode fetch locality intact:

* ``mem`` — normal-mode code fetched from main memory.  Blocks are valid
  only while fetch translation is identity (paging off) and the
  interception table is empty; the engine checks both at dispatch time.
  Stores into pages holding compiled blocks (self-modifying code, program
  loads, DMA) evict those blocks via the write-notification hook on
  :class:`repro.mem.bus.MemoryBus` / :class:`repro.mem.memory.PhysicalMemory`.
* ``mram`` — Metal-mode code fetched from MRAM.  The whole namespace is
  invalidated when the MRAM code segment changes (mroutine load/unload;
  :class:`repro.metal.mram.Mram` bumps ``code_version``).

Invalidation protocol summary (see docs/PERF.md):

========================  =============================================
event                     effect
========================  =============================================
store / DMA to code page  evict every mem block registered on the page
mroutine load / unload    flush the mram namespace (lazy, via version)
intercept empty↔non-empty flush the mem namespace (and dispatch checks
                          ``intercept.empty`` every block, so stale
                          fast-path blocks can never run)
paging enabled            mem blocks bypassed at dispatch (no eviction
                          needed: block content is translation-free)
snapshot restore          full flush (RAM bytes replaced wholesale)
========================  =============================================

Superblock chains participate implicitly: every eviction path above marks
the victim blocks ``valid = False`` *before* dropping them, and every
chain traversal re-checks the successor's ``valid`` flag (plus the
observed next pc), so an evicted successor breaks the link rather than
executing stale code.
"""

from __future__ import annotations

from time import perf_counter

from repro.errors import BusError, DecodeError, MramError
from repro.cpu import alu
from repro.cpu.executor import execute
from repro.isa.decoder import decode
from repro.isa.instruction import InstrClass

#: Entry flag bits (``flags`` element of a block entry tuple).
F_SYNC = 1    #: sync devices before executing (loads/stores may hit MMIO)
F_TERM = 2    #: terminator — the block ends after this entry
F_CSR = 4     #: latch ``core._timer_cycles`` before executing (CSR reads)
F_STORE = 8   #: may invalidate blocks — re-check validity afterwards

#: Invalidation granularity for the mem namespace (matches the MMU page).
PAGE_SHIFT = 12

#: Instruction classes that can never redirect control flow, trap into
#: Metal mode, or change a compile-time invariant; blocks flow through
#: them.  Everything else terminates the block.
_PLAIN_CLASSES = frozenset((
    InstrClass.ALU_IMM,
    InstrClass.ALU_REG,
    InstrClass.MULDIV,
    InstrClass.LUI,
    InstrClass.AUIPC,
    InstrClass.FENCE,
))

#: METAL-class mnemonics that are straight-line inside an mroutine:
#: register moves and MRAM *data*-segment accesses (which can never touch
#: devices or modify code, so they need neither sync nor validity checks).
_PLAIN_METAL_MNEMONICS = frozenset(("rmr", "wmr", "mld", "mst"))

#: Terminator classes a superblock chain may continue *through*: pure
#: control flow that cannot change interrupt enables, privilege,
#: translation, interception, or halt/wfi state.
_CHAIN_CLASSES = frozenset((
    InstrClass.BRANCH,
    InstrClass.JAL,
    InstrClass.JALR,
))


#: Polymorphic chain capacity: the MRU ``link`` slot plus up to
#: ``LINKS_MAX - 1`` secondary targets in :attr:`Block.links`.  Four
#: targets cover the alternating-branch / small-switch cases the
#: monomorphic slot thrashed on without growing every block.
LINKS_MAX = 4

#: Heat sentinel for blocks MJIT declined to compile: far enough below
#: zero that the per-dispatch increment can never climb back over any
#: plausible threshold, so the compile attempt happens exactly once.
_JIT_COLD = -(1 << 62)


class Block:
    """One predecoded basic block (plus its superblock chain links)."""

    __slots__ = ("start", "end", "entries", "ops", "valid",
                 "chainable", "link", "link_pc", "links",
                 "heat", "jit_fn")

    def __init__(self, start: int, end: int, entries,
                 chainable: bool = False, link_pc: int = None,
                 line_size: int = None):
        self.start = start
        self.end = end            # byte address just past the last entry
        self.entries = entries    # list of (instr, op_fn, pc, flags, hint)
        self.ops = _build_ops(entries, end, line_size)
        self.valid = True
        #: Tier-2 hotness: dispatches of this block through the engine's
        #: unguarded loop (the same transitions the hit/chain-hit stats
        #: count).  Crossing ``TranslationCache.jit_threshold`` triggers
        #: MJIT compilation; a rejected compile parks it at ``_JIT_COLD``
        #: so the threshold test never re-fires.
        self.heat = 0
        #: MJIT-compiled function for this block (tier 2), or None while
        #: the block is cold.  Every eviction path that clears ``valid``
        #: also drops this, exactly as it severs chain links.
        self.jit_fn = None
        #: Whether the block's exit is eligible for chaining (branch/jal/
        #: jalr terminator, or the fall-through of a length-limited block).
        self.chainable = chainable
        #: Most-recently-used chained successor block and the guest pc the
        #: link is valid for.  ``link_pc`` is seeded from the terminator's
        #: decoded static target (the ``next_pc_hint``); the link itself is
        #: installed on first traversal and re-validated against the
        #: observed next pc every time it is followed.
        self.link = None
        self.link_pc = link_pc
        #: Secondary chain targets, MRU-first: a list of ``(pc, Block)``
        #: pairs (or None until first needed).  Together with the ``link``
        #: slot this forms a small LRU target map so alternating-target
        #: branches stop relinking on every flip; capped at
        #: ``LINKS_MAX - 1`` entries.
        self.links = None

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Block [{self.start:#x}, {self.end:#x}) "
            f"{len(self.entries)} instrs valid={self.valid}>"
        )


def _classify(instr, mram: bool):
    """Return ``(flags, terminates)`` for one decoded instruction."""
    cls = instr.spec.cls
    if cls in _PLAIN_CLASSES:
        return 0, False
    if cls is InstrClass.LOAD:
        return F_SYNC, False
    if cls is InstrClass.STORE:
        return F_SYNC | F_STORE, False
    if mram and cls is InstrClass.METAL \
            and instr.mnemonic in _PLAIN_METAL_MNEMONICS:
        return 0, False
    flags = F_TERM
    if cls is InstrClass.CSR:
        flags |= F_CSR
    return flags, True


def _static_hint(instr, pc: int) -> int:
    """Decoded static successor of the instruction at *pc*.

    For direct jumps this is the jump target and for conditional branches
    the *taken* target (the loop-heavy common case); everything else —
    including ``jalr``, whose target is indirect — falls through to
    ``pc + 4``.  The hint seeds the chain's ``link_pc``; it is advisory
    only and every chain traversal re-validates it against the executed
    ``next_pc``, so a wrong guess costs one lookup, never correctness.
    """
    cls = instr.spec.cls
    if cls is InstrClass.JAL or cls is InstrClass.BRANCH:
        return (pc + instr.imm) & 0xFFFFFFFF
    return (pc + 4) & 0xFFFFFFFF


def _noop_uop(regs):
    return None


#: Micro-op IR kinds (first element of a :func:`uop_ir` tuple).  Both
#: execution tiers consume this IR — the closure builder below and the
#: MJIT codegen in :mod:`repro.cpu.jit` — so which entries are "plain",
#: and with what operands and baked constants, is decided exactly once.
IR_NOP = 0   #: (IR_NOP, 0, 0, 0, None) — fence, or a dead rd==x0 write
IR_IMM = 1   #: (IR_IMM, rd, rs1, imm, mnemonic) — reg-imm ALU op
IR_REG = 2   #: (IR_REG, rd, rs1, rs2, mnemonic) — reg-reg ALU op
IR_SET = 3   #: (IR_SET, rd, value, 0, None) — lui/auipc constant, folded


def uop_ir(instr, pc: int):
    """Shared micro-op IR for a *plain* unit-cost entry, or ``None``.

    The IR is the single source of truth for both tiers: the closure
    tier binds it into per-instruction ``uop(regs)`` callables
    (:func:`_uop_from_ir`) and MJIT renders it as Python source
    (``repro.cpu.jit``), so the tiers cannot drift on which entries are
    inlinable or what operands/constants they use.  Only entries that
    can never trap, never touch memory/devices, never redirect control
    and always cost the base fetch cycle qualify.
    """
    cls = instr.spec.cls
    rd = instr.rd
    if cls is InstrClass.ALU_IMM:
        if not rd:
            return (IR_NOP, 0, 0, 0, None)
        return (IR_IMM, rd, instr.rs1, instr.imm, instr.mnemonic)
    if cls is InstrClass.ALU_REG:
        if not rd:
            return (IR_NOP, 0, 0, 0, None)
        return (IR_REG, rd, instr.rs1, instr.rs2, instr.mnemonic)
    if cls is InstrClass.LUI:
        if not rd:
            return (IR_NOP, 0, 0, 0, None)
        return (IR_SET, rd, instr.imm & 0xFFFFFFFF, 0, None)
    if cls is InstrClass.AUIPC:
        if not rd:
            return (IR_NOP, 0, 0, 0, None)
        return (IR_SET, rd, (pc + instr.imm) & 0xFFFFFFFF, 0, None)
    if cls is InstrClass.FENCE:
        return (IR_NOP, 0, 0, 0, None)
    return None


def _uop_from_ir(ir):
    """Closure-tier rendering of one :func:`uop_ir` tuple."""
    kind, rd, a, b, mnemonic = ir
    if kind == IR_NOP:
        return _noop_uop
    if kind == IR_IMM:
        op = alu.IMM_OPS[mnemonic]

        def uop(regs, rd=rd, rs1=a, imm=b, op=op):
            regs[rd] = op(regs[rs1], imm)
        return uop
    if kind == IR_REG:
        op = alu.REG_OPS[mnemonic]

        def uop(regs, rd=rd, rs1=a, rs2=b, op=op):
            regs[rd] = op(regs[rs1], regs[rs2])
        return uop

    def uop(regs, rd=rd, value=a):  # IR_SET
        regs[rd] = value
    return uop


def _make_uop(instr, pc: int):
    """Micro-op closure for a *plain* entry, or ``None``.

    A micro-op is the computed-goto-style replacement for the generic
    ``execute()`` dispatch: the operand registers, immediate and ALU
    callable are bound at block-build time, so the fast loop just calls
    ``uop(regs)`` — no flag tests, no class dispatch, no StepInfo.
    """
    ir = uop_ir(instr, pc)
    return _uop_from_ir(ir) if ir is not None else None


#: ``ops`` segment kinds (first tuple element).
OP_RUN = 0   #: (OP_RUN, uops, count, end_pc, leads, same, schedule) — run
OP_EXEC = 1  #: (OP_EXEC, instr, pc, flags, lead) — full execute() dispatch


def _schedule_regs(instr):
    """``(rs_a, rs_b, rd)`` of a plain entry as ``execute()`` reports
    them to the timer: the registers read (0 for none) and the one
    written (0 for none).  A write to x0 still reads its sources."""
    cls = instr.spec.cls
    if cls is InstrClass.ALU_IMM:
        return instr.rs1, 0, instr.rd
    if cls is InstrClass.ALU_REG:
        return instr.rs1, instr.rs2, instr.rd
    if cls is InstrClass.FENCE:
        return 0, 0, 0
    return 0, 0, instr.rd  # lui, auipc


def _build_ops(entries, end: int, line_size: int = None):
    """Fold *entries* into the block's computed-goto dispatch program.

    Consecutive plain entries (``flags == 0`` with a micro-op available)
    become one ``OP_RUN`` segment — a tuple of pre-bound closures plus the
    pc following the run (for publishing ``core.pc`` without a StepInfo).
    MULDIV and plain-METAL entries have data-dependent or non-unit cycle
    costs, so they stay ``OP_EXEC`` even though their flags are zero.

    Every segment also carries the block's I-cache *fetch plan* for an
    I-cache of *line_size*-byte lines.  A block fetches sequentially, so
    only a *line head* — the block's first fetch, or the first fetch in a
    new line — needs a real cache access; any other fetch re-reads the
    line the fetch just before it made most-recent in its set, which is a
    hit that leaves the LRU state unchanged.  ``OP_RUN`` carries its line
    heads' pcs (``leads``) and its count of same-line fetches (``same``),
    ``OP_EXEC`` a line-head flag (``lead``).  With no I-cache
    (*line_size* None) the plan is empty: no leads, every fetch "same".

    ``OP_RUN`` also carries the run's *schedule* for the pipeline
    scoreboard (:meth:`repro.cpu.pipeline.PipelineTimer.note_run`): per
    instruction ``(head, rs_a, rs_b, rd)``, with *head* the pc of a line
    head or None, then the registers as :func:`_schedule_regs` gives them.
    """
    ops = []
    run = []
    leads = []
    schedule = []
    prev = None
    for instr, _op_fn, pc, flags, _hint in entries:
        line = pc // line_size if line_size else None
        lead = line != prev
        prev = line
        uop = _make_uop(instr, pc) if not flags else None
        if uop is not None:
            run.append(uop)
            if lead:
                leads.append(pc)
            schedule.append((pc if lead else None, *_schedule_regs(instr)))
            continue
        if run:
            ops.append((OP_RUN, tuple(run), len(run), pc, tuple(leads),
                        len(run) - len(leads), tuple(schedule)))
            run = []
            leads = []
            schedule = []
        ops.append((OP_EXEC, instr, pc, flags, lead))
    if run:
        ops.append((OP_RUN, tuple(run), len(run), end, tuple(leads),
                    len(run) - len(leads), tuple(schedule)))
    return ops


def _chain_shape(entries, end: int, terminated: bool):
    """``(chainable, link_pc seed)`` for a freshly compiled block."""
    if not terminated:
        # Length-limited (or decode/bus-bounded) block: the only exit is
        # the fall-through, which is always chainable.
        return True, end
    last_instr, _op_fn, _pc, _flags, hint = entries[-1]
    if last_instr.spec.cls in _CHAIN_CLASSES:
        return True, hint
    return False, None


class TranslationCache:
    """Per-engine cache of predecoded basic blocks, in two namespaces."""

    #: Longest block, in instructions.  Bounds compile latency and the
    #: interrupt-sampling work lost when a block aborts early.
    MAX_BLOCK_LEN = 64

    def __init__(self, stats, line_size: int = None):
        self.stats = stats
        #: I-cache line size the mem blocks' fetch plans are compiled
        #: for (see :func:`_build_ops`); None for a core with no I-cache.
        self.line_size = line_size
        #: Optional profiling sink (repro.profile.sink.TraceEventSink).
        #: When attached, compile/invalidate/flush/chain-break events are
        #: reported for the exported timeline; ``None`` costs nothing on
        #: the hot paths (checked only on the cold branches).
        self.sink = None
        #: Dispatches through the unguarded loop a block must see before
        #: MJIT (repro.cpu.jit) compiles it, wherever the engine runs
        #: MJIT code at all.  Low by design: compilation is a few hundred
        #: microseconds, and a block hot enough to reach the unguarded
        #: loop twice is overwhelmingly a loop body.
        self.jit_threshold = 16
        self._mem = {}          # start pc -> Block
        self._mem_pages = {}    # page number -> set of start pcs
        self._mram = {}         # start offset -> Block
        self._mram_version = None

    # ------------------------------------------------------------------
    # dispatch (normal mode, main memory)
    # ------------------------------------------------------------------
    def mem_block(self, pc: int, bus):
        """Cached (or freshly compiled) block starting at *pc*, or None."""
        block = self._mem.get(pc)
        if block is not None:
            self.stats.hits += 1
            return block
        self.stats.misses += 1
        if pc % 4:
            return None
        return self._compile_mem(pc, bus)

    def _compile_mem(self, pc: int, bus):
        entries = []
        p = pc
        terminated = False
        while len(entries) < self.MAX_BLOCK_LEN:
            # Never compile through a device region: device reads have
            # side effects, and instruction fetch from MMIO takes the
            # slow path anyway.
            if bus.is_device(p):
                break
            try:
                word = bus.read_u32(p)
            except BusError:
                break
            try:
                instr = decode(word)
            except DecodeError:
                break
            flags, term = _classify(instr, mram=False)
            entries.append((instr, execute, p, flags, _static_hint(instr, p)))
            p += 4
            if term:
                terminated = True
                break
        if not entries:
            return None
        block = Block(pc, p, entries,
                      *_chain_shape(entries, p, terminated),
                      line_size=self.line_size)
        self._mem[pc] = block
        pages = self._mem_pages
        for page in range(pc >> PAGE_SHIFT, ((p - 1) >> PAGE_SHIFT) + 1):
            pages.setdefault(page, set()).add(pc)
        self.stats.blocks_compiled += 1
        if self.sink is not None:
            self.sink.tcache_event("compile", "mem", pc, len(entries))
        return block

    # ------------------------------------------------------------------
    # dispatch (Metal mode, MRAM)
    # ------------------------------------------------------------------
    def mram_block(self, pc: int, mram):
        """Cached (or freshly compiled) MRAM block at offset *pc*, or None."""
        version = mram.code_version
        if version != self._mram_version:
            # Lazy namespace invalidation: mroutine load/unload bumped the
            # code version since we last compiled.  Mark the blocks invalid
            # (not just unreachable) so chain links held by surviving
            # predecessors can never be followed into the stale code.
            if self._mram:
                count = len(self._mram)
                for block in self._mram.values():
                    block.valid = False
                    block.jit_fn = None
                self.stats.invalidations += count
                self._mram.clear()
                if self.sink is not None:
                    self.sink.tcache_event("flush", "mram", 0, count)
            self._mram_version = version
        block = self._mram.get(pc)
        if block is not None:
            self.stats.hits += 1
            return block
        self.stats.misses += 1
        if pc % 4:
            return None
        return self._compile_mram(pc, mram)

    def _compile_mram(self, pc: int, mram):
        entries = []
        p = pc
        terminated = False
        while len(entries) < self.MAX_BLOCK_LEN:
            try:
                word = mram.fetch(p)
            except MramError:
                break
            try:
                instr = decode(word)
            except DecodeError:
                break
            flags, term = _classify(instr, mram=True)
            entries.append((instr, execute, p, flags, _static_hint(instr, p)))
            p += 4
            if term:
                terminated = True
                break
        if not entries:
            return None
        block = Block(pc, p, entries,
                      *_chain_shape(entries, p, terminated))
        self._mram[pc] = block
        self.stats.blocks_compiled += 1
        if self.sink is not None:
            self.sink.tcache_event("compile", "mram", pc, len(entries))
        return block

    # ------------------------------------------------------------------
    # MJIT tier 2 (repro.cpu.jit)
    # ------------------------------------------------------------------
    def jit_compile(self, block, mram: bool):
        """Compile *block* to tier 2, or park it cold.

        Called by the engine's unguarded loop once ``block.heat`` crosses
        :attr:`jit_threshold`; *mram* names the block's namespace.
        Returns the compiled function (also cached on ``block.jit_fn``)
        or ``None`` when the codegen declined the block — then ``heat``
        is parked at the cold sentinel so the attempt is never repeated.
        """
        from repro.cpu import jit as mjit
        t0 = perf_counter()
        fn = mjit.compile_block(block, mram)
        self.stats.jit_compile_ms += (perf_counter() - t0) * 1e3
        if fn is None:
            block.heat = _JIT_COLD
            return None
        block.jit_fn = fn
        self.stats.jit_blocks += 1
        if self.sink is not None:
            self.sink.tcache_event("jit_compile", "mram" if mram else "mem",
                                   block.start, len(block.entries))
        return fn

    def iter_jit_blocks(self):
        """Yield ``(ns, block)`` for every live tier-2 block.

        The MVTV translation validator (``repro.verify``) harvests the
        corpus through this: every block MJIT has compiled and not since
        invalidated, with the namespace label (``"mem"``/``"mram"``)
        the validator needs to pick the calling convention.
        """
        for ns, table in (("mem", self._mem), ("mram", self._mram)):
            for block in table.values():
                if block.valid and block.jit_fn is not None:
                    yield ns, block

    def tier_of(self, ns: str, pc: int):
        """Execution tier of the cached block headed at *pc*: ``"jit"``,
        ``"closure"``, or ``None`` when nothing is cached there.  Used
        by the MPROF hot-trace report to label traces with the tier
        that executed them."""
        table = self._mem if ns == "mem" else self._mram
        block = table.get(pc)
        if block is None or not block.valid:
            return None
        return "jit" if block.jit_fn is not None else "closure"

    # ------------------------------------------------------------------
    # superblock chaining
    # ------------------------------------------------------------------
    def chain_next(self, block, next_pc: int, mram: bool, code):
        """Follow (or install) *block*'s chain link toward *next_pc*.

        Returns the successor block of the same namespace (*mram*, with
        *code* the MRAM or the bus it is fetched from), or ``None`` when
        the target cannot be translated.  The chain slot is a small LRU
        target map (the MRU ``link``/``link_pc`` pair plus up to three
        secondaries in ``links``), so a branch that alternates between a
        handful of targets keeps every successor linked instead of
        relinking on each flip.  A stale entry — successor evicted, or
        the observed target absent from the map — is severed and
        re-resolved through :meth:`mem_block` or :meth:`mram_block`, so
        a chain can never reach stale code.
        """
        link = block.link
        if link is not None and block.link_pc == next_pc and link.valid:
            self.stats.chain_hits += 1
            return link
        nxt = self._chain_alt(block, next_pc)
        if nxt is not None:
            return nxt
        if next_pc % 4:
            return None
        if mram:
            nxt = self.mram_block(next_pc, code)
        else:
            nxt = self.mem_block(next_pc, code)
        if nxt is not None:
            self._chain_install(block, next_pc, nxt)
        return nxt

    def _chain_alt(self, block, next_pc: int):
        """Resolve *next_pc* through the secondary target map.

        Returns the (validated and MRU-promoted) successor on a
        polymorphic hit, or ``None`` — after accounting the miss as a
        chain break when the map held any entry for the edge.
        """
        stats = self.stats
        alts = block.links
        hit = None
        if alts:
            for i, (pc, candidate) in enumerate(alts):
                if pc == next_pc:
                    del alts[i]
                    if candidate.valid:
                        hit = candidate
                    break
        if hit is None:
            # Genuine miss: evicted successor or a target the map has
            # never seen.  Severing the MRU slot (the historical
            # monomorphic behaviour) is only needed when it was the
            # stale entry; map misses leave the other targets linked.
            link = block.link
            if link is not None and block.link_pc == next_pc:
                block.link = None
                stats.chain_breaks += 1
            elif link is not None or alts:
                stats.chain_breaks += 1
            else:
                return None
            if self.sink is not None:
                ns = "mem" if self._mem.get(block.start) is block else "mram"
                self.sink.tcache_event("chain_break", ns, block.start)
            return None
        self._chain_promote(block, next_pc, hit)
        stats.chain_hits += 1
        stats.chain_poly_hits += 1
        return hit

    def _chain_promote(self, block, next_pc: int, nxt) -> None:
        """Make *nxt* the MRU entry, demoting the previous MRU into the
        secondary map (dropping it if evicted)."""
        prev, prev_pc = block.link, block.link_pc
        block.link = nxt
        block.link_pc = next_pc
        if prev is not None and prev.valid and prev_pc != next_pc:
            alts = block.links
            if alts is None:
                alts = block.links = []
            alts.insert(0, (prev_pc, prev))
            del alts[LINKS_MAX - 1:]

    def _chain_install(self, block, next_pc: int, nxt) -> None:
        self._chain_promote(block, next_pc, nxt)
        self.stats.chain_links += 1

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def on_ram_write(self, addr: int, length: int) -> None:
        """Write-notification hook: evict mem blocks on touched pages.

        Registered with :meth:`repro.mem.bus.MemoryBus.watch_writes`;
        fires for guest stores, host pokes, program loads and DMA alike.
        """
        pages = self._mem_pages
        if not pages:
            return
        first = addr >> PAGE_SHIFT
        last = (addr + length - 1) >> PAGE_SHIFT
        for page in range(first, last + 1):
            starts = pages.pop(page, None)
            if starts is None:
                continue
            blocks = self._mem
            sink = self.sink
            for start in starts:
                block = blocks.pop(start, None)
                if block is not None and block.valid:
                    block.valid = False
                    block.jit_fn = None
                    self.stats.invalidations += 1
                    if sink is not None:
                        sink.tcache_event("invalidate", "mem", start)

    def on_intercept_transition(self, active: bool) -> None:
        """Intercept table went empty↔non-empty: flush normal-mode blocks.

        Blocks are compiled under a "no interception" assumption; they
        must not survive the transition (the engine also re-checks
        ``intercept.empty`` at every block dispatch, so this flush is
        defence in depth rather than the only line).
        """
        self.flush_mem()

    def flush_mem(self) -> None:
        if self._mem:
            count = len(self._mem)
            for block in self._mem.values():
                block.valid = False
                block.jit_fn = None
            self.stats.invalidations += count
            self._mem.clear()
            self._mem_pages.clear()
            if self.sink is not None:
                self.sink.tcache_event("flush", "mem", 0, count)
        self.stats.flushes += 1

    def flush_all(self) -> None:
        """Drop everything (snapshot restore, tests)."""
        self.flush_mem()
        if self._mram:
            count = len(self._mram)
            for block in self._mram.values():
                block.valid = False
                block.jit_fn = None
            self.stats.invalidations += count
            self._mram.clear()
            if self.sink is not None:
                self.sink.tcache_event("flush", "mram", 0, count)
        self._mram_version = None

    # ------------------------------------------------------------------
    @property
    def cached_blocks(self) -> int:
        return len(self._mem) + len(self._mram)
