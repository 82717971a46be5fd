"""Predecoded translation cache (tcache) for the execution engines.

The seed interpreter pays a full Python round-trip per guest instruction:
``core.fetch()`` (translate + cache model + bus read), a dict-probe
``decode()``, an interception probe, and ``execute()`` dispatch — even
though guest code is overwhelmingly straight-line loops re-executing the
same words.  The tcache amortises everything *before* ``execute()`` by
predecoding guest code into **blocks**: lists of ``(instr, pc, flags)``
entries ending at control flow, ``menter``/``mexit``, CSR/SYSTEM
instructions, or any architectural-feature instruction that could
change an invariant blocks are compiled under.  A block continues
through a direct jump: a ``jal`` whose target is word-aligned and not
yet in the block stays in it as a plain entry (its link write and jump
charge included), and decoding resumes at the target, so a loop split
by unconditional jumps is one block that ends at its back edge.  MJIT
(:mod:`repro.cpu.jit`) compiles a block at its first dispatch to a
Python function (``jit_fn``), its one-member *region*, and that
function runs with the engine's cache models and timer.  When a
dispatch comes back around a cycle of linked blocks, the cycle is
compiled as one region (:meth:`TranslationCache.join`): one function
whose exits into members test the engine's admission rule in place.
The calling convention is one for both (:mod:`repro.cpu.jit`).  While a
step hook is subscribed, the engine runs every block on its ``step()``
instead, and MJIT compiles nothing.

Besides its entries each block carries its **superblock chain**, the
**target map** ``links`` (``{next_pc: Block}``): after a block exits
through a pure control-flow terminator (branch/jal/jalr, or the
fall-through of a length-limited block) the engine links it to the
successor block and on later dispatches follows the link directly,
never returning to the dispatch loop.  The map holds every target the
exit has taken, so indirect jumps and data-dependent branches keep all
of their targets linked however many there are (QEMU resolves indirect
jumps through a hashed jump cache the same way).  A link is followed
only when the observed ``next_pc`` has a map entry *and* that successor
is still valid, so evictions sever chains instead of executing stale
code.  Only branch/jal/jalr
terminators are *chainable* within a namespace.  A Metal transition
(``menter``, ``mexit``/``mexitm``, or a terminator that traps into an
mroutine) is followed through the same target map into the other
namespace (a *crossing*, see
:meth:`repro.cpu.functional.FunctionalSimulator._exec_block`): such a
block's map holds only targets of the namespace it crosses into, and
the engine re-checks every invariant the other namespace is dispatched
under.  Every other terminator (CSR, SYSTEM, architectural-feature
instructions) can move an invariant the chain was built under
(interrupt enables, translation, interception, halt/wfi), so those
return to the dispatcher.

Two separate block namespaces keep Metal-mode fetch locality intact:

* ``mem`` — normal-mode code fetched from main memory.  Blocks are valid
  only while fetch translation is identity (paging off), which the
  engine checks at every dispatch.  They are compiled under the
  intercept rule set the engine selects (:meth:`TranslationCache.
  select_rules`, by the table's :attr:`~repro.metal.intercept.
  InterceptTable.signature`): a word the set intercepts ends its block
  as an *intercept terminator* (``F_ICEPT``), which delivers to the
  handler instead of executing.  Selecting another rule set flushes
  the namespace.  Stores into pages holding compiled blocks
  (self-modifying code, program loads, DMA) evict those blocks via the
  write-notification hook on :class:`repro.mem.bus.MemoryBus` /
  :class:`repro.mem.memory.PhysicalMemory`.
* ``mram`` — Metal-mode code fetched from MRAM.  The whole namespace is
  invalidated when the MRAM code segment changes (mroutine load/unload;
  :class:`repro.metal.mram.Mram` bumps ``code_version``).

Invalidation protocol summary (see docs/PERF.md):

========================  =============================================
event                     effect
========================  =============================================
store / DMA to code page  evict every mem block registered on the page
                          (a block is registered on the page of each of
                          its entries, jump targets included)
mroutine load / unload    flush the mram namespace (lazy, via version)
intercept rules changed   flush the mem namespace (lazy: at the next
                          normal-mode dispatch or ``mexit`` crossing)
paging enabled            mem blocks bypassed at dispatch (no eviction
                          needed: block content is translation-free)
snapshot restore          rewrite only the RAM pages that differ,
                          through the write hook (evicting those pages'
                          blocks, as a store does); flush the mram
                          namespace only if MRAM code changed (lazy,
                          via version)
========================  =============================================

Superblock chains participate implicitly: every eviction path above
marks the victim blocks ``valid = False`` *before* dropping them, and
every chain traversal re-checks the successor's ``valid`` flag (plus the
observed next pc), so an evicted successor breaks the link rather than
executing stale code.  Regions likewise: an eviction drops the victim's
region from every member (:meth:`TranslationCache._evict`), so a region
is entered only with all its members valid, and inside a region that can
evict a block, an edge tests its member's ``valid``.  An eviction also
evicts the victim's prefix blocks (:meth:`TranslationCache.prefix`),
whose code runs its first entries: a prefix running when its parent's
page is stored to leaves at the store's ``valid`` test.  A crossing into
MRAM first applies the lazy ``code_version`` flush
(:meth:`TranslationCache.cross_next`), so a warm mem→mram link never
outlives an mroutine reload.  A chain cannot carry a mem block into
another rule set either: during a run only Metal-mode
``micept``/``miceptd`` change the rules, and the ``mexit`` crossing
selects the new set, whose flush invalidates every block a link from
MRAM could reach.
"""

from __future__ import annotations

from time import perf_counter

from repro.errors import BusError, DecodeError, MramError
from repro.isa.decoder import decode
from repro.isa.instruction import InstrClass
from repro.metal.intercept import NO_RULES, intercepts

#: Entry flag bits (``flags`` element of a block entry tuple).
F_SYNC = 1    #: sync devices before executing (loads/stores may hit MMIO)
F_TERM = 2    #: terminator — the block ends after this entry
F_CSR = 4     #: latch ``core._timer_cycles`` before executing (CSR reads)
#: Intercept terminator (with F_TERM): the entry holds the raw word
#: instead of a decoded instruction, and delivers it to its handler.
F_ICEPT = 16

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


class Block:
    """One predecoded basic block (plus its superblock chain links)."""

    __slots__ = ("start", "end", "entries", "valid", "starts", "mram",
                 "chainable", "links", "jit_fn", "region", "index",
                 "prefixes")

    def __init__(self, start: int, end: int, entries, chainable: bool,
                 starts: tuple, mram: bool):
        self.start = start
        #: The pc the block continues at when it runs off its last
        #: entry: just past that entry, or, when it is a ``jal`` the
        #: block continues through, its target (one that could not be
        #: decoded, or that the length limit left out).
        self.end = end
        #: list of (instr, pc, flags), in execution order, each pc at
        #: most once; a ``jal`` the block continues through is an entry
        #: without ``F_TERM``, and the next entry is at its target.  An
        #: intercept terminator (``F_ICEPT``) holds the raw word instead
        #: of the instr.
        self.entries = entries
        self.valid = True
        #: ``starts[i]``: the most cycles the engine's timer can advance
        #: before entry ``i`` begins, from the timing model and the
        #: fetch plan (``starts[0] == 0``).  While interrupts are
        #: deliverable a block runs compiled only if ``cycles +
        #: starts[-1]``, its last entry's start, is short of the bus
        #: horizon.
        self.starts = starts
        #: The namespace: an mram block (Metal-mode code) or a mem block.
        self.mram = mram
        #: The MJIT function of the region the block runs in (tier 2),
        #: or None until the engine first runs it off ``step()``.
        self.jit_fn = None
        #: The members of that region (the block alone, or a cycle of
        #: linked blocks, see :meth:`TranslationCache.join`), each of
        #: whose ``jit_fn`` is the same function, and the block's
        #: position among them (the function's entry argument).  Every
        #: eviction path that clears ``valid`` drops the region from all
        #: of its members, exactly as it severs chain links.
        self.region = None
        self.index = 0
        #: Whether the block's exit is eligible for chaining (branch/jal/
        #: jalr terminator, or the fall-through of a length-limited block).
        self.chainable = chainable
        #: The chain's target map, ``{next_pc: successor Block}``: one
        #: entry per target the exit has taken, installed on its first
        #: traversal and followed only while the successor is valid.
        self.links = {}
        #: The block's prefix blocks by length (:meth:`TranslationCache.
        #: prefix`), evicted with it.
        self.prefixes = {}

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
    if cls is InstrClass.LOAD or cls is InstrClass.STORE:
        return F_SYNC, False
    if mram and cls is InstrClass.METAL \
            and instr.mnemonic in _PLAIN_METAL_MNEMONICS:
        return 0, False
    flags = F_TERM
    if cls is InstrClass.CSR:
        flags |= F_CSR
    elif instr.mnemonic == "mipend":
        # It reads the pending lines: devices sync before it as before
        # a load.
        flags |= F_SYNC
    return flags, True


#: Micro-op IR kinds (first element of a :func:`uop_ir` tuple).  The
#: MJIT codegen (:mod:`repro.cpu.jit`) renders this IR and the MVTV
#: reference (:mod:`repro.verify.uopsem`) interprets it, so which entries
#: are "plain", and with what operands and baked constants, is decided
#: exactly once.
IR_NOP = 0   #: (IR_NOP, 0, 0, 0, None) — fence, or a dead rd==x0 write
IR_IMM = 1   #: (IR_IMM, rd, rs1, imm, mnemonic) — reg-imm ALU op
IR_REG = 2   #: (IR_REG, rd, rs1, rs2, mnemonic) — reg-reg ALU op
IR_SET = 3   #: (IR_SET, rd, value, 0, None) — lui/auipc constant, folded


def uop_ir(instr, pc: int):
    """Shared micro-op IR for a *plain* unit-cost entry, or ``None``.

    The IR is the single source of truth for which entries MJIT renders
    inline as register code (``repro.cpu.jit``) and with what operands
    and constants; the translation validator checks the generated code
    against the same IR.  Only entries that can never trap, never touch
    memory/devices, never redirect control and always cost the base
    fetch cycle qualify.
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


def fetch_plan(entries, line_size):
    """The block's I-cache fetch plan: one flag per entry, true for a
    *line head*.

    A block fetches sequentially, so only a line head — the block's
    first fetch, or the first fetch in a new line of *line_size* bytes —
    needs a real cache access; any other fetch re-reads the line the
    fetch just before it made most-recent in its set, which is a hit that
    leaves the LRU state unchanged.  With no I-cache (*line_size* None)
    the plan has no heads.
    """
    if line_size is None:
        return [False] * len(entries)
    heads = []
    prev = None
    for _instr, pc, _flags in entries:
        line = pc // line_size
        heads.append(line != prev)
        prev = line
    return heads


def _schedule_regs(instr):
    """``(rs_a, rs_b, rd)`` of a plain entry (or an mram ``rmr``/``wmr``)
    as ``execute()`` reports them to the timer: the registers read (0
    for none) and the one written (0 for none).  A write to x0 still
    reads its sources."""
    cls = instr.spec.cls
    if cls is InstrClass.ALU_IMM:
        return instr.rs1, 0, instr.rd
    if cls is InstrClass.ALU_REG:
        return instr.rs1, instr.rs2, instr.rd
    if cls is InstrClass.FENCE:
        return 0, 0, 0
    if instr.mnemonic == "wmr":
        return instr.rs1, 0, 0
    return 0, 0, instr.rd  # lui, auipc, rmr


def entry_index(block, pc: int) -> int:
    """Index of *block*'s entry at *pc*, or -1 when it has none there."""
    for index, (_instr, epc, _flags) in enumerate(block.entries):
        if epc == pc:
            return index
    return -1


class TranslationCache:
    """Per-engine cache of predecoded blocks, in two namespaces."""

    #: Longest block, in instructions.  Bounds compile latency and the
    #: interrupt-sampling work lost when a block aborts early.
    MAX_BLOCK_LEN = 64
    #: Most members, and most entries over all members, of one region
    #: (:meth:`join`).  Bounds a region's compile latency and source.
    MAX_REGION_MEMBERS = 8
    MAX_REGION_ENTRIES = 160

    def __init__(self, stats, line_size, scoreboard: bool, starts):
        self.stats = stats
        #: ``starts(entries, heads, mram)`` (see :attr:`Block.starts`),
        #: supplied by the engine, which knows its timer.
        self.starts = starts
        #: I-cache line size the mem blocks' fetch plans are compiled
        #: for (see :mod:`repro.cpu.jit`); None for a core with no I-cache.
        self.line_size = line_size
        #: Whether compiled code feeds a pipeline scoreboard
        #: (:class:`repro.cpu.pipeline.PipelineTimer`) rather than adding
        #: the analytic timer's costs itself.
        self.scoreboard = scoreboard
        #: Optional profiling sink (repro.profile.sink.TraceEventSink).
        #: When attached, compile/invalidate/flush/chain-break events are
        #: reported for the exported timeline; ``None`` costs nothing on
        #: the hot paths (checked only on the cold branches).
        self.sink = None
        #: The intercept rule set (a signature) mem blocks are compiled
        #: under; :meth:`select_rules` changes it.
        self.rules = NO_RULES
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
        return self._build(pc, bus, False)

    # ------------------------------------------------------------------
    # dispatch (Metal mode, MRAM)
    # ------------------------------------------------------------------
    def mram_block(self, pc: int, mram):
        """Cached (or freshly compiled) MRAM block at offset *pc*, or None."""
        if mram.code_version != self._mram_version:
            self._expire_mram(mram.code_version)
        block = self._mram.get(pc)
        if block is not None:
            self.stats.hits += 1
            return block
        self.stats.misses += 1
        if pc % 4:
            return None
        return self._build(pc, mram, True)

    def select_rules(self, rules) -> None:
        """Compile mem blocks under intercept rule set *rules* (an
        :attr:`~repro.metal.intercept.InterceptTable.signature`) from
        now on, flushing the blocks of another set."""
        if rules != self.rules:
            self.flush_mem()
        # Keep the installed object even when equal: the engine tests
        # by identity whether to select.
        self.rules = rules

    def _build(self, pc: int, code, mram: bool):
        """Decode the block headed at *pc* and register it.

        *code* is the fetch source: the MRAM for an mram block (*mram*),
        else the bus.  The block ends at a terminator, at
        :attr:`MAX_BLOCK_LEN` entries, or where fetch or decode fails.
        A ``jal`` whose target is word-aligned and not yet an entry of
        the block does not end it: it stays in as a plain entry and
        decoding resumes at the target.  In a mem block a word the
        selected rule set intercepts is the terminator, whether or not
        it decodes.
        """
        entries = []
        seen = set()
        p = pc
        chainable = True  # a length-limited block falls through
        rules = NO_RULES if mram else self.rules
        while len(entries) < self.MAX_BLOCK_LEN:
            try:
                if mram:
                    word = code.fetch(p)
                elif code.is_device(p):
                    # Never compile through a device region: device reads
                    # have side effects, and instruction fetch from MMIO
                    # takes the slow path anyway.
                    break
                else:
                    word = code.read_u32(p)
                if rules and intercepts(rules, word):
                    entries.append((word, p, F_TERM | F_ICEPT))
                    p += 4
                    chainable = False
                    break
                instr = decode(word)
            except (BusError, MramError, DecodeError):
                break
            flags, term = _classify(instr, mram)
            seen.add(p)
            if instr.spec.cls is InstrClass.JAL:
                target = (p + instr.imm) & 0xFFFFFFFF
                if not target & 3 and target not in seen:
                    entries.append((instr, p, 0))
                    p = target
                    continue
            entries.append((instr, p, flags))
            p += 4
            if term:
                chainable = instr.spec.cls in _CHAIN_CLASSES
                break
        if not entries:
            return None
        starts = self.starts(
            entries, fetch_plan(entries, None if mram else self.line_size),
            mram)
        block = Block(pc, p, entries, chainable, starts, mram)
        if mram:
            self._mram[pc] = block
        else:
            self._mem[pc] = block
            pages = self._mem_pages
            for page in {epc >> PAGE_SHIFT for _instr, epc, _flags in entries}:
                pages.setdefault(page, set()).add(pc)
        self.stats.blocks_compiled += 1
        if self.sink is not None:
            self.sink.tcache_event("compile", "mram" if mram else "mem",
                                   pc, len(entries))
        return block

    @staticmethod
    def prefix(block, k: int):
        """The block of *block*'s first *k* entries (``0 < k <
        len(block.entries)``), which falls through to entry *k*'s pc.

        The engine runs it when a dispatch refuses *block* (see
        :meth:`repro.cpu.functional.FunctionalSimulator._exec_block`).
        It is sliced, not decoded, and cached on *block*, so evicting
        *block* evicts it (:meth:`_evict`); MJIT compiles it as a
        one-member region at its first run.  It is never in the page map
        or a target map, and the dispatch's trail restarts at it, so it
        never joins a region.
        """
        prefix = block.prefixes.get(k)
        if prefix is None:
            entries = block.entries
            prefix = block.prefixes[k] = Block(
                block.start, entries[k][1], entries[:k], True,
                block.starts[:k], block.mram)
        return prefix

    # ------------------------------------------------------------------
    # MJIT tier 2 (repro.cpu.jit)
    # ------------------------------------------------------------------
    def jit_compile(self, block):
        """Compile *block* to tier 2 as its one-member region; returns
        the function, also cached on ``block.jit_fn``.

        Called by the engine the first time it runs *block* off
        ``step()``.  The codegen mode follows from this cache: mem
        blocks carry the fetch plan for :attr:`line_size`, and
        :attr:`scoreboard` makes the code feed the pipeline timer.
        """
        return self._compile((block,))

    def join(self, blocks) -> None:
        """Run the cycle *blocks* as one region from now on.

        *blocks* are the blocks one dispatch entered, in order, the
        first also the successor of the last.  The region's members are
        the union of their regions, in that order; it is compiled
        unless it is their region already, a member was evicted, or it
        exceeds :attr:`MAX_REGION_MEMBERS` members or
        :attr:`MAX_REGION_ENTRIES` entries.  So a region grows each time
        a dispatch leaves it and comes back, up to the caps.
        """
        members = []
        for block in blocks:
            for member in block.region or (block,):
                if member not in members:
                    members.append(member)
        region = members[0].region
        if (region is not None and len(region) == len(members)
                and all(member.region is region for member in members)):
            return
        if (len(members) > self.MAX_REGION_MEMBERS
                or sum(len(member.entries) for member in members)
                > self.MAX_REGION_ENTRIES
                or not all(member.valid for member in members)):
            return
        self._compile(tuple(members))

    def _compile(self, members):
        """Compile the region *members* and install it on each of them,
        dropping the regions they ran in before."""
        from repro.cpu import jit as mjit
        t0 = perf_counter()
        for member in members:
            self._drop(member)
        fn = mjit.compile_region(members, self.line_size, self.scoreboard,
                                 self._mram_version)
        for index, member in enumerate(members):
            member.jit_fn = fn
            member.region = members
            member.index = index
        self.stats.jit_compile_ms += (perf_counter() - t0) * 1e3
        self.stats.jit_blocks += 1
        if self.sink is not None:
            head = members[0]
            self.sink.tcache_event(
                "jit_compile", "mram" if head.mram else "mem", head.start,
                sum(len(member.entries) for member in members))
        return fn

    @staticmethod
    def _drop(block) -> None:
        """Drop the region *block* runs in from all of its members."""
        for member in block.region or ():
            member.jit_fn = None
            member.region = None

    @staticmethod
    def _evict(block) -> None:
        """Invalidate *block* and drop its region from every member, so
        neither a held reference nor another member's region function
        can run the stale code; and evict its prefixes, whose code runs
        the same entries."""
        block.valid = False
        for member in block.region or (block,):
            member.jit_fn = None
            member.region = None
        for prefix in block.prefixes.values():
            TranslationCache._evict(prefix)

    def iter_regions(self):
        """Yield the members of every live tier-2 region, once each,
        the one-member regions of compiled prefixes included.

        The MVTV translation validator (``repro.verify``) harvests the
        corpus through this: every region MJIT has compiled and not
        since dropped.
        """
        seen = set()
        for table in (self._mem, self._mram):
            for parent in table.values():
                if not parent.valid:
                    continue
                for block in (parent, *parent.prefixes.values()):
                    region = block.region
                    if region is not None and id(region) not in seen:
                        seen.add(id(region))
                        yield region

    def is_prefix(self, block) -> bool:
        """Whether *block* is a prefix block (:meth:`prefix`) of the
        block cached at its start."""
        parent = (self._mram if block.mram else self._mem).get(block.start)
        return parent is not None and block in parent.prefixes.values()

    def tier_of(self, ns: str, pc: int):
        """Execution tier of the cached block headed at *pc*: ``"jit"``
        (it or one of its prefixes is compiled), ``"step"`` (MJIT never
        compiled either, so only the engine's ``step()`` has run it), or
        ``None`` when nothing is cached there.  Used by the MPROF
        hot-trace report to label traces with the tier that executed
        them."""
        table = self._mem if ns == "mem" else self._mram
        block = table.get(pc)
        if block is None or not block.valid:
            return None
        compiled = (block, *block.prefixes.values())
        if any(member.jit_fn is not None for member in compiled):
            return "jit"
        return "step"

    # ------------------------------------------------------------------
    # superblock chaining
    # ------------------------------------------------------------------
    def chain_next(self, block, next_pc: int, mram: bool, code):
        """Follow (or install) *block*'s chain link toward *next_pc*.

        Returns the successor block of the same namespace (*mram*, with
        *code* the MRAM or the bus it is fetched from), or ``None`` when
        the target cannot be translated.  A hit is one lookup in the
        target map and the successor's ``valid`` test.  A miss while the
        map holds any entry — the successor evicted, or a target the
        exit has not taken before — is a chain break; the target is
        resolved through :meth:`mem_block` or :meth:`mram_block` and
        linked, so a chain can never reach stale code.
        """
        links = block.links
        nxt = links.get(next_pc)
        if nxt is not None and nxt.valid:
            self.stats.chain_hits += 1
            return nxt
        if links:
            self.stats.chain_breaks += 1
            if self.sink is not None:
                self.sink.tcache_event("chain_break",
                                       "mram" if block.mram else "mem",
                                       block.start)
        if next_pc % 4:
            return None
        if mram:
            nxt = self.mram_block(next_pc, code)
        else:
            nxt = self.mem_block(next_pc, code)
        if nxt is not None:
            links[next_pc] = nxt
            self.stats.chain_links += 1
        return nxt

    def cross_next(self, block, next_pc: int, mram: bool, code):
        """:meth:`chain_next` across a Metal transition into the *mram*
        namespace (or out of it).  Entering MRAM first applies the lazy
        ``code_version`` flush :meth:`mram_block` makes, so a warm link
        from a mem block never reaches a translation of reloaded
        mroutine code."""
        if mram and code.code_version != self._mram_version:
            self._expire_mram(code.code_version)
        return self.chain_next(block, next_pc, mram, code)

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def on_ram_write(self, addr: int, length: int) -> None:
        """Write-notification hook: evict mem blocks on touched pages.

        Registered with :meth:`repro.mem.bus.MemoryBus.watch_writes`;
        fires for guest stores, host pokes, program loads and DMA alike.
        """
        pages = self._mem_pages
        first = addr >> PAGE_SHIFT
        last = (addr + length - 1) >> PAGE_SHIFT
        if first == last and first not in pages:
            return  # the common store: one page, and no block on it
        for page in range(first, last + 1):
            starts = pages.pop(page, None)
            if starts is None:
                continue
            blocks = self._mem
            sink = self.sink
            for start in starts:
                block = blocks.pop(start, None)
                if block is not None and block.valid:
                    self._evict(block)
                    self.stats.invalidations += 1
                    if sink is not None:
                        sink.tcache_event("invalidate", "mem", start)

    def flush_mem(self) -> None:
        if self._mem:
            count = len(self._mem)
            for block in self._mem.values():
                self._evict(block)
            self.stats.invalidations += count
            self._mem.clear()
            self._mem_pages.clear()
            if self.sink is not None:
                self.sink.tcache_event("flush", "mem", 0, count)
        self.stats.flushes += 1

    def _expire_mram(self, version) -> None:
        """Drop the mram namespace and compile for MRAM code *version*
        next.  This is the lazy invalidation after an mroutine
        load/unload (or a snapshot restore) bumped the code version:
        the blocks are marked invalid (not just unreachable) so chain
        links held by surviving predecessors can never be followed into
        the stale code."""
        if self._mram:
            count = len(self._mram)
            for block in self._mram.values():
                self._evict(block)
            self.stats.invalidations += count
            self._mram.clear()
            if self.sink is not None:
                self.sink.tcache_event("flush", "mram", 0, count)
        self._mram_version = version
