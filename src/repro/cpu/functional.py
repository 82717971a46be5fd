"""The functional execution engine.

Instruction-at-a-time interpretation with an analytic cycle model
(:class:`SimpleTimer`).  This is the reference engine: the pipeline engine
reuses the same executor and differs only in how cycles are accounted.

The engine owns the *inter-instruction* architecture: interrupt sampling
(never inside Metal mode, paper §2.1), instruction interception (paper
§2.3), trap dispatch (to mroutines on a Metal machine, to ``mtvec`` on the
baseline), and WFI sleep.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from time import perf_counter

from repro.errors import (
    DecodeError,
    ExecutionLimitExceeded,
    GuestPanic,
    HaltedError,
    SimulatorError,
)
from repro.cpu.exceptions import Cause, TrapException
from repro.cpu.executor import StepInfo, execute
from repro.cpu.stats import PerfCounters
from repro.cpu.tcache import TranslationCache, entry_index
from repro.cpu.timing import TimingModel
from repro.isa.decoder import decode
from repro.isa.instruction import InstrClass
from repro.isa.opcodes import SPECS
from repro.mem.mmio import NEVER

_MULDIV_MNEMONICS = tuple(mnemonic for mnemonic, spec in SPECS.items()
                          if spec.cls is InstrClass.MULDIV)

#: Interrupt horizon of a dispatch whose interrupts are not deliverable:
#: above every bus horizon, so no horizon test ever fires.
MASKED = NEVER << 1

#: Control kind (``StepInfo.control``) a redirecting class reports.
_CONTROL_OF_CLASS = {InstrClass.BRANCH: "branch", InstrClass.JAL: "jal",
                     InstrClass.JALR: "jalr"}


def cost_key(instr) -> str:
    """The timers' cost key of *instr* when it redirects: its control
    kind (``mexitm`` is an ``mexit``), else its mnemonic."""
    control = _CONTROL_OF_CLASS.get(instr.spec.cls)
    if control is not None:
        return control
    return "mexit" if instr.mnemonic == "mexitm" else instr.mnemonic


def data_latency(instr, data: int, mram_fetch: int) -> int:
    """Worst data-access latency of *instr*: *data* for a bus load or
    store, ``mram_fetch`` for an MRAM data access, else 0."""
    cls = instr.spec.cls
    if (cls is InstrClass.LOAD or cls is InstrClass.STORE
            or instr.mnemonic in ("mpld", "mpst")):
        return data
    if instr.mnemonic in ("mld", "mst"):
        return mram_fetch
    return 0


def muldiv_extra(timing: TimingModel) -> dict:
    """Extra execute cycles of every MULDIV mnemonic under *timing*."""
    return {mnemonic: (timing.div_extra if mnemonic.startswith(("div", "rem"))
                       else timing.mul_extra)
            for mnemonic in _MULDIV_MNEMONICS}


def block_starts(timer, mem_fetch, data: int, entries, heads,
                 mram: bool) -> tuple:
    """``starts[i]``: the most cycles *timer* can advance before entry
    ``i`` of a block of *entries* (fetch plan *heads*, mram namespace if
    *mram*) begins; ``starts[0] == 0``.  *mem_fetch* is the worst
    ``(line head, other)`` fetch latency of a mem block, *data* that of
    a load or store.  The last entry is never priced, so an intercept
    terminator (a raw word) needs no case of its own."""
    if mram:
        head = other = timer.timing.mram_fetch
    else:
        head, other = mem_fetch
    return timer.block_starts(
        entries, [head if is_head else other for is_head in heads], data)


#: Effectively-unbounded chain quantum used when no profiler is attached:
#: the largest one-digit int, so a region's edge test ``loops < quantum``
#: stays on CPython's fast small-int compare.
_CHAIN_UNLIMITED = (1 << 30) - 1

#: Blocks one dispatch remembers entering, to find a cycle to join into
#: a region: twice the most members a region has.
_TRAIL = 2 * TranslationCache.MAX_REGION_MEMBERS


class SimpleTimer:
    """Analytic per-instruction cycle model.

    Approximates a 5-stage pipeline: one cycle per instruction, plus fetch
    latency beyond one cycle, plus data-memory latency beyond the one
    cycle the MEM stage hides, plus class/control penalties from one
    table, :attr:`extra`.  MJIT's analytic codegen modes
    (:mod:`repro.cpu.jit`) reproduce this cost line for line.
    """

    def __init__(self, timing: TimingModel):
        self.timing = timing
        self.cycles = 0
        #: Extra cycles keyed by ``step.control or step.mnemonic``: the
        #: control kind of a redirecting instruction, else the mnemonic,
        #: which only MULDIV instructions have an entry for.
        self.extra = {
            "branch": timing.branch_taken_penalty,
            "jal": timing.jump_penalty,
            "jalr": timing.branch_taken_penalty,
            "mret": timing.mret_penalty,
            "menter": timing.menter_cost,
            "mexit": timing.mexit_cost,
            "mraise": timing.jump_penalty,
            **muldiv_extra(timing),
        }

    def note(self, step: StepInfo) -> None:
        fetch = step.fetch_latency
        mem = step.mem_latency
        self.cycles += ((fetch if fetch > 1 else 1)
                        + (mem - 1 if mem > 1 else 0)
                        + self.extra.get(step.control or step.mnemonic, 0))

    def block_starts(self, entries, fetches, data: int) -> tuple:
        """Most cycles :meth:`note` can add before each of *entries*
        begins, when their fetches take at most ``fetches[i]`` and
        their loads and stores at most *data*: every redirect taken,
        every access the slowest (see :func:`block_starts`)."""
        extra = self.extra
        mram_fetch = self.timing.mram_fetch
        total = 0
        starts = [0]
        for (instr, _pc, _flags), fetch in zip(entries[:-1], fetches):
            mem = data_latency(instr, data, mram_fetch)
            total += ((fetch if fetch > 1 else 1)
                      + (mem - 1 if mem > 1 else 0)
                      + extra.get(cost_key(instr), 0))
            starts.append(total)
        return tuple(starts)

    def note_event(self, cycles: int) -> None:
        """Charge raw cycles (trap dispatch, redirects, idle waits)."""
        self.cycles += cycles

    def note_trap(self, metal: bool) -> None:
        if metal:
            self.note_event(self.timing.delivery_redirect)
        else:
            self.note_event(self.timing.trap_flush)

    def note_intercept(self) -> None:
        self.note_event(self.timing.intercept_redirect)


@dataclass
class RunResult:
    """Summary of one :meth:`FunctionalSimulator.run` call."""

    instructions: int
    cycles: int
    halted: bool
    stop_reason: str

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


class FunctionalSimulator:
    """Reference engine: functional semantics + analytic timing.

    With the translation cache enabled (the default) the engine runs
    predecoded basic blocks between interrupt/intercept sample points,
    chaining blocks into superblocks across pure control flow and
    across Metal transitions (``menter``, ``mexit``/``mexitm``, a trap
    delivered to an mroutine), so hot traces never return to the
    dispatch loop.  A block runs as MJIT code, compiled at its first
    dispatch, and each hot cycle of linked blocks as one compiled
    region, whose edges test the dispatch's admission rule in place;
    :meth:`step` remains the one-instruction-at-a-time
    reference path, which runs every instruction while a step hook is
    subscribed, and the two produce bit-identical architectural state,
    instruction counts and cycle counts (see docs/PERF.md).  Live
    interrupts need no polling: a block runs compiled while its last
    entry starts short of the bus horizon
    (:class:`repro.mem.bus.MemoryBus`), and otherwise its longest prefix
    that does.
    """

    #: Safety valve for WFI with no event source.
    MAX_WFI_CYCLES = 50_000_000

    #: Chained block transitions one dispatch may make while a profiler
    #: is attached.  Bounding the quantum keeps retired-trace records
    #: meaningful (a hot loop shows up as many records headed at its
    #: loop body instead of one run-length record headed at ``_start``)
    #: while amortising the per-record cost over dozens of blocks.
    PROFILE_CHAIN_QUANTUM = 64

    def __init__(self, core, timer=None, tcache: bool = True):
        self.core = core
        self.timer = timer or SimpleTimer(core.timing)
        core.bus.clock = self.timer
        self._sync = self._horizon_sync()
        #: Per-step hooks, each called as fn(StepInfo) after every
        #: instruction :meth:`step` retires (tracing, debugging).
        self.step_hooks = []
        #: Host-side performance counters (see repro.cpu.stats).
        self.perf = PerfCounters()
        icache = core.icache
        dcache = core.dcache
        timing = core.timing
        # Worst-case latencies for block starts: a line head may miss
        # the I-cache (any other fetch hits it), and a load or store may
        # take the slower of a D-cache miss and an MMIO access.
        if icache is None:
            mem_fetch = (timing.mem_latency, timing.mem_latency)
        else:
            mem_fetch = (icache.hit_latency + icache.miss_latency,
                         icache.hit_latency)
        data = max(dcache.hit_latency + dcache.miss_latency
                   if dcache is not None else timing.mem_latency,
                   timing.mmio_latency)
        # Compiled code feeds the pipeline scoreboard through its
        # ``note_run`` and ``note_op``; the analytic timer's costs it
        # adds itself.  (The bus holds the cache through its write
        # watcher, so nothing the cache holds may lead back to the bus.)
        self._tcache = TranslationCache(
            self.perf.tcache,
            line_size=icache.line_size if icache is not None else None,
            scoreboard=not isinstance(self.timer, SimpleTimer),
            starts=partial(block_starts, self.timer, mem_fetch, data))
        #: Optional trace-profiling sink (repro.profile.sink); attach via
        #: :meth:`set_profile_sink`.  None keeps the run loops at one
        #: pointer test per retired trace.
        self._profile_sink = None
        self._profile_chain_limit = _CHAIN_UNLIMITED
        self._hooks_installed = False
        self._tcache_enabled = False
        if tcache:
            self.tcache_enabled = True

    # ------------------------------------------------------------------
    @property
    def tcache_enabled(self) -> bool:
        """Whether ``run`` uses the predecoded-block fast path."""
        return self._tcache_enabled

    @tcache_enabled.setter
    def tcache_enabled(self, value: bool) -> None:
        value = bool(value)
        if value and not self._hooks_installed:
            self.core.bus.watch_writes(self._tcache.on_ram_write)
            self._hooks_installed = True
        self._tcache_enabled = value

    @property
    def tcache(self) -> TranslationCache:
        return self._tcache

    # ------------------------------------------------------------------
    # profiling / per-step hooks (see repro.profile)
    # ------------------------------------------------------------------
    @property
    def profile_sink(self):
        """The attached trace-event sink, or None (profiling off)."""
        return self._profile_sink

    def set_profile_sink(self, sink) -> None:
        """Attach (or with ``None`` detach) a trace-event sink.

        Guest-invisible: the sink only observes retirements and tcache
        events.  While attached, chained dispatches are bounded at
        :attr:`PROFILE_CHAIN_QUANTUM` block transitions per trace record
        — the same place a budget exhaustion would break the chain, so
        architectural state, instruction counts and cycle counts are
        bit-identical with profiling on or off.
        """
        self._profile_sink = sink
        self._tcache.sink = sink
        if sink is not None:
            timer = self.timer
            sink.clock = lambda: timer.cycles
            self._profile_chain_limit = self.PROFILE_CHAIN_QUANTUM
        else:
            self._profile_chain_limit = _CHAIN_UNLIMITED

    def add_step_hook(self, fn) -> None:
        """Subscribe *fn(StepInfo)* to the per-step event stream.

        While a hook is subscribed every instruction retires on
        :meth:`step`, so the hooks see each one's StepInfo.
        """
        self.step_hooks.append(fn)

    def remove_step_hook(self, fn) -> None:
        """Unsubscribe *fn*, if it is subscribed."""
        if fn in self.step_hooks:
            self.step_hooks.remove(fn)

    # ------------------------------------------------------------------
    @property
    def cycles(self) -> int:
        return self.timer.cycles

    def _sync_devices(self) -> None:
        """Tick every device up to the current cycle (the reference
        path: :meth:`step` calls this after every instruction)."""
        self.core.bus.advance(self.timer.cycles)

    def _horizon_sync(self):
        """The fast path's device sync: devices catch up only once the
        cycle count reaches the bus horizon.  Below it no interrupt line
        can rise and no DMA can land, and a register access catches the
        devices up itself (see :class:`repro.mem.bus.MemoryBus`)."""
        timer = self.timer
        bus = self.core.bus

        def sync():
            cycles = timer.cycles
            if cycles >= bus.horizon:
                bus.advance(cycles)
        return sync

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one instruction (or take one interrupt/trap)."""
        core = self.core
        if core.halted:
            raise HaltedError("machine is halted")
        # expose cycle counter for rdcycle-style CSR reads
        core._timer_cycles = self.timer.cycles

        if core.waiting:
            self._wait_for_interrupt()
            if core.halted:
                return

        if self._maybe_take_interrupt():
            self._sync_devices()
            return

        pc = core.pc
        try:
            word, fetch_latency = core.fetch(pc)
        except TrapException as trap:
            self._dispatch_trap(trap, pc)
            self._sync_devices()
            return

        # Instruction interception (normal mode only, paper §2.3).
        metal = core.metal
        if metal is not None and not metal.in_metal and not metal.intercept.empty:
            metal.note_fetch(pc)
            if self._intercept(pc, word):
                # The word was fetched (the two charges commute on both
                # timers).
                self.timer.note_event(fetch_latency)
                self._sync_devices()
                return

        try:
            instr = decode(word)
        except DecodeError:
            self._dispatch_trap(TrapException(Cause.ILLEGAL_INSTRUCTION, word), pc)
            self._sync_devices()
            return

        try:
            step = execute(core, instr, pc, fetch_latency=fetch_latency)
        except TrapException as trap:
            self._dispatch_trap(trap, pc)
            self._sync_devices()
            return

        core.pc = step.next_pc
        core.instret += 1
        self.timer.note(step)
        if self.step_hooks:
            # Looping over an empty list would still build an iterator.
            for hook in self.step_hooks:
                hook(step)
        self._sync_devices()

    # ------------------------------------------------------------------
    def _intercept(self, pc: int, word: int) -> bool:
        """Deliver the normal-mode *word* at *pc* to its intercept
        handler if a rule matches it: the hit count, the redirect, the
        operand latch and the handler entry.  Shared by :meth:`step` and
        the block loops, whose intercept terminators have charged the
        word's fetch already."""
        core = self.core
        metal = core.metal
        entry = metal.intercept.match(word)
        if entry is None:
            return False
        self.timer.note_intercept()
        # The decode stage had already read the instruction's operands;
        # hardware latches them for the handler.
        regs = core.regs
        core.pc = metal.deliver(
            Cause.INTERCEPT, pc, word, entry=entry,
            operands=(regs[(word >> 15) & 31], regs[(word >> 20) & 31]),
        )
        return True

    def _dispatch_trap(self, trap: TrapException, pc: int) -> None:
        core = self.core
        metal = core.metal
        if trap.cause == Cause.INTERCEPT:
            # A block's intercept terminator: the rule set it was
            # compiled under is still installed (only Metal mode changes
            # it, and the tcache flushes the blocks of another set), so
            # the word matches.  A word that does not would neither run
            # nor retire, and the run would spin on it.
            if not self._intercept(pc, trap.info):
                raise SimulatorError(
                    f"stale intercept terminator at pc={pc:#010x}: no "
                    f"installed rule matches word {trap.info:#010x}")
            return
        if metal is not None:
            if metal.in_metal:
                routine = metal.current_routine(pc)
                name = routine.name if routine else "?"
                raise GuestPanic(
                    f"double fault in mroutine {name!r} at MRAM+{pc:#x}: "
                    f"cause={trap.cause} info={trap.info:#x}"
                ) from trap
            # For illegal instructions, decode had already read the operand
            # registers; latch them (m25/m24) like an intercept so emulation
            # handlers (e.g. §3.5 trap-and-emulate virtualization) can see
            # the values without racing their own GPR spills.
            operands = None
            if trap.cause == Cause.ILLEGAL_INSTRUCTION:
                word = trap.info
                operands = (
                    core.regs[(word >> 15) & 31],
                    core.regs[(word >> 20) & 31],
                )
            core.pc = metal.deliver(trap.cause, epc=pc, info=trap.info,
                                    operands=operands)
            self.timer.note_trap(metal=True)
            return
        handler = core.csrs.trap_enter(pc, trap.cause, trap.info, core.user_mode)
        if handler == 0:
            raise GuestPanic(
                f"trap with mtvec unset: cause={trap.cause} "
                f"info={trap.info:#x} pc={pc:#010x}"
            ) from trap
        core.user_mode = False
        core.pc = handler
        self.timer.note_trap(metal=False)

    def _maybe_take_interrupt(self) -> bool:
        core = self.core
        irq = core.irq
        if irq is None:
            return False
        metal = core.metal
        if metal is not None:
            if metal.in_metal or not metal.delivery.interrupts_enabled:
                return False
            line = irq.highest_pending()
            if line is None:
                return False
            cause = Cause.interrupt(line)
            if metal.delivery.handler_for(cause) is None:
                return False  # unrouted lines stay pending (level-triggered)
            core.pc = metal.deliver(cause, epc=core.pc, info=line)
            self.timer.note_trap(metal=True)
            return True
        if not core.csrs.interrupts_enabled:
            return False
        line = irq.highest_pending()
        if line is None:
            return False
        trap = TrapException(Cause.interrupt(line), line)
        handler = core.csrs.trap_enter(core.pc, trap.cause, line, core.user_mode)
        if handler == 0:
            raise GuestPanic("interrupt with mtvec unset")
        core.user_mode = False
        core.pc = handler
        self.timer.note_trap(metal=False)
        return True

    def _wait_for_interrupt(self) -> None:
        """Sleep in whole ``wfi_stride`` steps until a line is pending.
        Below the bus horizon no line can rise, so each check charges
        every stride up to the first stride boundary at or past the
        horizon at once: at least one, and none past the one at which
        the wait gives up.  Both timers' ``note_event`` is additive and
        device ``tick`` batch-exact, so one charge and one device sync
        leave the timer and the devices as that many single strides
        would, and the wake boundary is the same."""
        core = self.core
        irq = core.irq
        if irq is None:
            raise GuestPanic("wfi with no interrupt controller")
        stride = core.timing.wfi_stride
        bus = core.bus
        timer = self.timer
        waited = 0
        while True:
            if irq.pending_bitmap():
                core.waiting = False
                return
            strides = -((timer.cycles - bus.horizon) // stride)
            left = (self.MAX_WFI_CYCLES - waited) // stride + 1
            if strides > left:
                strides = left
            elif strides < 1:
                strides = 1
            timer.note_event(strides * stride)
            self._sync_devices()
            waited += strides * stride
            if waited > self.MAX_WFI_CYCLES:
                raise GuestPanic("wfi never woke (no pending event source)")

    # ------------------------------------------------------------------
    # translation-cache fast path
    # ------------------------------------------------------------------
    def _fast_step(self, budget: int, stop_pc: int) -> None:
        """Advance by one dispatch of predecoded blocks, or on :meth:`step`.

        Preserves the exact inter-instruction architecture of the
        one-at-a-time path: device state is synced before any
        observation point, an interrupt is taken at the same entry
        boundary, and neither the instruction budget nor *stop_pc* (-1
        for none; normal mode only) is ever overshot.  The block at the
        pc runs compiled when :meth:`_exec_block` admits it, and its
        longest admissible prefix when it does not.  So :meth:`step`
        runs only in three cases: to deliver an interrupt that is due
        (the cycle count has reached the interrupt horizon), while a
        step hook is subscribed, and when there is no block (a waiting
        core, paging on, the nested layered view holding a rule, a pc
        nothing compiles at), where one :meth:`step` runs.  In the first
        two it runs the block's entries up to the entry at *stop_pc* or
        the budget's end, or up to its first jump or taken branch when
        that comes first (a delivery is one), so the hooks see each
        StepInfo.  An attached profile sink gets one trace record for
        what :meth:`step` retired here, headed at the pc the run began
        at.  A dispatch that begins in Metal mode keeps *stop_pc* for
        the normal-mode code its ``mexit`` crosses into.
        """
        core = self.core
        metal = core.metal
        mram = metal is not None and metal.in_metal
        block = None
        if not core.waiting:
            if mram:
                block = self._tcache.mram_block(core.pc, metal.mram)
                hz = MASKED
            else:
                hz = self._mem_horizon()
                if hz is not None:
                    block = self._tcache.mem_block(core.pc, core.bus)
            if (block is not None and not self.step_hooks
                    and self._exec_block(block, budget, stop_pc, mram, hz)):
                return
        timer = self.timer
        cycles0 = timer.cycles
        instret0 = core.instret
        head = core.pc
        if block is None:
            self.step()
        else:
            count = budget
            if not mram and stop_pc != -1:
                # The entries before the one at stop_pc (run() stops at
                # the head itself before dispatching).
                at = entry_index(block, stop_pc)
                if 0 <= at < count:
                    count = at
            for _ in range(min(count, len(block.entries))):
                pc = core.pc
                self.step()
                if core.halted or core.pc != pc + 4:
                    break
        sink = self._profile_sink
        if sink is not None and core.instret > instret0:
            sink.note_trace("mram" if mram else "mem", head, 0,
                            core.instret - instret0, timer.cycles,
                            timer.cycles - cycles0)

    def _mem_horizon(self):
        """The interrupt horizon a normal-mode dispatch runs under: the
        bus horizon while interrupts are deliverable, else
        :data:`MASKED`; or None when no normal-mode block may run, since
        they assume identity fetch translation and an intercept rule
        set a translation can evaluate (not the nested layered view's
        while it holds a rule).  It also selects the installed rule set
        in the tcache, which flushes the mem blocks of another set.
        Only terminators that end a dispatch (CSR writes, and trap
        entries on the trap baseline) and mroutines can change these, so
        a dispatch checks them once and again at each ``mexit``
        crossing."""
        core = self.core
        metal = core.metal
        if core.tlb.enabled:
            return None
        if metal is not None:
            rules = metal.intercept.signature
            if rules is not self._tcache.rules:
                if rules is None:
                    return None
                self._tcache.select_rules(rules)
        if core.irq is not None and (
                metal.delivery.interrupts_enabled if metal is not None
                else core.csrs.interrupts_enabled):
            return core.bus.horizon
        return MASKED

    def _exec_block(self, block, budget: int, stop_pc: int,
                    mram: bool, hz: int) -> bool:
        """Run *block* and the superblock chain behind it; return False,
        having run nothing, when an interrupt is due.

        One rule admits every block of the dispatch, *block* included:
        the budget covers it, it has no entry at *stop_pc*, and its last
        entry starts short of the interrupt horizon *hz*, ``cycles +
        block.starts[-1] < hz`` (*hz* is the bus horizon while
        interrupts are deliverable, else :data:`MASKED`).  :meth:`step`
        samples interrupts before each fetch, against devices synced at
        the end of the instruction before, and below the horizon no
        interrupt line rises and no DMA lands: so such a block has no
        entry boundary at which :meth:`step` would take one.  The last
        entry's own cost may cross the horizon; the dispatch's closing
        sync then raises the line before the next boundary, as
        :meth:`step`'s device sync does.  A load or store that pulls the
        bus horizon below *hz* (a timer armed, a fault injected from
        inside an MMIO access) ends the dispatch at the next entry
        boundary.

        A refused block, wherever it falls in the dispatch, runs its
        longest admissible prefix instead
        (:meth:`repro.cpu.tcache.TranslationCache.prefix`): its first k
        entries, k at most the budget left, at most the index of the
        entry at *stop_pc*, and the k-th starting short of *hz*; the
        chain goes on at the entry after them.  Only k == 0 ends the
        dispatch there: at the horizon an interrupt is due, and for the
        first block this returns False and :meth:`step` delivers it.

        Every block runs as the MJIT function of its region (one block,
        or a cycle of linked blocks, see :mod:`repro.cpu.jit`), compiled
        at its first dispatch.  Inside a region an exit to a member
        tests this rule in place, with the chain quantum; any other exit
        returns here naming the member it left, and the chain goes on
        from that member.  When the chain comes back to a block this
        dispatch entered since its last prefix, the blocks entered since
        join one region
        (:meth:`repro.cpu.tcache.TranslationCache.join`); a prefix never
        joins one.

        On a Metal machine with no profile sink attached, the chain
        also *crosses* namespaces: after a block whose exit switched
        the mode bit (``menter``, ``mexit``/``mexitm``) or whose
        terminator trapped in normal mode (delivered here, into its
        mroutine), the namespace locals switch and the block's target
        map leads into the other namespace.  A region crosses inside
        itself the same way.  Metal mode is never interruptible and has
        no *stop_pc*; the ``mexit`` crossing re-checks what
        :meth:`_fast_step` checks (:meth:`_mem_horizon`).  A trap at an
        inner entry ends the dispatch: only a terminator's target map
        holds the other namespace's pcs.
        """
        core = self.core
        timer = self.timer
        bus = core.bus
        metal = core.metal
        stats = self.perf.tcache
        tcache = self._tcache
        sink = self._profile_sink
        chain_limit = self._profile_chain_limit
        head = block.start
        cycles0 = timer.cycles if sink is not None else 0
        ns = "mram" if mram else "mem"
        # The namespace locals, which a crossing switches (with hz):
        # the code source chain lookups fetch from, and stop_pc, which
        # names a normal-mode pc.
        if mram:
            code, stop = metal.mram, -1
        else:
            code, stop = bus, stop_pc
        chain_next = tcache.chain_next
        sync = self._sync
        # An MPROF trace record covers one namespace.
        crossing = metal is not None and sink is None
        # A region's crossing re-check at an mexit (None: no crossing).
        cross = self._mem_horizon if crossing else None
        instret0 = core.instret
        retired = 0
        # Chain transitions made; -1 until the first block is admitted.
        chained = -1
        # The blocks this dispatch entered, for joining a cycle.
        trail = []
        trap = None

        try:
            while True:
                starts = block.starts
                if (budget - retired < len(starts)
                        or stop != -1 and entry_index(block, stop) >= 0
                        or timer.cycles + starts[-1] >= hz):
                    k = min(budget - retired,
                            bisect_left(starts, hz - timer.cycles))
                    if stop != -1:
                        at = entry_index(block, stop)
                        if 0 <= at < k:
                            k = at
                    if not k:
                        if chained < 0:
                            return False
                        break
                    block = tcache.prefix(block, k)
                    # A prefix never joins a region.
                    del trail[:]
                chained += 1
                if chained > stats.chain_longest:
                    stats.chain_longest = chained
                if len(trail) < _TRAIL:
                    trail.append(block)
                # MJIT code (repro.cpu.jit).  The function owns the timer,
                # the I-cache fetch plan and the register file for its
                # region; ``core.pc`` and ``core.instret`` are published
                # here.
                jfn = block.jit_fn or tcache.jit_compile(block)
                members = block.region
                status, next_pc, jret, jloops, trap, m, hz = jfn(
                    core, block.index, timer, sync, instret0 + retired,
                    budget - retired, stop_pc, hz, chain_limit - chained,
                    cross)
                retired += jret
                if jloops:
                    # Edges inside the region are chain transitions.
                    chained += jloops
                    stats.chain_hits += jloops
                    if chained > stats.chain_longest:
                        stats.chain_longest = chained
                # 1: invalidated mid-trace or horizon pulled in; 2: trap
                # at next_pc.
                core.pc = next_pc
                block = members[m]
                if block.mram != mram:
                    # The region crossed into the other namespace.
                    mram = block.mram
                    if mram:
                        code, stop = metal.mram, -1
                    else:
                        code, stop = bus, stop_pc
                if status or not block.chainable:
                    # The dispatch ends here unless the block crossed into
                    # the other namespace.
                    if not crossing:
                        break
                    if status:
                        # A trap leaves core.pc at the faulting entry.
                        if (status == 1 or mram or block.chainable
                                or core.pc != block.entries[-1][1]
                                or not isinstance(trap, TrapException)):
                            break
                        # A normal-mode terminator trapped or was
                        # intercepted: deliver it now.
                        self._dispatch_trap(trap, core.pc)
                        # The trap's traceback holds this frame.
                        trap = None
                    elif metal.in_metal == mram:
                        break
                    if mram:
                        hz = self._mem_horizon()
                        if hz is None:
                            break
                        mram = False
                        code, stop = bus, stop_pc
                    else:
                        hz = MASKED
                        mram = True
                        code, stop = metal.mram, -1
                    nxt = tcache.cross_next(block, core.pc, mram, code)
                elif chained >= chain_limit:
                    break
                else:
                    nxt = chain_next(block, core.pc, mram, code)
                # The successor of a pure control transfer (or of the
                # fall-through of a length-limited block) or a crossing,
                # if it is admitted at the loop head.
                if nxt is None:
                    break
                if nxt in trail:
                    # Back at a block this dispatch entered: a cycle.
                    tcache.join(trail[trail.index(nxt):])
                    del trail[:]
                block = nxt
        finally:
            # However the dispatch ends (an in-loop delivery raises for
            # an unrouted cause), publish what it retired.
            core.instret = instret0 + retired
            stats.fast_instructions += retired
            stats.jit_instructions += retired
        if sink is not None:
            sink.note_trace(ns, head, chained, retired,
                            timer.cycles, timer.cycles - cycles0)
        if trap is not None:
            if not isinstance(trap, TrapException):
                # A delivery inside a region raised (an unrouted cause).
                raise trap
            # In Metal mode this is a double fault: it raises.
            self._dispatch_trap(trap, core.pc)
            # The trap's traceback holds this frame: drop the local
            # so the pair is not left for the cyclic collector.
            trap = None
        sync()
        return True

    # ------------------------------------------------------------------
    def run(self, max_instructions: int = 5_000_000, stop_pc: int = None,
            raise_on_limit: bool = True) -> RunResult:
        """Run until halt, *stop_pc* (normal mode), or the budget."""
        core = self.core
        start_instret = core.instret
        start_cycles = self.timer.cycles
        perf = self.perf
        fast = self._tcache_enabled
        stop = -1 if stop_pc is None else stop_pc
        reason = "limit"
        bus = core.bus
        # Host calls between runs (packets scheduled, input fed, faults
        # injected, a snapshot restored) may have moved the horizon.
        bus.advance(start_cycles)
        bus.refresh()
        host_start = perf_counter()
        try:
            while core.instret - start_instret < max_instructions:
                if core.halted:
                    reason = "halt"
                    break
                if core.pc == stop and not core.in_metal:
                    reason = "stop_pc"
                    break
                if fast:
                    self._fast_step(
                        max_instructions - (core.instret - start_instret),
                        stop,
                    )
                else:
                    self.step()
            else:
                if raise_on_limit:
                    raise ExecutionLimitExceeded(max_instructions)
        finally:
            perf.host_seconds += perf_counter() - host_start
            perf.guest_instructions += core.instret - start_instret
            # Devices lag below the horizon: host reads see them exact.
            bus.advance(self.timer.cycles)
        if core.halted:
            reason = "halt"
        return RunResult(
            instructions=core.instret - start_instret,
            cycles=self.timer.cycles - start_cycles,
            halted=core.halted,
            stop_reason=reason,
        )
