"""Cycle-level 5-stage pipeline engine.

The pipeline engine shares the functional executor (one implementation of
semantics — no engine divergence) and replaces the analytic timer with a
*scoreboard* that schedules every retired instruction through the five
stages IF/ID/EX/MEM/WB, enforcing:

* in-order single-issue stage occupancy (one instruction per stage/cycle);
* full forwarding: ALU results are available to EX one cycle later
  (modelled by stage occupancy), load results only after MEM — giving the
  classic one-cycle load-use interlock;
* predict-not-taken control flow: taken branches and ``jalr`` redirect the
  fetch stream after EX (two bubbles), ``jal`` after ID (one bubble);
* I-fetch and D-memory latencies occupying IF/MEM for their full duration;
* the paper's §2.2 decode-stage replacement: ``menter``/``mexit`` insert
  **zero** bubbles (the target instruction replaces them in the decode
  slot) when ``timing.decode_replacement`` is on, and pay an ordinary
  redirect when it is off — this flag is the E1 ablation;
* trap entry flushes the pipeline (``timing.trap_flush``), Metal delivery
  pays only ``timing.delivery_redirect``.

For this microarchitecture (in-order, no side effects on the wrong path)
executing instructions in retirement order while scheduling their timing
is equivalent to simulating the stage latches directly; wrong-path fetches
only perturb I-cache state, which we deliberately exclude (the baseline
thereby gets the *benefit* of the doubt in every Metal-vs-trap
comparison).
"""

from __future__ import annotations

from repro.cpu.core import CpuCore
from repro.cpu.executor import StepInfo
from repro.cpu.functional import (
    FunctionalSimulator,
    cost_key,
    data_latency,
    muldiv_extra,
)
from repro.isa.instruction import InstrClass
from repro.cpu.timing import TimingModel


class PipelineTimer:
    """Scoreboard scheduler for a classic 5-stage in-order pipeline."""

    def __init__(self, timing: TimingModel):
        self.timing = timing
        # Completion cycle of the previous instruction in each stage.
        self._if_end = 0
        self._id_end = 0
        self._ex_end = 0
        self._mem_end = 0
        self._wb_end = 0
        # Earliest cycle the next fetch may start (control redirects).
        self._redirect = 1
        # reg -> cycle at which its value can feed EX (via forwarding).
        # x0 is never written, so ``_ready[0]`` stays 0 and reading it
        # never delays an instruction.
        self._ready = [0] * 32
        self.cycles = 0
        # Stall accounting (benchmark introspection).
        self.stall_load_use = 0
        self.stall_control = 0
        self.stall_fetch = 0
        #: Extra EX cycles by mnemonic (MULDIV only).
        self._ex_extra = muldiv_extra(timing)
        #: Control kind -> (redirects from EX rather than ID?, cycles
        #: after that stage's end when the next fetch may start).  With
        #: decode replacement, ``menter``/``mexit`` redirect at their own
        #: ID end: no bubble.  (The old redirect is at most this
        #: instruction's IF start, so it never comes later than that.)
        transition = 0 if timing.decode_replacement \
            else timing.transition_redirect
        self._redirects = {
            "branch": (True, 1),
            "jalr": (True, 1),
            "mret": (True, timing.mret_penalty),
            "jal": (False, 1),
            "mraise": (False, 1),
            "menter": (False, transition),
            "mexit": (False, transition),
        }
        #: Control kind -> how far past the scoreboard frontier its
        #: redirect can hold the next fetch (see :meth:`block_starts`).
        self._excess = {kind: delta + 1 if in_ex else delta
                        for kind, (in_ex, delta) in self._redirects.items()}

    # ------------------------------------------------------------------
    def note(self, step: StepInfo) -> None:
        reads = step.reads
        self.note_op(step.fetch_latency,
                     reads[0] if reads else 0,
                     reads[1] if len(reads) > 1 else 0,
                     step.rd, step.mem_latency, step.is_load,
                     self._ex_extra.get(step.mnemonic, 0), step.control)

    def note_op(self, fetch: int, rs_a: int, rs_b: int, rd: int, mem: int,
                is_load: bool, extra: int, control) -> None:
        """Schedule one instruction: fetched in *fetch* cycles, reading
        registers *rs_a* and *rs_b* and writing *rd* (0 for none), in
        MEM for *mem* cycles (*is_load*: its result is ready only after
        MEM), in EX for *extra* cycles past the first, and redirecting
        fetch by control kind *control* (None for none).  :meth:`note`
        reports a StepInfo this way, and MJIT's scoreboard-mode code
        reports every entry it inlines outside a :meth:`note_run` run.
        """
        # The max-plus recurrence of the stages, as compare-and-assign on
        # locals: each stage ends one cycle after the previous
        # instruction left it, or after this instruction's previous stage,
        # whichever is later.
        if_start = self._if_end + 1
        redirect = self._redirect
        if redirect > if_start:
            self.stall_control += redirect - if_start
            if_start = redirect
        if fetch > 1:
            self.stall_fetch += fetch - 1
            if_end = if_start + fetch - 1
        else:
            if_end = if_start

        id_end = self._id_end + 1
        if if_end >= id_end:
            id_end = if_end + 1

        # Operand readiness (forwarding into EX).
        ex_base = self._ex_end + 1
        if id_end >= ex_base:
            ex_base = id_end + 1
        ready = self._ready
        ex_start = ready[rs_a]
        if ready[rs_b] > ex_start:
            ex_start = ready[rs_b]
        if ex_start > ex_base:
            self.stall_load_use += ex_start - ex_base
        else:
            ex_start = ex_base
        ex_end = ex_start + extra

        mem_end = self._mem_end + 1
        if ex_end >= mem_end:
            mem_end = ex_end + 1
        if mem > 1:
            mem_end += mem - 1

        wb_end = self._wb_end + 1
        if mem_end >= wb_end:
            wb_end = mem_end + 1

        # Register readiness for consumers.
        if rd:
            ready[rd] = mem_end + 1 if is_load else ex_end + 1

        # Control redirects.
        if control is not None:
            in_ex, delta = self._redirects[control]
            self._redirect = (ex_end if in_ex else id_end) + delta

        self._if_end = if_end
        self._id_end = id_end
        self._ex_end = ex_end
        self._mem_end = mem_end
        self._wb_end = wb_end
        if wb_end > self.cycles:
            self.cycles = wb_end

    def note_run(self, schedule, access, fetch_cost: int) -> None:
        """:meth:`note_op` over a run of plain instructions, in one call.

        MJIT's scoreboard-mode code (``repro.cpu.jit``) calls this for
        each run of plain entries of a compiled block: ALU,
        ``lui``/``auipc`` and ``fence`` entries, which never stall in
        MEM, redirect fetch or take EX extra cycles.  *schedule* holds
        one ``(head, rs_a, rs_b, rd)`` per instruction: *head* is the pc
        of a fetch-plan line head, fetched through *access*, or None for
        a fetch costing *fetch_cost*; ``rs_a``/``rs_b`` are the
        registers the instruction reads (0 for none) and *rd* the one it
        writes (0 for none).  Line heads are accessed in program order,
        and the scoreboard is read into locals and written back once.
        """
        if fetch_cost < 1:
            fetch_cost = 1
        ready = self._ready
        if_end = self._if_end
        id_end = self._id_end
        ex_end = self._ex_end
        mem_end = self._mem_end
        wb_end = self._wb_end
        # Only the run's first fetch can wait for a redirect: every later
        # one starts after an IF that began at or past it.
        redirect = self._redirect
        if redirect > if_end + 1:
            self.stall_control += redirect - if_end - 1
            if_end = redirect - 1
        fetch_stall = 0
        load_use = 0
        for head, rs_a, rs_b, rd in schedule:
            if head is None:
                fetch = fetch_cost
            else:
                fetch = access(head)
                if fetch < 1:
                    fetch = 1
            if_end += fetch
            fetch_stall += fetch - 1
            id_end += 1
            if if_end >= id_end:
                id_end = if_end + 1
            ex_end += 1
            if id_end >= ex_end:
                ex_end = id_end + 1
            operand = ready[rs_a]
            if ready[rs_b] > operand:
                operand = ready[rs_b]
            if operand > ex_end:
                load_use += operand - ex_end
                ex_end = operand
            mem_end += 1
            if ex_end >= mem_end:
                mem_end = ex_end + 1
            wb_end += 1
            if mem_end >= wb_end:
                wb_end = mem_end + 1
            if rd:
                ready[rd] = ex_end + 1
        self._if_end = if_end
        self._id_end = id_end
        self._ex_end = ex_end
        self._mem_end = mem_end
        self._wb_end = wb_end
        self.stall_fetch += fetch_stall
        self.stall_load_use += load_use
        # ``wb_end`` rises with every instruction, so the run's last one
        # is its latest.
        if wb_end > self.cycles:
            self.cycles = wb_end

    def block_starts(self, entries, fetches, data: int) -> tuple:
        """Most cycles :meth:`note_op`/:meth:`note_run` can advance
        ``cycles`` before each of *entries* begins, stalls included,
        when their fetches take at most ``fetches[i]`` and their loads
        and stores at most *data* (see
        :func:`repro.cpu.functional.block_starts`).

        Let the frontier F be the latest of ``if_end + 4``, ``id_end +
        3``, ``ex_end + 2``, ``mem_end + 1`` and ``wb_end``; after any
        instruction F is ``wb_end``, which ``cycles`` never trails.
        One instruction moves F to at most G + fetch + EX extra + MEM
        extra (+1 when the one before it is a load its operand may wait
        for), where G is F, or a pending redirect + 3 when that is
        later: the redirect an instruction sets is at most ``excess``
        past its own F, and at block entry at most 4 (or the largest
        excess) past ``cycles``.  So ``starts[i]``, for ``i >= 1``, is
        that entry term plus the first ``i`` entries' moves.
        """
        excess = self._excess
        ex_extra = self._ex_extra
        mram_fetch = self.timing.mram_fetch
        total = max(4, *excess.values())
        starts = [0]
        for (instr, _pc, _flags), fetch in zip(entries[:-1], fetches):
            mem = data_latency(instr, data, mram_fetch)
            total += ((fetch if fetch > 1 else 1)
                      + ex_extra.get(instr.mnemonic, 0)
                      + (mem - 1 if mem > 1 else 0))
            starts.append(total)
            # The redirect and load-use terms reach the next entry.
            total += excess.get(cost_key(instr), 0)
            if (instr.spec.cls is InstrClass.LOAD
                    or instr.mnemonic in ("mld", "mpld")):
                total += 1
        return tuple(starts)

    # ------------------------------------------------------------------
    def note_event(self, cycles: int) -> None:
        self.cycles += cycles
        self._bump(cycles)

    def note_trap(self, metal: bool) -> None:
        penalty = (
            self.timing.delivery_redirect if metal else self.timing.trap_flush
        )
        # A trap drains the pipeline, then the handler fetch begins.
        self._redirect = self._wb_end + penalty
        self.cycles = max(self.cycles, self._redirect)

    def note_intercept(self) -> None:
        self._redirect = self._id_end + 1 + self.timing.intercept_redirect
        self.cycles = max(self.cycles, self._redirect)

    def _bump(self, cycles: int) -> None:
        """Shift the whole scoreboard forward (idle periods, WFI)."""
        self._if_end += cycles
        self._id_end += cycles
        self._ex_end += cycles
        self._mem_end += cycles
        self._wb_end += cycles
        self._redirect += cycles


class PipelineSimulator(FunctionalSimulator):
    """5-stage pipeline engine = functional semantics + scoreboard timing."""

    def __init__(self, core: CpuCore, tcache: bool = True):
        super().__init__(core, timer=PipelineTimer(core.timing), tcache=tcache)

    @property
    def stalls(self):
        """(load_use, control, fetch) stall cycle totals."""
        timer = self.timer
        return timer.stall_load_use, timer.stall_control, timer.stall_fetch
