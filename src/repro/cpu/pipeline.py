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


def run_plan(schedule, op=None) -> tuple:
    """The plan :meth:`PipelineTimer.note_run` reads for a run of plain
    entries, derived once from its *schedule* (one ``(head, rs_a, rs_b,
    rd)`` per entry) and, when an op is reported in the same call, from
    *op*: ``(head, rs_a, rs_b)``, the pc of the op's fetch when that is
    a line head (else None) and the registers it reads.

    Returns ``(m, same_line, fetch_bound)``: *m* counts the run's
    entries and the op, and the two term lists serve fetches that cost
    one cycle off a line head, and fetches that cost more.  Each term is
    ``(j, kind, x)`` with ``j`` counting from 1, in program order: a
    write (kind 0) of register ``x`` by its last writer, ``j`` one past
    it; a read (1) of register ``x`` before the run writes it, by its
    first reader; a line head (2) at pc ``x``; in the fetch-bound list
    only, a same-line fetch of the run (3); the op's own fetch when it
    is no line head (4).  At one ``j`` a fetch comes before a read, a
    read before a write.
    """
    entries = list(schedule)
    if op is not None:
        head, rs_a, rs_b = op
        entries.append((head, rs_a, rs_b, 0))
    first_read = {}
    last_write = {}
    terms = []
    ticks = []
    for j, (pc, rs_a, rs_b, rd) in enumerate(entries, 1):
        if pc is not None:
            terms.append((j, 1, 2, pc))
        elif j > len(schedule):
            terms.append((j, 1, 4, 0))
        else:
            ticks.append((j, 0, 3, 0))
        for reg in (rs_a, rs_b):
            if reg and reg not in first_read and reg not in last_write:
                first_read[reg] = j
        if rd:
            last_write[rd] = j
    terms.extend((j, 2, 1, reg) for reg, j in first_read.items())
    terms.extend((j, 3, 0, reg) for reg, j in last_write.items())

    def ordered(items):
        return tuple((j + 1 if kind == 0 else j, kind, x)
                     for j, _order, kind, x in sorted(items))
    return len(entries), ordered(terms), ordered(terms + ticks)


class RunPlan(tuple):
    """A run's schedule as MJIT binds it for
    :meth:`PipelineTimer.note_run`: the tuple itself, which the
    translation validator reads, with the fused *op* (``(head, rs_a,
    rs_b)`` or None) and the :func:`run_plan` derived from both as
    ``plan``."""

    def __new__(cls, schedule, op=None):
        self = super().__new__(cls, schedule)
        self.op = op
        self.plan = run_plan(self, op)
        return self


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
        every entry it inlines that neither belongs to a :meth:`note_run`
        run nor ends one: loads, stores, ``menter``, and an op no run
        precedes.
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

    def note_run(self, run, access, fetch_cost: int, fetch=None,
                 rd: int = 0, extra: int = 0, control=None) -> None:
        """:meth:`note_op` over a run of plain instructions and the op
        that ends it, in one call and in closed form.

        MJIT's scoreboard-mode code (``repro.cpu.jit``) calls this for
        each run of plain entries of a compiled block: ALU,
        ``lui``/``auipc`` and ``fence`` entries (and in mroutines
        ``rmr``/``wmr``), which never stall in MEM, redirect fetch or
        take EX extra cycles.  *run* is the run's :class:`RunPlan`: its
        schedule, one ``(head, rs_a, rs_b, rd)`` per instruction, whose
        *head* is the pc of a fetch-plan line head, fetched through
        *access*, or None for a fetch costing *fetch_cost*.  When the
        plan fuses an op, the op follows the run as :meth:`note_op`
        would schedule it with no data access, reading the registers the
        plan names and writing *rd*, in EX for *extra* cycles past the
        first and redirecting by *control*: fetched in *fetch* cycles,
        or, with *fetch* None, through *access* at the line head the
        plan names, after the run's heads.

        Line heads are accessed in program order, and the work is per
        head, per register read before it is written and per register
        written (:func:`run_plan`), not per instruction, unless a
        same-line fetch costs more than a cycle (each is then a term):
        with I, D, E, M and W the stage ends once the pending redirect
        is met, and H_j the extra cycles of the first j fetches,
        instruction j leaves the stages at::

            IF_j = I + j + H_j,  ID_j = max(D + j, IF_j + 1)
            EX_j = j + max(E, D + 1, I + H_j + 2,
                           max over external reads i <= j of ready[r_i] - i)
            MEM_j = max(M + j, EX_j + 1),  WB_j = max(W + j, MEM_j + 1)

        since every fetch takes a cycle at least (``IF_j - j`` never
        falls) and an operand the run writes itself never waits:
        forwarding delivers it by its reader's EX slot.  A read stalls
        by as much as it raises the running maximum, and a register's
        last writer j leaves it ready at ``EX_j + 1``.
        """
        m, same_line, fetch_bound = run.plan
        if fetch_cost > 1:
            terms = fetch_bound
            extra_fetch = fetch_cost - 1
        else:
            terms = same_line
        ready = self._ready
        # Only the first fetch can wait for a redirect: every later one
        # starts after an IF that began at or past it.
        if_base = self._if_end
        redirect = self._redirect
        if redirect > if_base + 1:
            self.stall_control += redirect - if_base - 1
            if_base = redirect - 1
        id_base = self._id_end
        # ``floor`` is I + H_j + 2 and ``top`` EX_j - j.
        floor = if_base + 2
        top = self._ex_end
        if id_base >= top:
            top = id_base + 1
        if floor > top:
            top = floor
        load_use = 0
        for j, kind, x in terms:
            if not kind:
                ready[x] = top + j
            elif kind == 1:
                operand = ready[x] - j
                if operand > top:
                    load_use += operand - top
                    top = operand
            else:
                if kind == 3:
                    floor += extra_fetch
                else:
                    latency = access(x) if kind == 2 else fetch
                    if latency > 1:
                        floor += latency - 1
                if floor > top:
                    top = floor
        fetch_stall = floor - if_base - 2
        if_end = floor - 2 + m
        id_end = id_base + m
        if if_end >= id_end:
            id_end = if_end + 1
        ex_end = top + m + extra
        mem_end = self._mem_end + m
        if ex_end >= mem_end:
            mem_end = ex_end + 1
        wb_end = self._wb_end + m
        if mem_end >= wb_end:
            wb_end = mem_end + 1
        if rd:
            ready[rd] = ex_end + 1
        if control is not None:
            in_ex, delta = self._redirects[control]
            self._redirect = (ex_end if in_ex else id_end) + delta
        self._if_end = if_end
        self._id_end = id_end
        self._ex_end = ex_end
        self._mem_end = mem_end
        self._wb_end = wb_end
        if fetch_stall:
            self.stall_fetch += fetch_stall
        if load_use:
            self.stall_load_use += load_use
        # ``wb_end`` rises with every instruction, so the last one is
        # the latest.
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
