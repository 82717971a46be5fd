"""Direct unit tests of the pipeline scoreboard: hand-computed schedules,
and random sequences of StepInfos, positional single instructions,
plain runs and runs with the op that ends them, from a fresh scoreboard
and from arbitrary ones, checked against the ``max()`` form it
replaced."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.cpu.core import CpuCore
from repro.cpu.executor import StepInfo, execute
from repro.cpu.pipeline import PipelineTimer, RunPlan
from repro.cpu.tcache import _schedule_regs, uop_ir
from repro.cpu.timing import TimingModel
from repro.isa import decode
from repro.isa.instruction import InstrClass
from repro.mem.bus import MemoryBus


def step(pc=0, mnemonic="addi", cls=InstrClass.ALU_IMM, fetch=1, mem=0,
         rd=0, reads=(), control=None, is_load=False):
    return StepInfo(
        pc=pc, next_pc=pc + 4, mnemonic=mnemonic, cls=cls,
        fetch_latency=fetch, mem_latency=mem, rd=rd, reads=reads,
        control=control, is_load=is_load,
    )


def timer(**overrides):
    return PipelineTimer(TimingModel(mem_latency=1, **overrides))


class TestSteadyState:
    def test_single_instruction_takes_pipeline_depth(self):
        t = timer()
        t.note(step())
        # IF=1, ID=2, EX=3, MEM=4, WB=5
        assert t.cycles == 5

    def test_back_to_back_alu_one_per_cycle(self):
        t = timer()
        for i in range(10):
            t.note(step(pc=4 * i))
        # depth 5 + 9 more retires
        assert t.cycles == 5 + 9

    def test_forwarding_hides_alu_dependency(self):
        t = timer()
        t.note(step(rd=5))
        t.note(step(reads=(5,)))
        assert t.cycles == 6  # no stall

    def test_load_use_one_bubble(self):
        t = timer()
        t.note(step(mnemonic="lw", cls=InstrClass.LOAD, mem=1, rd=5,
                    is_load=True))
        t.note(step(reads=(5,)))
        assert t.cycles == 7  # one bubble vs the ALU case
        assert t.stall_load_use == 1

    def test_spacer_hides_load_use(self):
        t = timer()
        t.note(step(mnemonic="lw", cls=InstrClass.LOAD, mem=1, rd=5,
                    is_load=True))
        t.note(step(rd=6))
        t.note(step(reads=(5,)))
        assert t.stall_load_use == 0


class TestLatencies:
    def test_fetch_latency_occupies_if(self):
        t = timer()
        t.note(step(fetch=5))
        assert t.cycles == 5 + 4  # IF takes 5 cycles, then 4 more stages

    def test_mem_latency_occupies_mem(self):
        t = timer()
        t.note(step(mnemonic="lw", cls=InstrClass.LOAD, mem=10, rd=5,
                    is_load=True))
        assert t.cycles == 3 + 10 + 1  # IF,ID,EX + MEM(10) + WB

    def test_muldiv_extends_ex(self):
        t = timer(mul_extra=2)
        t.note(step(mnemonic="mul", cls=InstrClass.MULDIV, rd=5))
        assert t.cycles == 5 + 2

    def test_div_uses_div_extra(self):
        t = timer(div_extra=15)
        t.note(step(mnemonic="div", cls=InstrClass.MULDIV, rd=5))
        assert t.cycles == 5 + 15


class TestControlFlow:
    def test_taken_branch_two_bubbles(self):
        t = timer()
        t.note(step(mnemonic="beq", cls=InstrClass.BRANCH, control="branch"))
        t.note(step(pc=100))
        # redirect at EX end (cycle 3): next IF starts at 4 instead of 2
        assert t.stall_control == 2

    def test_jal_one_bubble(self):
        t = timer()
        t.note(step(mnemonic="jal", cls=InstrClass.JAL, control="jal", rd=1))
        t.note(step(pc=100))
        assert t.stall_control == 1

    def test_menter_zero_bubbles_with_replacement(self):
        t = timer()
        t.note(step(mnemonic="menter", cls=InstrClass.METAL, control="menter"))
        t.note(step(pc=0))
        assert t.stall_control == 0

    def test_menter_costs_redirect_without_replacement(self):
        t = timer(decode_replacement=False, transition_redirect=4)
        t.note(step(mnemonic="menter", cls=InstrClass.METAL, control="menter"))
        t.note(step(pc=0))
        assert t.stall_control > 0

    def test_not_taken_branch_free(self):
        t = timer()
        t.note(step(mnemonic="beq", cls=InstrClass.BRANCH, control=None))
        t.note(step(pc=4))
        assert t.stall_control == 0


class TestEvents:
    def test_trap_charges_flush(self):
        t = timer(trap_flush=4)
        t.note(step())
        before = t.cycles
        t.note_trap(metal=False)
        t.note(step(pc=0x80))
        assert t.cycles > before + 1

    def test_metal_delivery_cheaper_than_trap(self):
        a = timer(trap_flush=6, delivery_redirect=2)
        a.note(step())
        a.note_trap(metal=False)
        a.note(step(pc=0x80))
        b = timer(trap_flush=6, delivery_redirect=2)
        b.note(step())
        b.note_trap(metal=True)
        b.note(step(pc=0x80))
        assert b.cycles < a.cycles

    def test_note_event_shifts_everything(self):
        t = timer()
        t.note(step())
        t.note_event(100)
        t.note(step(pc=4))
        assert t.cycles >= 106


# ----------------------------------------------------------------------
# The compare-and-assign scoreboard against the max() form it replaced
# ----------------------------------------------------------------------
class ReferenceTimer(PipelineTimer):
    """The scoreboard with ``note`` as first written, in ``max()`` form:
    the reference that :meth:`PipelineTimer.note` and
    :meth:`PipelineTimer.note_run` must match field for field."""

    def note(self, step: StepInfo) -> None:
        timing = self.timing

        if_start = max(self._if_end + 1, self._redirect)
        self.stall_control += max(0, self._redirect - (self._if_end + 1))
        if_end = if_start + max(1, step.fetch_latency) - 1
        self.stall_fetch += max(1, step.fetch_latency) - 1

        id_end = max(if_end + 1, self._id_end + 1)

        # Operand readiness (forwarding into EX).
        operand_ready = 0
        for reg in step.reads:
            if reg:
                operand_ready = max(operand_ready, self._ready[reg])
        ex_start = max(id_end + 1, self._ex_end + 1, operand_ready)
        self.stall_load_use += max(0, operand_ready - max(id_end + 1, self._ex_end + 1))

        ex_extra = 0
        if step.cls is InstrClass.MULDIV:
            ex_extra = (
                timing.div_extra
                if step.mnemonic.startswith(("div", "rem"))
                else timing.mul_extra
            )
        ex_end = ex_start + ex_extra

        mem_start = max(ex_end + 1, self._mem_end + 1)
        mem_end = mem_start + max(1, step.mem_latency) - 1

        wb_end = max(mem_end + 1, self._wb_end + 1)

        # Register readiness for consumers.
        if step.rd:
            self._ready[step.rd] = (mem_end + 1) if step.is_load else (ex_end + 1)

        # Control redirects.
        control = step.control
        if control in ("branch", "jalr"):
            self._redirect = ex_end + 1
        elif control == "jal":
            self._redirect = id_end + 1
        elif control == "mret":
            self._redirect = ex_end + timing.mret_penalty
        elif control in ("menter", "mexit"):
            if timing.decode_replacement:
                # §2.2: the target instruction replaces menter/mexit in the
                # decode slot — the fetch stream continues with no bubble.
                self._redirect = max(self._redirect, id_end)
            else:
                self._redirect = id_end + timing.transition_redirect
        elif control == "mraise":
            self._redirect = id_end + 1

        self._if_end = if_end
        self._id_end = id_end
        self._ex_end = ex_end
        self._mem_end = mem_end
        self._wb_end = wb_end
        self.cycles = max(self.cycles, wb_end)


#: kind -> (mnemonic, class, reads rs1?, reads rs2?, writes rd?, control,
#: is_load, has memory latency)
_KINDS = {
    "addi": ("addi", InstrClass.ALU_IMM, 1, 0, 1, None, False, False),
    "add": ("add", InstrClass.ALU_REG, 1, 1, 1, None, False, False),
    "lui": ("lui", InstrClass.LUI, 0, 0, 1, None, False, False),
    "mul": ("mul", InstrClass.MULDIV, 1, 1, 1, None, False, False),
    "mulhu": ("mulhu", InstrClass.MULDIV, 1, 1, 1, None, False, False),
    "div": ("div", InstrClass.MULDIV, 1, 1, 1, None, False, False),
    "remu": ("remu", InstrClass.MULDIV, 1, 1, 1, None, False, False),
    "lw": ("lw", InstrClass.LOAD, 1, 0, 1, None, True, True),
    "sw": ("sw", InstrClass.STORE, 1, 1, 0, None, False, True),
    "beq": ("beq", InstrClass.BRANCH, 1, 1, 0, None, False, False),
    "branch": ("bne", InstrClass.BRANCH, 1, 1, 0, "branch", False, False),
    "jal": ("jal", InstrClass.JAL, 0, 0, 1, "jal", False, False),
    "jalr": ("jalr", InstrClass.JALR, 1, 0, 1, "jalr", False, False),
    "mret": ("mret", InstrClass.SYSTEM, 0, 0, 0, "mret", False, False),
    "menter": ("menter", InstrClass.METAL, 0, 0, 0, "menter", False, False),
    "mexit": ("mexit", InstrClass.METAL, 0, 0, 0, "mexit", False, False),
    "mexitm": ("mexitm", InstrClass.METAL, 0, 0, 1, "mexit", False, False),
    "mraise": ("mraise", InstrClass.METAL_ARCH, 0, 0, 0, "mraise", False,
               False),
    "mld": ("mld", InstrClass.METAL, 1, 0, 1, None, True, True),
}

#: Plain run entries: (mnemonic, class, reads rs1?, reads rs2?, writes?)
_RUN_KINDS = (
    ("addi", InstrClass.ALU_IMM, 1, 0, 1),
    ("add", InstrClass.ALU_REG, 1, 1, 1),
    ("lui", InstrClass.LUI, 0, 0, 1),
    ("auipc", InstrClass.AUIPC, 0, 0, 1),
    ("fence", InstrClass.FENCE, 0, 0, 0),
)

# Few registers, so that reads often meet recent writes (hazards).
_regs = st.integers(0, 7)
_latency = st.integers(0, 21)


@st.composite
def _step_op(draw):
    kind = draw(st.sampled_from(sorted(_KINDS)))
    mnemonic, cls, r1, r2, w, control, is_load, has_mem = _KINDS[kind]
    reads = tuple(draw(_regs) for _ in range(r1 + r2))
    return ("step", step(
        mnemonic=mnemonic, cls=cls, fetch=draw(_latency),
        mem=draw(_latency) if has_mem else 0, rd=draw(_regs) if w else 0,
        reads=reads, control=control, is_load=is_load))


def _run_entries(draw):
    entries = []
    for _ in range(draw(st.integers(1, 12))):
        mnemonic, cls, r1, r2, w = draw(st.sampled_from(_RUN_KINDS))
        rs_a = draw(_regs) if r1 else 0
        rs_b = draw(_regs) if r2 else 0
        rd = draw(_regs) if w else 0
        head = draw(st.none() | _latency)   # None: same-line fetch
        entries.append((mnemonic, cls, rs_a, rs_b, rd, head))
    return tuple(entries)


@st.composite
def _run_op(draw):
    return ("run", _run_entries(draw), draw(_latency))


#: Ops MJIT reports in the ``note_run`` of the run they end: (mnemonic,
#: class, reads rs1?, reads rs2?, writes rd?, control kinds)
_FUSED_KINDS = (
    ("bne", InstrClass.BRANCH, 1, 1, 0, (None, "branch")),
    ("jal", InstrClass.JAL, 0, 0, 1, ("jal",)),
    ("jalr", InstrClass.JALR, 1, 0, 1, ("jalr",)),
    ("mul", InstrClass.MULDIV, 1, 1, 1, (None,)),
    ("divu", InstrClass.MULDIV, 1, 1, 1, (None,)),
    ("mexit", InstrClass.METAL, 0, 0, 0, ("mexit",)),
    ("mexitm", InstrClass.METAL, 0, 0, 1, ("mexit",)),
)


@st.composite
def _run_then_op(draw):
    """A run and the op that ends it, reported in one call: the op's
    fetch a line head (its latency) or not (the latency the call is
    told)."""
    mnemonic, cls, r1, r2, w, controls = draw(st.sampled_from(_FUSED_KINDS))
    op = (mnemonic, cls, draw(_regs) if r1 else 0, draw(_regs) if r2 else 0,
          draw(_regs) if w else 0, draw(st.sampled_from(controls)),
          draw(st.booleans()), draw(_latency))
    return ("run+op", _run_entries(draw), draw(_latency), op)


#: Every control kind a StepInfo can report.
_CONTROLS = (None, "branch", "jal", "jalr", "mret", "mraise", "menter",
             "mexit")


@st.composite
def _positional_op(draw):
    """One instruction in :meth:`PipelineTimer.note_op`'s positional
    form: any registers, fetch and memory latencies, load or not, the
    EX extra of an ALU or muldiv mnemonic, any control kind."""
    mnemonic, cls = draw(st.sampled_from((
        ("add", InstrClass.ALU_REG), ("mul", InstrClass.MULDIV),
        ("mulhu", InstrClass.MULDIV), ("div", InstrClass.MULDIV),
        ("remu", InstrClass.MULDIV))))
    return ("op", mnemonic, cls, draw(_latency), draw(_regs), draw(_regs),
            draw(_regs), draw(_latency), draw(st.booleans()),
            draw(st.sampled_from(_CONTROLS)))


_ops = st.lists(st.one_of(
    _step_op(), _step_op(), _run_op(), _run_op(), _run_then_op(),
    _run_then_op(), _positional_op(), _positional_op(),
    st.tuples(st.just("event"), st.integers(0, 40)),
    st.tuples(st.just("trap"), st.booleans()),
    st.tuples(st.just("intercept")),
), min_size=1, max_size=30)

_timings = st.builds(
    TimingModel,
    decode_replacement=st.booleans(),
    mul_extra=st.integers(0, 4), div_extra=st.integers(0, 20),
    mret_penalty=st.integers(0, 4), transition_redirect=st.integers(0, 5),
    trap_flush=st.integers(0, 6), delivery_redirect=st.integers(0, 4),
    intercept_redirect=st.integers(0, 4),
)

_FIELDS = ("_if_end", "_id_end", "_ex_end", "_mem_end", "_wb_end",
           "_redirect", "_ready", "cycles", "stall_load_use",
           "stall_control", "stall_fetch")


def _extra(timing, mnemonic, cls):
    if cls is not InstrClass.MULDIV:
        return 0
    return (timing.div_extra if mnemonic.startswith(("div", "rem"))
            else timing.mul_extra)


def _apply(ref, new, op):
    """Feed *op* to both timers: runs (and the op ending one) go to
    *new* through ``note_run`` with the plan the engine derives
    (:class:`RunPlan`) and to *ref* one instruction at a time,
    positional ops to *new* through ``note_op`` and to *ref* as a
    StepInfo."""
    kind = op[0]
    if kind == "step":
        ref.note(op[1])
        new.note(op[1])
    elif kind == "op":
        (_kind, mnemonic, cls, fetch, rs_a, rs_b, rd, mem, is_load,
         control) = op
        ref.note(step(mnemonic=mnemonic, cls=cls, fetch=fetch, mem=mem,
                      rd=rd, reads=(rs_a, rs_b), control=control,
                      is_load=is_load))
        new.note_op(fetch, rs_a, rs_b, rd, mem, is_load,
                    _extra(ref.timing, mnemonic, cls), control)
    elif kind in ("run", "run+op"):
        entries, fetch_cost = op[1], op[2]
        heads = {}
        schedule = []
        for i, (mnemonic, cls, rs_a, rs_b, rd, head) in enumerate(entries):
            pc = 4 * i
            if head is not None:
                heads[pc] = head
            schedule.append((pc if head is not None else None,
                             rs_a, rs_b, rd))
            reads = {InstrClass.ALU_IMM: (rs_a,),
                     InstrClass.ALU_REG: (rs_a, rs_b)}.get(cls, ())
            ref.note(step(pc=pc, mnemonic=mnemonic, cls=cls,
                          fetch=fetch_cost if head is None else head,
                          rd=rd, reads=reads))
        accessed = []

        def access(pc):
            accessed.append(pc)
            return heads[pc]
        if kind == "run":
            new.note_run(RunPlan(schedule), access, fetch_cost)
        else:
            mnemonic, cls, rs_a, rs_b, rd, control, is_head, fetch = op[3]
            pc = 4 * len(entries)
            if is_head:
                heads[pc] = fetch
            ref.note(step(pc=pc, mnemonic=mnemonic, cls=cls, fetch=fetch,
                          rd=rd, reads=(rs_a, rs_b), control=control))
            plan = RunPlan(schedule, (pc if is_head else None, rs_a, rs_b))
            new.note_run(plan, access, fetch_cost,
                         None if is_head else fetch, rd,
                         _extra(ref.timing, mnemonic, cls), control)
        assert accessed == sorted(heads)
    elif kind == "event":
        ref.note_event(op[1])
        new.note_event(op[1])
    elif kind == "trap":
        ref.note_trap(metal=op[1])
        new.note_trap(metal=op[1])
    else:
        ref.note_intercept()
        new.note_intercept()


@given(_timings, _ops)
@settings(max_examples=300, deadline=None)
def test_scoreboard_matches_max_form_reference(timing, ops):
    ref = ReferenceTimer(timing)
    new = PipelineTimer(timing)
    for i, op in enumerate(ops):
        _apply(ref, new, op)
        for name in _FIELDS:
            assert getattr(new, name) == getattr(ref, name), (i, op, name)


_cycle = st.integers(0, 300)

#: An arbitrary scoreboard: stage ends in any order, a redirect pending
#: up to 60 cycles past the last fetch, operands ready far ahead.
_boards = st.fixed_dictionaries({
    "_if_end": _cycle, "_id_end": _cycle, "_ex_end": _cycle,
    "_mem_end": _cycle, "_wb_end": _cycle, "cycles": _cycle,
    "redirect_past_if": st.integers(-10, 60),
    "_ready": st.lists(st.integers(0, 400), min_size=31, max_size=31),
})


@given(_timings, _boards, _ops)
@settings(max_examples=300, deadline=None)
def test_scoreboard_matches_reference_from_any_state(timing, board, ops):
    """The closed form needs no particular scoreboard shape: from any
    state both timers agree after every op, runs and the ops that end
    them included, with fetch costs and head latencies of 0 to 21."""
    ref = ReferenceTimer(timing)
    new = PipelineTimer(timing)
    for timer_ in (ref, new):
        for name, value in board.items():
            if name == "_ready":
                value = [0, *value]
            elif name == "redirect_past_if":
                name, value = "_redirect", board["_if_end"] + value
            setattr(timer_, name, value)
    for i, op in enumerate(ops):
        _apply(ref, new, op)
        for name in _FIELDS:
            assert getattr(new, name) == getattr(ref, name), (i, op, name)


def test_run_schedule_regs_match_execute():
    """The registers a run's schedule lists are the ones execute()
    reports to the timer, x0 writes included."""
    core = CpuCore(bus=MemoryBus())
    sources = ("addi zero, t1, 5", "addi t0, t1, -1", "xor a0, a1, a2",
               "sub zero, s0, s1", "lui t3, 0x12345", "lui zero, 1",
               "auipc a5, 0x10", "fence", "slli s2, s3, 4",
               "sltu zero, a3, a4")
    for text in sources:
        instr = decode(assemble(text, base=0).words()[0])
        assert uop_ir(instr, 0) is not None, text   # a plain run entry
        info = execute(core, instr, 0)
        rs_a, rs_b, rd = _schedule_regs(instr)
        assert rd == info.rd, text
        assert ({r for r in (rs_a, rs_b) if r}
                == {r for r in info.reads if r}), text


# ----------------------------------------------------------------------
# Scoreboard traffic of compiled code
# ----------------------------------------------------------------------
#: Most scoreboard calls (``note``, ``note_op``, ``note_run``) per
#: retired instruction in the first 100k instructions of each perfbench
#: program on the pipeline engine, ``MachineConfig()``.  Each run of
#: plain entries and the op that ends it are one call: once per
#: iteration of tight_loop (11 instructions) and hash_mix (9).
CALLS_PER_INSTRUCTION = {
    "tight_loop": 0.091,
    "hash_mix": 0.112,
    "chain_trampoline": 0.25,
    "poly_branch": 0.334,
    "syscall_heavy": 0.25,
    "intercept_heavy": 0.236,
    "mcode_heavy": 0.265,
    "preemptive_scheduler": 0.734,
}


def _perfbench_machine(name):
    from repro.machine.builder import MachineConfig, build_metal_machine
    from repro.osdemo.scheduler import boot_scheduler_demo
    from repro.profile.workloads import WORKLOADS, workload_source
    config = MachineConfig(engine="pipeline")
    if name == "preemptive_scheduler":
        return boot_scheduler_demo(config=config)
    workload = WORKLOADS[name]
    machine = build_metal_machine(list(workload.routines), config=config)
    if workload.setup is not None:
        workload.setup(machine)
    program = machine.assemble(workload_source(name, 100_000))
    machine.load(program)
    machine.core.pc = program.symbols["_start"]
    return machine


@pytest.mark.parametrize("name", sorted(CALLS_PER_INSTRUCTION))
def test_scoreboard_calls_per_instruction(name):
    """Compiled code reports each run of plain entries together with the
    branch, jump, muldiv or ``mexit`` that ends it: the scoreboard calls
    per retired instruction stay within the program's bound (counts are
    deterministic)."""
    machine = _perfbench_machine(name)
    timer = machine.sim.timer
    calls = []

    def counted(method):
        def call(*args):
            calls.append(None)
            return method(*args)
        return call
    for attr in ("note", "note_op", "note_run"):
        setattr(timer, attr, counted(getattr(timer, attr)))
    machine.run(max_instructions=100_000, raise_on_limit=False)
    instret = machine.core.instret
    assert instret == 100_000
    assert len(calls) <= CALLS_PER_INSTRUCTION[name] * instret, (
        len(calls) / instret)
