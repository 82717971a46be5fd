"""mroutine generation: a mined :class:`~repro.synth.mine.Candidate`
becomes a fused mcode routine ready for the loader's append path.

The generated source is the candidate's instructions re-rendered
through the disassembler (which round-trips through the assembler), a
loop's back-branch rewritten to a local label, closed by ``mexit``.
Because GPRs are shared between guest and Metal mode (paper §2), the
fused body computes bit-identical architectural state; ``mexit``
resumes the guest at ``menter``'s pc+4.

When the routine's MRAM data slice is addressable by a 12-bit ``mld``/
``mst`` immediate, the routine also keeps an **invocation counter** in
its data segment — the register it borrows is saved to an mreg
allocated from the image's free pool and restored before the fused
body runs, so the counter is architecturally invisible.  The counter
keeps the routine ``MRAM_ONLY`` (no guest-RAM access), and gives
the report a ground-truth invocation count straight out of MRAM.
"""

from __future__ import annotations

from repro.errors import MroutineLoadError
from repro.isa.disasm import format_instruction
from repro.isa.decoder import decode
from repro.isa.instruction import InstrClass
from repro.isa.metal_ops import MAX_MROUTINES
from repro.isa.registers import MREG_ICEPT_RS2, reg_name
from repro.metal.mroutine import MRoutine

#: Data-segment words per generated routine: invocation counter plus
#: provenance (head pc, region words, kind code).
DATA_WORDS = 4

KIND_CODES = {"loop": 1, "run": 2}

#: GPR borrowed for the counter update (saved/restored via mreg, so any
#: register but x0 is sound; t6 keeps the source readable).
_SCRATCH = "t6"

#: ``mld``/``mst`` immediates are signed 12-bit; the counter addresses
#: ``<NAME>_DATA+0(zero)`` so the data offset itself must fit.
_IMM_MAX = 2047


def free_entry(image) -> int:
    """Lowest unused mroutine entry number in *image*."""
    for entry in range(MAX_MROUTINES):
        if entry not in image.by_entry:
            return entry
    raise MroutineLoadError("mroutine entry table is full")


def free_mreg(image):
    """Lowest allocatable mreg no loaded routine owns or shares, or
    ``None`` when the pool is exhausted (m24-m31 are hardware-reserved)."""
    used = set()
    for routine in image.routines.values():
        used.update(routine.mregs)
        used.update(routine.shared_mregs)
    for mreg in range(MREG_ICEPT_RS2):
        if mreg not in used:
            return mreg
    return None


def generate_routine(candidate, image, words, base: int,
                     counter: bool = True) -> MRoutine:
    """Emit *candidate* as an :class:`~repro.metal.mroutine.MRoutine`.

    *words*/*base* are the program image the candidate was mined from;
    *image* the :class:`~repro.metal.loader.MetalImage` the routine
    will be appended to (consulted for free entries, free mregs and
    the next data offset — the routine is **not** appended here).
    """
    idx0 = (candidate.head_pc - base) // 4
    region = [decode(w) for w in words[idx0:idx0 + candidate.length]]
    name = f"synth_{candidate.head_pc:x}"
    sym = name.upper()

    mreg = free_mreg(image) if counter else None
    # The counter addresses its slice with an absolute 12-bit immediate;
    # past that, drop the counter rather than the candidate.
    if image.data_used_bytes > _IMM_MAX - (DATA_WORDS - 1) * 4:
        mreg = None

    lines = []
    if mreg is not None:
        lines += [
            f"    wmr  m{mreg}, {_SCRATCH}",
            f"    mld  {_SCRATCH}, {sym}_DATA+0(zero)",
            f"    addi {_SCRATCH}, {_SCRATCH}, 1",
            f"    mst  {_SCRATCH}, {sym}_DATA+0(zero)",
            f"    rmr  {_SCRATCH}, m{mreg}",
        ]

    if candidate.kind == "loop":
        body, branch = region[:-1], region[-1]
        lines.append("fused_head:")
        lines += [f"    {format_instruction(i)}" for i in body]
        assert branch.cls is InstrClass.BRANCH
        lines.append(f"    {branch.spec.mnemonic} {reg_name(branch.rs1)}, "
                     f"{reg_name(branch.rs2)}, fused_head")
    else:
        lines += [f"    {format_instruction(i)}" for i in region]
    lines.append("    mexit")

    return MRoutine(
        name=name,
        entry=free_entry(image),
        source="\n".join(lines) + "\n",
        data_words=DATA_WORDS,
        data_init=(0, candidate.head_pc, candidate.length,
                   KIND_CODES[candidate.kind]),
        mregs=(mreg,) if mreg is not None else (),
    )
