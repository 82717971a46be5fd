"""Property-based round-trip tests over the whole instruction table.

Invariants:

* encode -> decode recovers every field, for every mnemonic;
* decode -> disassemble -> assemble -> encode is the identity on words.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import build_trap_machine
from repro.asm import assemble
from repro.errors import AsmRangeError
from repro.isa import decode, disassemble, encode
from repro.isa.encoder import _USED_FIELDS
from repro.isa.instruction import Format, Instruction, InstrClass
from repro.isa.opcodes import SPECS

regs = st.integers(min_value=0, max_value=31)


def _imm_strategy(spec):
    if spec.operands == "rd,rs1,shamt":
        return st.integers(0, 31)
    if spec.mnemonic == "menter":
        return st.integers(0, 63)
    if spec.cls is InstrClass.CSR:
        return st.sampled_from([0x300, 0x305, 0x340, 0x341, 0x342, 0x343])
    if spec.fmt is Format.I or spec.fmt is Format.S:
        return st.integers(-2048, 2047)
    if spec.fmt is Format.B:
        return st.integers(-2048, 2047).map(lambda v: v * 2)
    if spec.fmt is Format.U:
        return st.integers(0, 0xFFFFF).map(lambda v: v << 12)
    if spec.fmt is Format.J:
        return st.integers(-(1 << 19), (1 << 19) - 1).map(lambda v: v * 2)
    return st.just(0)


@st.composite
def instructions(draw):
    spec = draw(st.sampled_from(sorted(SPECS.values(), key=lambda s: s.mnemonic)))
    imm = draw(_imm_strategy(spec))
    instr = Instruction(
        spec.mnemonic,
        rd=draw(regs),
        rs1=draw(regs),
        rs2=draw(regs),
        imm=imm,
        csr=imm if spec.cls is InstrClass.CSR else 0,
        spec=spec,
    )
    # CSR-immediate forms keep zimm (0..31) in rs1.
    return instr


@given(instructions())
@settings(max_examples=400)
def test_encode_decode_roundtrip(instr):
    word = encode(instr)
    out = decode(word)
    assert out.mnemonic == instr.mnemonic
    used = _USED_FIELDS[instr.spec.operands]
    if "rd" in used:
        assert out.rd == instr.rd
    if "rs1" in used:
        assert out.rs1 == instr.rs1
    if "rs2" in used:
        assert out.rs2 == instr.rs2
    fmt = instr.spec.fmt
    carries_imm = instr.spec.funct12 is None and instr.spec.operands not in (
        "rd,rs1,rs2", "rs1,rs2", "rs1", "rd", "rd,rs1", "rd,mreg",
        "mreg,rs1", "",
    )
    if carries_imm and fmt is not Format.R:
        assert out.imm == instr.imm


@given(instructions())
# U-type fields whose low 12 bits are zero (``lui zero, 0x1000``,
# ``auipc zero, 0x1000``, ``lui zero, 0x80000``): the operand must reach
# the encoder as the field shifted left, not as a pre-shifted value.
@example(decode(0x01000037))
@example(decode(0x01000017))
@example(decode(0x80000037))
@settings(max_examples=400)
def test_disassemble_assemble_roundtrip(instr):
    word = encode(instr)
    text = disassemble(word)
    # Branch/jump operands disassemble as raw offsets, which the assembler
    # treats as absolute targets; assemble at base 0 where offset == target.
    program = assemble(text, base=0)
    assert program.words() == [word]


def test_every_mnemonic_has_disassembly():
    for spec in SPECS.values():
        instr = Instruction(spec.mnemonic, rd=1, rs1=2, rs2=3, imm=0,
                            csr=0x300 if spec.cls is InstrClass.CSR else 0,
                            spec=spec)
        if spec.operands == "rd,uimm":
            instr.imm = 0x1000
        word = encode(instr)
        assert disassemble(word)  # does not raise, non-empty


def test_lui_operand_is_the_20_bit_field():
    """``lui t5, 0x80000`` sets t5's top bit, as the conformance
    generator's unsigned-branch extension relies on."""
    machine = build_trap_machine(with_caches=False)
    machine.load_and_run("lui t5, 0x80000\nauipc t6, 0x1000\nhalt\n",
                         base=0)
    assert machine.reg("t5") == 0x80000000
    assert machine.reg("t6") == 0x01000004


@pytest.mark.parametrize("operand", ["0x100000", "-1"])
def test_lui_operand_range_checked(operand):
    with pytest.raises(AsmRangeError):
        assemble(f"lui t0, {operand}")
