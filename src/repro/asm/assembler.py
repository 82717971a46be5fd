"""The two-pass MRV32 assembler.

Pass 1 parses every line, expands pseudo-instructions far enough to know
their size, processes layout directives (``.org``, ``.align``, ``.equ``,
data directives) and records label addresses.  Pass 2 evaluates operand
expressions against the complete symbol table and emits encoded words.

Supported syntax
----------------

* one statement per line; comments start with ``#`` or ``;``
* ``label:`` prefixes (several per line allowed)
* directives: ``.org .align .equ .set .word .half .byte .ascii .asciz
  .space .zero .text .data .globl .global``
* pseudo-instructions: ``nop mv li la j jr call ret beqz bnez blez bgez
  bltz bgtz bgt ble bgtu bleu seqz snez not neg``
* the full MRV32 table including Metal instructions (``menter 5``,
  ``rmr t0, m31``, ``mld a0, 8(t1)``, ...)

Branch and jump targets are *absolute* expressions (normally labels); the
assembler converts them to PC-relative offsets.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import (
    AsmRangeError,
    AsmSymbolError,
    AsmSyntaxError,
    EncodeError,
)
from repro.asm.expr import ExprEvaluator
from repro.asm.lexer import tokenize
from repro.asm.program import Program
from repro.isa.encoder import encode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import SPECS
from repro.isa.registers import MREG_BY_NAME, REG_BY_NAME


@dataclass
class _Statement:
    """One parsed source line (after label extraction)."""

    line: int
    text: str
    mnemonic: str = None
    operands: str = ""
    directive: str = None
    addr: int = 0
    size: int = 0
    #: Filled in pass 1 for directives whose payload must be re-evaluated.
    chunks: list = field(default_factory=list)


def _strip_comment(line: str) -> str:
    out = []
    in_str = False
    escaped = False
    for ch in line:
        if in_str:
            out.append(ch)
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_str = False
            continue
        if ch == '"':
            in_str = True
            out.append(ch)
            continue
        if ch in "#;":
            break
        out.append(ch)
    return "".join(out)


def split_operands(text: str):
    """Split an operand field on top-level commas."""
    chunks = []
    depth = 0
    in_str = False
    escaped = False
    current = []
    for ch in text:
        if in_str:
            current.append(ch)
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_str = False
            continue
        if ch == '"':
            in_str = True
            current.append(ch)
        elif ch == "(":
            depth += 1
            current.append(ch)
        elif ch == ")":
            depth -= 1
            current.append(ch)
        elif ch == "," and depth == 0:
            chunks.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail or chunks:
        chunks.append(tail)
    return chunks


class Assembler:
    """Two-pass assembler producing a :class:`Program`."""

    def __init__(self, source_name: str = "<asm>"):
        self.source_name = source_name
        self.symbols = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def assemble(self, source: str, base: int = 0, symbols: dict = None) -> Program:
        """Assemble *source* at load address *base*.

        *symbols* provides pre-defined external symbols (e.g. mroutine
        entry numbers or kernel entry points from another image).
        """
        self.symbols = dict(symbols or {})
        statements = self._pass1(source, base)
        return self._pass2(statements, base)

    # ------------------------------------------------------------------
    # pass 1: layout
    # ------------------------------------------------------------------
    def _pass1(self, source: str, base: int):
        statements = []
        loc = base
        for lineno, raw_line in enumerate(source.splitlines(), start=1):
            line = _strip_comment(raw_line).strip()
            if not line:
                continue
            # Extract any number of leading labels.
            while True:
                colon = self._leading_label(line)
                if colon is None:
                    break
                label, line = colon
                if label in self.symbols:
                    raise AsmSymbolError(
                        f"redefined symbol {label!r}", lineno, self.source_name
                    )
                self.symbols[label] = loc
            if not line:
                continue
            stmt = self._parse_statement(line, lineno)
            stmt.addr = loc
            if stmt.directive is not None:
                loc = self._layout_directive(stmt, loc)
            else:
                stmt.size = 4 * len(self._expansion(stmt))
            loc = stmt.addr + stmt.size if stmt.directive is None else loc
            statements.append(stmt)
        return statements

    def _leading_label(self, line: str):
        # A label is IDENT ':' at the start of the line, but not inside an
        # operand (we only look before any whitespace/comma).
        for i, ch in enumerate(line):
            if ch == ":":
                candidate = line[:i].strip()
                if candidate and all(
                    c.isalnum() or c in "_.$" for c in candidate
                ):
                    return candidate, line[i + 1:].strip()
                return None
            if ch in " \t,()\"'":
                return None
        return None

    def _parse_statement(self, line: str, lineno: int) -> _Statement:
        parts = line.split(None, 1)
        head = parts[0].lower()
        rest = parts[1].strip() if len(parts) > 1 else ""
        stmt = _Statement(line=lineno, text=line)
        if head.startswith("."):
            stmt.directive = head
            stmt.operands = rest
        else:
            stmt.mnemonic = head
            stmt.operands = rest
        return stmt

    def _layout_directive(self, stmt: _Statement, loc: int) -> int:
        d = stmt.directive
        line = stmt.line
        ev = ExprEvaluator(self.symbols, loc, line, self.source_name)
        chunks = split_operands(stmt.operands)
        stmt.chunks = chunks
        if d in (".text", ".data", ".globl", ".global", ".section"):
            stmt.size = 0
            return loc
        if d == ".org":
            target = ev.evaluate(tokenize(chunks[0], line, self.source_name))
            if target < loc:
                raise AsmRangeError(
                    f".org moves backwards ({target:#x} < {loc:#x})",
                    line,
                    self.source_name,
                )
            stmt.size = target - loc
            return target
        if d == ".align":
            power = ev.evaluate(tokenize(chunks[0], line, self.source_name))
            align = 1 << power
            new = (loc + align - 1) & ~(align - 1)
            stmt.size = new - loc
            return new
        if d in (".equ", ".set"):
            if len(chunks) != 2:
                raise AsmSyntaxError(f"{d} needs name, value", line, self.source_name)
            name = chunks[0]
            value = ev.evaluate(tokenize(chunks[1], line, self.source_name))
            self.symbols[name] = value
            stmt.size = 0
            return loc
        if d == ".word":
            stmt.size = 4 * len(chunks)
            return loc + stmt.size
        if d == ".half":
            stmt.size = 2 * len(chunks)
            return loc + stmt.size
        if d == ".byte":
            stmt.size = len(chunks)
            return loc + stmt.size
        if d in (".ascii", ".asciz"):
            toks = tokenize(stmt.operands, line, self.source_name)
            if len(toks) != 1 or toks[0].kind != "string":
                raise AsmSyntaxError(f"{d} needs one string", line, self.source_name)
            stmt.size = len(toks[0].value.encode("latin-1")) + (d == ".asciz")
            return loc + stmt.size
        if d in (".space", ".zero"):
            count = ev.evaluate(tokenize(chunks[0], line, self.source_name))
            stmt.size = count
            return loc + count
        raise AsmSyntaxError(f"unknown directive {d}", line, self.source_name)

    # ------------------------------------------------------------------
    # pseudo-instruction expansion
    # ------------------------------------------------------------------
    def _expansion(self, stmt: _Statement):
        """Return the list of (mnemonic, operand_string) for *stmt*.

        Expansion is purely syntactic so pass-1 sizing matches pass 2.
        """
        m = stmt.mnemonic
        ops = split_operands(stmt.operands)
        line = stmt.line

        def need(n):
            if len(ops) != n:
                raise AsmSyntaxError(
                    f"{m} expects {n} operand(s), got {len(ops)}",
                    line,
                    self.source_name,
                )

        if m in SPECS:
            # jal/jalr shorthand forms.
            if m == "jal" and len(ops) == 1:
                return [("jal", f"ra, {ops[0]}")]
            if m == "jalr" and len(ops) == 1:
                return [("jalr", f"ra, 0({ops[0]})")]
            return [(m, stmt.operands)]
        if m == "nop":
            return [("addi", "zero, zero, 0")]
        if m == "mv":
            need(2)
            return [("addi", f"{ops[0]}, {ops[1]}, 0")]
        if m in ("li", "la"):
            need(2)
            rd, value = ops
            return [
                ("lui", f"{rd}, %hi({value})"),
                ("addi", f"{rd}, {rd}, %lo({value})"),
            ]
        if m == "j":
            need(1)
            return [("jal", f"zero, {ops[0]}")]
        if m == "jr":
            need(1)
            return [("jalr", f"zero, 0({ops[0]})")]
        if m == "call":
            need(1)
            return [("jal", f"ra, {ops[0]}")]
        if m == "ret":
            need(0)
            return [("jalr", "zero, 0(ra)")]
        if m == "beqz":
            need(2)
            return [("beq", f"{ops[0]}, zero, {ops[1]}")]
        if m == "bnez":
            need(2)
            return [("bne", f"{ops[0]}, zero, {ops[1]}")]
        if m == "blez":
            need(2)
            return [("bge", f"zero, {ops[0]}, {ops[1]}")]
        if m == "bgez":
            need(2)
            return [("bge", f"{ops[0]}, zero, {ops[1]}")]
        if m == "bltz":
            need(2)
            return [("blt", f"{ops[0]}, zero, {ops[1]}")]
        if m == "bgtz":
            need(2)
            return [("blt", f"zero, {ops[0]}, {ops[1]}")]
        if m == "bgt":
            need(3)
            return [("blt", f"{ops[1]}, {ops[0]}, {ops[2]}")]
        if m == "ble":
            need(3)
            return [("bge", f"{ops[1]}, {ops[0]}, {ops[2]}")]
        if m == "bgtu":
            need(3)
            return [("bltu", f"{ops[1]}, {ops[0]}, {ops[2]}")]
        if m == "bleu":
            need(3)
            return [("bgeu", f"{ops[1]}, {ops[0]}, {ops[2]}")]
        if m == "seqz":
            need(2)
            return [("sltiu", f"{ops[0]}, {ops[1]}, 1")]
        if m == "snez":
            need(2)
            return [("sltu", f"{ops[0]}, zero, {ops[1]}")]
        if m == "not":
            need(2)
            return [("xori", f"{ops[0]}, {ops[1]}, -1")]
        if m == "neg":
            need(2)
            return [("sub", f"{ops[0]}, zero, {ops[1]}")]
        raise AsmSyntaxError(f"unknown mnemonic {m!r}", line, self.source_name)

    # ------------------------------------------------------------------
    # pass 2: emission
    # ------------------------------------------------------------------
    def _pass2(self, statements, base: int) -> Program:
        program = Program(base=base, symbols=dict(self.symbols))
        image = program.data

        def pad_to(addr):
            gap = addr - (base + len(image))
            if gap > 0:
                image.extend(b"\x00" * gap)

        for stmt in statements:
            pad_to(stmt.addr)
            if stmt.directive is not None:
                self._emit_directive(stmt, image, base, program)
                continue
            pc = stmt.addr
            for mnemonic, operand_text in self._expansion(stmt):
                instr = self._parse_operands(mnemonic, operand_text, pc, stmt.line)
                try:
                    word = encode(instr)
                except EncodeError as exc:
                    raise AsmRangeError(str(exc), stmt.line, self.source_name) from exc
                image.extend(struct.pack("<I", word))
                program.listing.append((pc, word, stmt.text))
                pc += 4
        program.symbols = dict(self.symbols)
        return program

    def _emit_directive(self, stmt, image, base, program):
        d = stmt.directive
        ev = ExprEvaluator(self.symbols, stmt.addr, stmt.line, self.source_name)
        if d in (".text", ".data", ".globl", ".global", ".section", ".equ", ".set"):
            return
        if d in (".org", ".align"):
            target = stmt.addr + stmt.size
            gap = target - (base + len(image))
            if gap > 0:
                image.extend(b"\x00" * gap)
            return
        if d == ".word":
            for chunk in stmt.chunks:
                value = ev.evaluate(tokenize(chunk, stmt.line, self.source_name))
                image.extend(struct.pack("<I", value & 0xFFFFFFFF))
            return
        if d == ".half":
            for chunk in stmt.chunks:
                value = ev.evaluate(tokenize(chunk, stmt.line, self.source_name))
                image.extend(struct.pack("<H", value & 0xFFFF))
            return
        if d == ".byte":
            for chunk in stmt.chunks:
                value = ev.evaluate(tokenize(chunk, stmt.line, self.source_name))
                image.append(value & 0xFF)
            return
        if d in (".ascii", ".asciz"):
            toks = tokenize(stmt.operands, stmt.line, self.source_name)
            image.extend(toks[0].value.encode("latin-1"))
            if d == ".asciz":
                image.append(0)
            return
        if d in (".space", ".zero"):
            image.extend(b"\x00" * stmt.size)
            return
        raise AsmSyntaxError(  # pragma: no cover - caught in pass 1
            f"unknown directive {d}", stmt.line, self.source_name
        )

    # ------------------------------------------------------------------
    # operand parsing
    # ------------------------------------------------------------------
    def _parse_operands(self, mnemonic, text, pc, line) -> Instruction:
        spec = SPECS[mnemonic]
        pattern = spec.operands
        chunks = split_operands(text)
        ev = ExprEvaluator(self.symbols, pc, line, self.source_name)

        def err(msg):
            raise AsmSyntaxError(f"{mnemonic}: {msg}", line, self.source_name)

        def reg(chunk):
            name = chunk.strip()
            if name not in REG_BY_NAME:
                err(f"bad register {name!r}")
            return REG_BY_NAME[name]

        def mreg(chunk):
            name = chunk.strip()
            if name not in MREG_BY_NAME:
                err(f"bad Metal register {name!r}")
            return MREG_BY_NAME[name]

        def value(chunk):
            return ev.evaluate(tokenize(chunk, line, self.source_name))

        def mem_operand(chunk):
            """Parse ``imm(rs1)`` (the paren part optional -> rs1 = zero)."""
            toks = tokenize(chunk, line, self.source_name)
            val, rest = ev.evaluate_prefix(toks) if toks and not (
                toks[0].kind == "punct" and toks[0].value == "("
                and self._is_pure_reg(toks)
            ) else (0, toks)
            if not rest:
                return val, 0
            if rest[0].kind == "punct" and rest[0].value == "(":
                if (
                    len(rest) != 3
                    or rest[1].kind != "ident"
                    or rest[2].value != ")"
                ):
                    err(f"bad memory operand {chunk!r}")
                name = rest[1].value
                if name not in REG_BY_NAME:
                    err(f"bad base register {name!r}")
                return val, REG_BY_NAME[name]
            err(f"bad memory operand {chunk!r}")

        def expect(n):
            if len(chunks) != n:
                err(f"expected {n} operand(s), got {len(chunks)}")

        if pattern == "":
            if chunks:
                err("takes no operands")
            return Instruction(mnemonic, spec=spec)
        if pattern == "rd,rs1,rs2":
            expect(3)
            return Instruction(
                mnemonic, rd=reg(chunks[0]), rs1=reg(chunks[1]), rs2=reg(chunks[2]),
                spec=spec,
            )
        if pattern in ("rd,rs1,imm", "rd,rs1,shamt"):
            expect(3)
            return Instruction(
                mnemonic, rd=reg(chunks[0]), rs1=reg(chunks[1]),
                imm=value(chunks[2]), spec=spec,
            )
        if pattern == "rd,imm(rs1)":
            expect(2)
            imm, rs1 = mem_operand(chunks[1])
            return Instruction(mnemonic, rd=reg(chunks[0]), rs1=rs1, imm=imm, spec=spec)
        if pattern == "rs2,imm(rs1)":
            expect(2)
            imm, rs1 = mem_operand(chunks[1])
            return Instruction(
                mnemonic, rs2=reg(chunks[0]), rs1=rs1, imm=imm, spec=spec
            )
        if pattern == "rs1,rs2,btarget":
            expect(3)
            target = value(chunks[2])
            return Instruction(
                mnemonic, rs1=reg(chunks[0]), rs2=reg(chunks[1]),
                imm=target - pc, spec=spec,
            )
        if pattern == "rd,jtarget":
            expect(2)
            target = value(chunks[1])
            return Instruction(mnemonic, rd=reg(chunks[0]), imm=target - pc, spec=spec)
        if pattern == "rd,uimm":
            # The operand is the 20-bit field, as in RISC-V assemblers
            # (``%hi`` yields one); the instruction carries it shifted.
            expect(2)
            field = value(chunks[1])
            if not 0 <= field <= 0xFFFFF:
                raise AsmRangeError(
                    f"{mnemonic}: upper immediate out of range "
                    f"0..0xfffff: {field:#x}", line, self.source_name)
            return Instruction(mnemonic, rd=reg(chunks[0]), imm=field << 12,
                               spec=spec)
        if pattern == "rd,csr,rs1":
            expect(3)
            csr = value(chunks[1])
            return Instruction(
                mnemonic, rd=reg(chunks[0]), rs1=reg(chunks[2]),
                imm=csr, csr=csr, spec=spec,
            )
        if pattern == "rd,csr,zimm":
            expect(3)
            csr = value(chunks[1])
            zimm = value(chunks[2])
            if not 0 <= zimm < 32:
                err(f"zimm out of range: {zimm}")
            return Instruction(
                mnemonic, rd=reg(chunks[0]), rs1=zimm, imm=csr, csr=csr, spec=spec
            )
        if pattern == "entry":
            expect(1)
            return Instruction(mnemonic, imm=value(chunks[0]), spec=spec)
        if pattern == "rd,mreg":
            expect(2)
            return Instruction(
                mnemonic, rd=reg(chunks[0]), rs1=mreg(chunks[1]), spec=spec
            )
        if pattern == "mreg,rs1":
            expect(2)
            return Instruction(
                mnemonic, rd=mreg(chunks[0]), rs1=reg(chunks[1]), spec=spec
            )
        if pattern == "rd,rs1":
            expect(2)
            return Instruction(
                mnemonic, rd=reg(chunks[0]), rs1=reg(chunks[1]), spec=spec
            )
        if pattern == "rs1,rs2":
            expect(2)
            return Instruction(
                mnemonic, rs1=reg(chunks[0]), rs2=reg(chunks[1]), spec=spec
            )
        if pattern == "rs1":
            expect(1)
            return Instruction(mnemonic, rs1=reg(chunks[0]), spec=spec)
        if pattern == "rd":
            expect(1)
            return Instruction(mnemonic, rd=reg(chunks[0]), spec=spec)
        raise AssertionError(f"unhandled pattern {pattern!r}")  # pragma: no cover

    @staticmethod
    def _is_pure_reg(toks):
        """True for a bare ``(reg)`` operand (offset omitted)."""
        return (
            len(toks) == 3
            and toks[0].kind == "punct" and toks[0].value == "("
            and toks[1].kind == "ident"
            and toks[2].kind == "punct" and toks[2].value == ")"
        )


def assemble(source: str, base: int = 0, symbols: dict = None,
             source_name: str = "<asm>") -> Program:
    """Assemble *source* text into a :class:`Program`."""
    return Assembler(source_name).assemble(source, base=base, symbols=symbols)
