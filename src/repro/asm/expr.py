"""Constant-expression evaluation for assembler operands.

Grammar (standard precedence)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | atom
    atom   := number | symbol | '.' | '(' expr ')'
             | %hi '(' expr ')' | %lo '(' expr ')'

``.`` evaluates to the current location counter.  ``%hi``/``%lo`` implement
the usual RISC-V split of a 32-bit absolute address into a LUI upper part
(the 20-bit field ``lui`` takes) and a sign-compensated 12-bit lower part,
so that ``lui + addi`` sequences reconstruct the exact address.
"""

from __future__ import annotations

from repro.errors import AsmSymbolError, AsmSyntaxError


def hi20(value: int) -> int:
    """Upper 20 bits of *value*, compensated for lo12 sign extension."""
    return ((value + 0x800) >> 12) & 0xFFFFF


def lo12(value: int) -> int:
    """Signed low 12 bits of *value* (pairs with :func:`hi20`)."""
    lo = value & 0xFFF
    if lo >= 0x800:
        lo -= 0x1000
    return lo


class ExprEvaluator:
    """Evaluates a token stream against a symbol table."""

    def __init__(self, symbols, location: int, line: int = 0, source: str = "<asm>"):
        self.symbols = symbols
        self.location = location
        self.line = line
        self.source = source
        self._tokens = []
        self._pos = 0

    # -- token stream helpers ------------------------------------------
    def _peek(self):
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise AsmSyntaxError("unexpected end of expression", self.line, self.source)
        self._pos += 1
        return tok

    def _expect_punct(self, value: str):
        tok = self._next()
        if tok.kind != "punct" or tok.value != value:
            raise AsmSyntaxError(f"expected {value!r}", self.line, self.source)

    # -- public API -----------------------------------------------------
    def evaluate(self, tokens) -> int:
        """Evaluate *tokens* fully; raise if trailing tokens remain."""
        self._tokens = list(tokens)
        self._pos = 0
        value = self._expr()
        if self._pos != len(self._tokens):
            raise AsmSyntaxError("trailing tokens in expression", self.line, self.source)
        return value

    def evaluate_prefix(self, tokens):
        """Evaluate a leading expression; return ``(value, rest_tokens)``."""
        self._tokens = list(tokens)
        self._pos = 0
        value = self._expr()
        return value, self._tokens[self._pos:]

    # -- grammar ---------------------------------------------------------
    def _expr(self) -> int:
        value = self._term()
        while True:
            tok = self._peek()
            if tok is not None and tok.kind == "punct" and tok.value in "+-":
                self._next()
                rhs = self._term()
                value = value + rhs if tok.value == "+" else value - rhs
            else:
                return value

    def _term(self) -> int:
        value = self._unary()
        while True:
            tok = self._peek()
            if tok is not None and tok.kind == "punct" and tok.value in "*/":
                self._next()
                rhs = self._unary()
                value = value * rhs if tok.value == "*" else value // rhs
            else:
                return value

    def _unary(self) -> int:
        tok = self._peek()
        if tok is not None and tok.kind == "punct" and tok.value == "-":
            self._next()
            return -self._unary()
        return self._atom()

    def _atom(self) -> int:
        tok = self._next()
        if tok.kind == "num":
            return tok.value
        if tok.kind == "reloc":
            self._expect_punct("(")
            inner = self._expr()
            self._expect_punct(")")
            return hi20(inner) if tok.value == "%hi" else lo12(inner)
        if tok.kind == "ident":
            if tok.value == ".":
                return self.location
            try:
                return self.symbols[tok.value]
            except KeyError:
                raise AsmSymbolError(
                    f"undefined symbol {tok.value!r}", self.line, self.source
                ) from None
        if tok.kind == "punct" and tok.value == "(":
            value = self._expr()
            self._expect_punct(")")
            return value
        raise AsmSyntaxError(f"unexpected token {tok.value!r}", self.line, self.source)
