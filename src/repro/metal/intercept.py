"""Instruction interception (paper §2.3).

"Our implementation allows intercepting any instruction with an mroutine.
For instance, developers can intercept loads and stores dynamically to
implement transactional memory or patch an insecure instruction at
runtime."

The table is a small CAM keyed by (major opcode, optional funct3).  An
exact (opcode, funct3) rule takes precedence over an opcode-wildcard rule.
Interception applies only to *normal-mode* instructions — mroutines
themselves are never intercepted in base Metal (the layered dispatcher in
:mod:`repro.metal.nested` builds top-down intercept chains in software).

Hardware entry protocol on an intercept hit (see
:mod:`repro.isa.registers`): m30 = PC of the intercepted instruction,
m29 = its raw word, m28 = ``Cause.INTERCEPT``, m31 = PC + 4 (so a plain
``mexit`` *skips* the instruction — the handler is expected to emulate it;
to retry instead, the handler copies m30 to m31 after disabling the rule).

Which words a rule set intercepts depends only on its match keys, so the
table keeps a hashable :attr:`InterceptTable.signature` of them: the
translation cache (:mod:`repro.cpu.tcache`) compiles normal-mode blocks
under one signature, flushing them when it changes, and compiles a
matched word as an intercept terminator, whose handler entry is looked
up at delivery.
"""

from __future__ import annotations

from repro.errors import InterceptError
from repro.isa.metal_ops import InterceptSpec, unpack_intercept_spec

#: CAM capacity — mirrors a small hardware structure, and is what the
#: synthesis model charges for.
DEFAULT_SLOTS = 16

#: The signature of an empty rule set.
NO_RULES = frozenset()


def intercepts(signature, word: int) -> bool:
    """Whether a rule set with match keys *signature* intercepts *word*
    (:meth:`InterceptTable.match` without the hit count or the entry)."""
    key = (word & 0x7F, (word >> 12) & 0x7)
    return key in signature or (key[0], None) in signature


class InterceptTable:
    """Match table: (opcode[, funct3]) -> mroutine entry."""

    def __init__(self, slots: int = DEFAULT_SLOTS):
        self.slots = slots
        self._rules = {}   # InterceptSpec.key -> (InterceptSpec, entry)
        #: The installed match keys: :data:`NO_RULES`, or a frozenset
        #: replaced whenever a rule is added or removed (not when a rule
        #: only changes its handler entry).
        self.signature = NO_RULES
        #: Total intercept hits (benchmark accounting).
        self.hits = 0

    # -- configuration (micept / miceptd) -----------------------------------
    def enable(self, spec_word: int, entry: int) -> None:
        """Install a rule from a packed ``micept`` rs1 operand."""
        self.enable_spec(unpack_intercept_spec(spec_word), entry)

    def disable(self, spec_word: int) -> None:
        """Remove the rule matching a packed spec (no-op if absent)."""
        spec = unpack_intercept_spec(spec_word)
        if self._rules.pop(spec.key, None) is not None:
            self._update_signature()

    def enable_spec(self, spec: InterceptSpec, entry: int) -> None:
        """Install a rule from an already-built :class:`InterceptSpec`."""
        new = spec.key not in self._rules
        if new and len(self._rules) >= self.slots:
            raise InterceptError(f"intercept CAM full ({self.slots} slots)")
        self._rules[spec.key] = (spec, entry)
        if new:
            self._update_signature()

    def clear(self) -> None:
        self._rules.clear()
        self._update_signature()

    def _update_signature(self) -> None:
        """Recompute :attr:`signature` after the match keys changed."""
        self.signature = frozenset(self._rules) if self._rules else NO_RULES

    # -- snapshot surface (repro.machine.snapshot) ---------------------------
    def snapshot_rules(self) -> dict:
        """Copy of the installed rules (specs are immutable value objects,
        so a shallow dict copy is a faithful capture)."""
        return dict(self._rules)

    def restore_rules(self, rules: dict) -> None:
        """Replace the rule set wholesale."""
        self._rules = dict(rules)
        self._update_signature()

    @property
    def active_rules(self) -> int:
        return len(self._rules)

    @property
    def empty(self) -> bool:
        return not self._rules

    # -- matching (fetch/decode path) -------------------------------------
    def match(self, word: int):
        """Return the handler entry for instruction *word*, or None.

        Exact (opcode, funct3) rules win over opcode wildcards.
        """
        if not self._rules:
            return None
        opcode = word & 0x7F
        funct3 = (word >> 12) & 0x7
        hit = self._rules.get((opcode, funct3))
        if hit is None:
            hit = self._rules.get((opcode, None))
        if hit is None:
            return None
        self.hits += 1
        return hit[1]
