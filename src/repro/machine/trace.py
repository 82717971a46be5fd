"""Execution tracing.

A :class:`Tracer` attaches to an engine's per-step hook and records
:class:`TraceRecord` rows — disassembled instruction, mode, control kind —
optionally filtered.  Used for debugging guests and for the examples'
"show me what the machine did" output.

Usage::

    tracer = Tracer(machine, limit=1000)
    with tracer:
        machine.run()
    print(tracer.format())
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.decoder import decode
from repro.isa.disasm import format_instruction


@dataclass
class TraceRecord:
    """One retired instruction."""

    index: int
    pc: int
    mnemonic: str
    text: str
    in_metal: bool
    control: str = None

    def __str__(self) -> str:
        mode = "M" if self.in_metal else " "
        ctl = f"  [{self.control}]" if self.control else ""
        return f"{self.index:6d} {mode} {self.pc:08x}  {self.text}{ctl}"


class Tracer:
    """Record the retired-instruction stream of a machine."""

    def __init__(self, machine, limit: int = 10_000, only_metal: bool = False,
                 mnemonics=None):
        self.machine = machine
        self.limit = limit
        self.only_metal = only_metal
        self.mnemonics = set(mnemonics) if mnemonics else None
        self.records = []
        self.dropped = 0

    # -- step hook ---------------------------------------------------------
    def _on_step(self, step) -> None:
        # The hook fires after execution; recover the mode the instruction
        # was *fetched* in (menter executes in normal mode but leaves the
        # machine in Metal mode, and vice versa for mexit).
        in_metal = self.machine.core.in_metal
        if step.control == "menter":
            in_metal = False
        elif step.control == "mexit":
            in_metal = True
        if self.only_metal and not in_metal:
            return
        if self.mnemonics is not None and step.mnemonic not in self.mnemonics:
            return
        if len(self.records) >= self.limit:
            self.dropped += 1
            return
        self.records.append(TraceRecord(
            index=self.machine.core.instret,
            pc=step.pc,
            mnemonic=step.mnemonic,
            text=self._disasm(step.pc, in_metal),
            in_metal=in_metal,
            control=step.control,
        ))

    def _disasm(self, pc: int, in_metal: bool) -> str:
        try:
            if in_metal:
                word = self.machine.core.metal.mram.fetch(pc)
            else:
                word = self.machine.read_word(pc)
            return format_instruction(decode(word))
        except Exception:
            return "<unavailable>"

    # -- attach/detach -------------------------------------------------------
    # Subscribes to the engine's step hooks, so tracers compose with
    # other per-step consumers.  While any hook is subscribed the engine
    # runs every instruction on step(), which calls each hook.
    def __enter__(self) -> "Tracer":
        self.machine.sim.add_step_hook(self._on_step)
        return self

    def __exit__(self, *exc) -> None:
        self.machine.sim.remove_step_hook(self._on_step)

    # -- reporting ------------------------------------------------------------
    def format(self) -> str:
        lines = [str(r) for r in self.records]
        if self.dropped:
            lines.append(f"... {self.dropped} records dropped (limit reached)")
        return "\n".join(lines)

    def mnemonic_histogram(self) -> dict:
        """mnemonic -> count over the recorded window."""
        hist = {}
        for record in self.records:
            hist[record.mnemonic] = hist.get(record.mnemonic, 0) + 1
        return hist

    def __len__(self) -> int:
        return len(self.records)
