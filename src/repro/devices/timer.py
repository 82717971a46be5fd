"""Cycle-counting timer with a compare interrupt.

Register map (word offsets):

====== ==================================================
0x00   COUNT (low 32 bits of the cycle counter, read-only)
0x04   COMPARE: interrupt when COUNT >= COMPARE
0x08   CTRL: bit0 = interrupt enable; writing clears a
       pending interrupt condition if COMPARE was raised
====== ==================================================
"""

from __future__ import annotations

from repro.mem.mmio import NEVER, MmioDevice

REG_COUNT = 0x00
REG_COMPARE = 0x04
REG_CTRL = 0x08


class Timer(MmioDevice):
    """Free-running cycle counter with compare-match interrupt."""

    def __init__(self, base: int = 0xF000_1000):
        super().__init__(base, 0x0C, name="timer")
        self.count = 0
        self.compare = 0xFFFFFFFF
        self.irq_enabled = False

    def tick(self, cycles: int) -> None:
        self.count = (self.count + cycles) & 0xFFFFFFFF

    def read_reg(self, offset: int) -> int:
        if offset == REG_COUNT:
            return self.count
        if offset == REG_COMPARE:
            return self.compare
        if offset == REG_CTRL:
            return int(self.irq_enabled)
        return 0

    def write_reg(self, offset: int, value: int) -> None:
        if offset == REG_COMPARE:
            self.compare = value
        elif offset == REG_CTRL:
            self.irq_enabled = bool(value & 1)

    def irq_pending(self) -> bool:
        return self.irq_enabled and self.count >= self.compare

    def next_event(self) -> int:
        if not self.irq_enabled:
            return NEVER
        return self.compare - self.count if self.count < self.compare else 0
