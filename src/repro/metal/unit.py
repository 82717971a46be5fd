"""MetalUnit: the hardware extension bolted onto the CPU.

Composes the MRAM, the Metal register file, the interception table and the
delivery table, and owns the mode bit.  The CPU engines call three
operations:

* :meth:`enter` — ``menter``: save the return address in m31, switch to
  Metal mode, return the MRAM code offset to fetch from next.
* :meth:`deliver` — exception/interrupt/intercept entry: latch
  m28/m29/m30/m31 and return the handler's code offset.
* :meth:`exit_metal` — ``mexit``: leave Metal mode, return m31.

While in Metal mode the PC is a byte offset into the MRAM code segment,
not a virtual address; normal-mode PC is stashed nowhere else — m31 *is*
the architectural return path, exactly as in the paper ("the processor
stores the caller's return address into Metal register m31").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MetalError, MetalModeError
from repro.cpu.exceptions import Cause
from repro.isa.registers import (
    MREG_CAUSE,
    MREG_EPC,
    MREG_ICEPT_RS1,
    MREG_ICEPT_RS2,
    MREG_INFO,
    MREG_RETURN,
)
from repro.metal.delivery import DeliveryTable
from repro.metal.intercept import InterceptTable
from repro.metal.loader import MetalImage
from repro.metal.mregs import MRegFile


@dataclass
class MetalStats:
    """Transition counters for benchmarks."""

    enters: int = 0
    exits: int = 0
    deliveries: dict = field(default_factory=dict)  # cause -> count
    intercepts: int = 0

    def note_delivery(self, cause: int) -> None:
        self.deliveries[cause] = self.deliveries.get(cause, 0) + 1


class MetalUnit:
    """The Metal extension state machine."""

    def __init__(self, image: MetalImage):
        self.image = image
        self.mram = image.mram
        self.mregs = MRegFile()
        self.intercept = InterceptTable()
        self.delivery = DeliveryTable()
        self.in_metal = False
        self.stats = MetalStats()
        #: Paging/user-translation control (set by ``mpgon`` from mcode).
        self.paging_enabled = False
        self.user_translation = False

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def enter(self, entry: int, return_pc: int) -> int:
        """``menter entry``: returns the MRAM code offset to execute."""
        if self.in_metal:
            raise MetalModeError("menter while already in Metal mode")
        offset = self.image.entry_offset(entry)
        self.mregs.values[MREG_RETURN] = return_pc & 0xFFFFFFFF
        self.in_metal = True
        self.stats.enters += 1
        return offset

    def deliver(self, cause: int, epc: int, info: int = 0,
                entry: int = None, operands=None) -> int:
        """Deliver an exception/interrupt/intercept to its mroutine.

        *entry* overrides the delivery table (used for intercept hits,
        whose handler comes from the interception table).  For intercepts,
        *operands* is the ``(rs1_value, rs2_value)`` pair the decode stage
        had already read for the intercepted instruction; hardware latches
        it into m25/m24 so handlers can emulate the instruction without
        racing their own GPR spills.  Returns the handler's MRAM offset.
        """
        if self.in_metal:
            # Paper §2.1: mroutines are non-interruptible, and a faulting
            # mroutine is a verification failure — treat as double fault.
            raise MetalError(
                f"double fault: cause {cause} raised inside an mroutine"
            )
        if entry is None:
            entry = self.delivery.handler_for(cause)
            if entry is None:
                raise MetalError(f"unrouted cause {cause} (no mivec mapping)")
        offset = self.image.entry_offset(entry)
        mregs = self.mregs.values
        mregs[MREG_CAUSE] = cause & 0xFFFFFFFF
        mregs[MREG_INFO] = info & 0xFFFFFFFF
        mregs[MREG_EPC] = epc & 0xFFFFFFFF
        # Default resume point: retry the instruction — except intercepts,
        # which default to *skip* so the handler emulates the instruction
        # (retry would re-intercept forever).
        resume = epc + 4 if cause == Cause.INTERCEPT else epc
        mregs[MREG_RETURN] = resume & 0xFFFFFFFF
        if operands is not None:
            mregs[MREG_ICEPT_RS1] = operands[0] & 0xFFFFFFFF
            mregs[MREG_ICEPT_RS2] = operands[1] & 0xFFFFFFFF
        self.in_metal = True
        self.stats.note_delivery(cause)
        if cause == Cause.INTERCEPT:
            self.stats.intercepts += 1
        return offset

    def redispatch(self, cause: int) -> int:
        """``mraise`` from inside an mroutine: tail-call the handler.

        m29/m30/m31 are preserved so the handler sees the original fault
        context; only the cause changes.
        """
        if not self.in_metal:
            raise MetalModeError("mraise outside Metal mode")
        entry = self.delivery.require_handler(cause)
        self.mregs.write(MREG_CAUSE, cause)
        self.stats.note_delivery(cause)
        return self.image.entry_offset(entry)

    def exit_metal(self) -> int:
        """``mexit``: returns the normal-mode resume PC (m31)."""
        if not self.in_metal:
            raise MetalModeError("mexit in normal mode")
        self.in_metal = False
        self.stats.exits += 1
        return self.mregs.values[MREG_RETURN]

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Reset mode and registers (MRAM contents persist, as at boot)."""
        self.in_metal = False
        self.mregs.reset()
        self.intercept.clear()
        self.delivery.clear()
        self.paging_enabled = False
        self.user_translation = False
        self.stats = MetalStats()

    def note_fetch(self, pc: int) -> None:
        """Hook for subclasses observing the normal-mode fetch stream
        (nested Metal uses it to expire replay-propagation state)."""

    def current_routine(self, pc: int):
        """The mroutine containing Metal-mode *pc* (diagnostics)."""
        return self.image.routine_at(pc)
