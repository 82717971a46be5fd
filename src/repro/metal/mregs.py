"""The Metal register file m0–m31.

Paper §2: a register file "containing 32 Metal exclusive registers m0-m31
to store Metal's internal state".  By convention in this reproduction (see
:mod:`repro.isa.registers`): m31 = return address, m30 = EPC, m29 = trap
info, m28 = cause.  Everything below m28 is free for mroutines; §3.1 for
example reserves m0 for the current privilege level.

MReg state is deliberately *not* cached and not spilled to memory — it is
processor-internal state, which is what lets Metal hold secrets (e.g. CFI
keys, §3.5) out of reach of normal-mode software.
"""

from __future__ import annotations

from repro.errors import MetalError
from repro.isa.registers import MREG_COUNT


class MRegFile:
    """32 x 32-bit Metal-exclusive registers."""

    def __init__(self):
        #: The 32 values.  One list for the file's lifetime (reset and
        #: restore write it in place), so MJIT code indexes it directly:
        #: an ``rmr``/``wmr`` register field is 5 bits, always in range.
        self.values = [0] * MREG_COUNT

    def read(self, index: int) -> int:
        if not 0 <= index < MREG_COUNT:
            raise MetalError(f"MReg index out of range: {index}")
        return self.values[index]

    def write(self, index: int, value: int) -> None:
        if not 0 <= index < MREG_COUNT:
            raise MetalError(f"MReg index out of range: {index}")
        self.values[index] = value & 0xFFFFFFFF

    def reset(self) -> None:
        self.values[:] = [0] * MREG_COUNT

    def snapshot(self):
        """Copy of all register values (tests and nested-Metal swaps)."""
        return list(self.values)

    def restore(self, values) -> None:
        if len(values) != MREG_COUNT:
            raise MetalError("MReg snapshot must have 32 values")
        self.values[:] = [v & 0xFFFFFFFF for v in values]

    def __getitem__(self, index: int) -> int:
        return self.read(index)

    def __setitem__(self, index: int, value: int) -> None:
        self.write(index, value)
