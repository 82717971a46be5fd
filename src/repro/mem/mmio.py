"""Memory-mapped IO device base classes.

Devices expose word-sized registers at fixed offsets.  The paper notes
(§2.1) that processors may expose architectural features "as either Metal
instructions, control registers or memory mapped IO"; the devices in
:mod:`repro.devices` use this interface, and the Metal machine additionally
maps a Metal-only MMIO window.
"""

from __future__ import annotations

import weakref

from repro.errors import AlignmentError, BusError

#: :meth:`MmioDevice.next_event` of a device with nothing scheduled.
NEVER = 1 << 62


class MmioDevice:
    """Base class: a device occupying ``size`` bytes of physical space.

    Subclasses implement :meth:`read_reg` / :meth:`write_reg`, which receive
    *word-aligned offsets* relative to the device base.  Sub-word access to
    MMIO is rejected (real SoCs commonly do the same).
    """

    def __init__(self, base: int, size: int, name: str = "mmio"):
        self.base = base
        self.size = size
        self.name = name

    # -- interface used by the bus ----------------------------------------
    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size

    def read_u32(self, addr: int) -> int:
        off = self._offset(addr)
        return self.read_reg(off) & 0xFFFFFFFF

    def write_u32(self, addr: int, value: int) -> None:
        off = self._offset(addr)
        self.write_reg(off, value & 0xFFFFFFFF)

    def read_u8(self, addr: int) -> int:
        raise AlignmentError(f"{self.name}: MMIO requires word access at {addr:#x}")

    def read_u16(self, addr: int) -> int:
        raise AlignmentError(f"{self.name}: MMIO requires word access at {addr:#x}")

    def write_u8(self, addr: int, value: int) -> None:
        raise AlignmentError(f"{self.name}: MMIO requires word access at {addr:#x}")

    def write_u16(self, addr: int, value: int) -> None:
        raise AlignmentError(f"{self.name}: MMIO requires word access at {addr:#x}")

    def _offset(self, addr: int) -> int:
        off = addr - self.base
        if off < 0 or off >= self.size:
            raise BusError(addr, f"{self.name} access")
        if off % 4:
            raise AlignmentError(
                f"{self.name}: misaligned MMIO access at {addr:#x}"
            )
        return off

    # -- subclass interface -------------------------------------------------
    def read_reg(self, offset: int) -> int:
        """Read the register at word-aligned *offset*."""
        raise NotImplementedError

    def write_reg(self, offset: int, value: int) -> None:
        """Write the register at word-aligned *offset*."""
        raise NotImplementedError

    # -- interrupt plumbing --------------------------------------------------
    def irq_pending(self) -> bool:
        """True if the device is asserting its interrupt line."""
        return False

    def tick(self, cycles: int) -> None:
        """Advance device-internal time by *cycles* processor cycles.

        Batch-exact: ``tick(a)`` then ``tick(b)`` leaves the same state
        as ``tick(a + b)``, so the bus may catch a device up late."""

    def next_event(self) -> int:
        """Cycles until the device can raise its interrupt line or
        write RAM with no register access in between: 0 while the line
        is up, :data:`NEVER` when nothing is scheduled."""
        return 0 if self.irq_pending() else NEVER


class DmaDevice(MmioDevice):
    """A device that moves data to and from memory through ``bus``
    (None until the machine builder wires it).

    The bus holds the device, so the device holds the bus only weakly:
    a dropped machine then frees its RAM at once, without waiting for
    the cyclic collector.
    """

    _bus_ref = None

    @property
    def bus(self):
        ref = self._bus_ref
        return ref() if ref is not None else None

    @bus.setter
    def bus(self, bus) -> None:
        self._bus_ref = weakref.ref(bus) if bus is not None else None


class MmioRegisterBank(MmioDevice):
    """A simple device backed by a dict of registers (useful in tests)."""

    def __init__(self, base: int, nregs: int, name: str = "regs"):
        super().__init__(base, nregs * 4, name)
        self.regs = {i * 4: 0 for i in range(nregs)}

    def read_reg(self, offset: int) -> int:
        try:
            return self.regs[offset]
        except KeyError:
            raise BusError(self.base + offset, f"{self.name} register") from None

    def write_reg(self, offset: int, value: int) -> None:
        if offset not in self.regs:
            raise BusError(self.base + offset, f"{self.name} register")
        self.regs[offset] = value
