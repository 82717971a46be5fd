"""The system bus: routes physical accesses to RAM regions and devices."""

from __future__ import annotations

from repro.errors import BusError
from repro.mem.memory import PhysicalMemory
from repro.mem.mmio import NEVER


class MemoryBus:
    """Physical address space composed of RAM regions and MMIO devices.

    Lookup order is registration order; regions must not overlap (checked
    at attach time).  The bus also fans out ``tick()`` to attached
    devices.

    **Device time.**  Devices are deterministic functions of the cycle
    count, and their ``tick`` is batch-exact, so the bus lets them lag
    behind the engine's ``clock``: :attr:`ticked` is the cycle they were
    last brought up to, and :attr:`horizon` the earliest cycle at which
    one of them can raise an interrupt line or write RAM (the minimum of
    their :meth:`~repro.mem.mmio.MmioDevice.next_event`, or
    :attr:`ticked` itself while a PLIC line is latched).  Below the
    horizon a lagging device is indistinguishable from an exact one
    except through its registers, so every register access first
    brings every device up to the clock, and afterwards recomputes the
    horizon (the access may have armed a timer or started a transfer).
    """

    def __init__(self):
        self.regions = []   # list of (region, is_device)
        self.devices = []   # devices only, for tick/irq fan-out
        #: The first RAM region attached, or None.  Most accesses hit it,
        #: so the access methods test it before routing, and
        #: :meth:`repro.cpu.core.CpuCore.read_mem`/``write_mem`` access
        #: its bytes directly.
        self.ram0 = None
        # Write-notification fan-out (translation-cache invalidation).
        self._write_watchers = []
        #: The engine's timer (anything with ``cycles``), or None: then
        #: devices advance only through :meth:`tick`/:meth:`advance`.
        self.clock = None
        #: Interrupt controller whose latched lines count as due now.
        self.irq = None
        self.ticked = 0
        self.horizon = 0

    # -- configuration ------------------------------------------------------
    def attach_ram(self, base: int, size: int) -> PhysicalMemory:
        """Create and attach a RAM region; returns it."""
        ram = PhysicalMemory(size, base=base)
        self._attach(ram, is_device=False)
        if self.ram0 is None:
            self.ram0 = ram
        if self._write_watchers:
            ram.write_hook = self._region_hook()
        return ram

    def watch_writes(self, fn) -> None:
        """Register ``fn(addr, length)`` to observe every RAM mutation.

        Covers guest stores, host pokes and device DMA alike (they all
        land in a :class:`PhysicalMemory` region).  Used by the
        translation cache to evict blocks over modified code pages; RAM
        regions pay a single attribute test per write until the first
        watcher registers.
        """
        if fn not in self._write_watchers:
            self._write_watchers.append(fn)
        hook = self._region_hook()
        for region, is_device in self.regions:
            if not is_device:
                region.write_hook = hook

    def _region_hook(self):
        # Single watcher (the common case) is wired in directly so a
        # guest store pays one call, not a fan-out loop.
        watchers = self._write_watchers
        return watchers[0] if len(watchers) == 1 else self._notify_write

    def _notify_write(self, addr: int, length: int) -> None:
        for fn in self._write_watchers:
            fn(addr, length)

    def attach_device(self, device) -> None:
        """Attach an MMIO device (anything with the MmioDevice interface)."""
        self._attach(device, is_device=True)
        self.devices.append(device)

    def _attach(self, region, is_device: bool) -> None:
        new_lo = region.base
        new_hi = region.base + region.size
        for existing, _ in self.regions:
            lo, hi = existing.base, existing.base + existing.size
            if new_lo < hi and lo < new_hi:
                raise BusError(
                    new_lo,
                    f"overlaps existing region at [{lo:#x}, {hi:#x})",
                )
        self.regions.append((region, is_device))

    # -- routing --------------------------------------------------------------
    def _route(self, addr: int):
        ram0 = self.ram0
        if ram0 is not None and ram0.base <= addr < ram0.base + ram0.size:
            return ram0
        for region, _ in self.regions:
            if region.contains(addr):
                return region
        raise BusError(addr)

    def is_device(self, addr: int) -> bool:
        """True if *addr* routes to an MMIO device (timing differs)."""
        ram0 = self.ram0
        if ram0 is not None and ram0.base <= addr < ram0.base + ram0.size:
            return False
        for region, is_dev in self.regions:
            if region.contains(addr):
                return is_dev
        return False

    def _access(self, addr: int, op: str, *args):
        """Perform ``region.op(addr, *args)`` for an address outside the
        first RAM region.  A device is brought up to the clock first,
        and the horizon is recomputed after its register access."""
        for region, is_dev in self.regions:
            if region.contains(addr):
                if not is_dev:
                    return getattr(region, op)(addr, *args)
                if self.clock is not None:
                    self.advance(self.clock.cycles)
                try:
                    return getattr(region, op)(addr, *args)
                finally:
                    self.refresh()
        raise BusError(addr)

    # -- access methods ---------------------------------------------------------
    def read_u8(self, addr: int) -> int:
        ram0 = self.ram0
        if ram0 is not None and ram0.base <= addr < ram0.base + ram0.size:
            return ram0.read_u8(addr)
        return self._access(addr, "read_u8")

    def read_u16(self, addr: int) -> int:
        ram0 = self.ram0
        if ram0 is not None and ram0.base <= addr < ram0.base + ram0.size:
            return ram0.read_u16(addr)
        return self._access(addr, "read_u16")

    def read_u32(self, addr: int) -> int:
        ram0 = self.ram0
        if ram0 is not None and ram0.base <= addr < ram0.base + ram0.size:
            return ram0.read_u32(addr)
        return self._access(addr, "read_u32")

    def write_u8(self, addr: int, value: int) -> None:
        ram0 = self.ram0
        if ram0 is not None and ram0.base <= addr < ram0.base + ram0.size:
            ram0.write_u8(addr, value)
        else:
            self._access(addr, "write_u8", value)

    def write_u16(self, addr: int, value: int) -> None:
        ram0 = self.ram0
        if ram0 is not None and ram0.base <= addr < ram0.base + ram0.size:
            ram0.write_u16(addr, value)
        else:
            self._access(addr, "write_u16", value)

    def write_u32(self, addr: int, value: int) -> None:
        ram0 = self.ram0
        if ram0 is not None and ram0.base <= addr < ram0.base + ram0.size:
            ram0.write_u32(addr, value)
        else:
            self._access(addr, "write_u32", value)

    def read_bytes(self, addr: int, length: int) -> bytes:
        region = self._route(addr)
        if not hasattr(region, "read_bytes"):
            raise BusError(addr, "bulk access to device")
        return region.read_bytes(addr, length)

    def write_bytes(self, addr: int, payload: bytes) -> None:
        region = self._route(addr)
        if not hasattr(region, "write_bytes"):
            raise BusError(addr, "bulk access to device")
        region.write_bytes(addr, payload)

    # -- device fan-out ------------------------------------------------------------
    def tick(self, cycles: int) -> None:
        """Advance all attached devices by *cycles*."""
        for device in self.devices:
            device.tick(cycles)

    def advance(self, now: int) -> None:
        """Bring every device up to cycle *now*; on crossing the
        horizon, also recompute it."""
        delta = now - self.ticked
        if delta > 0:
            self.tick(delta)
            self.ticked = now
            if now >= self.horizon:
                self.refresh()

    def refresh(self) -> None:
        """Recompute :attr:`horizon` from the devices' current state."""
        irq = self.irq
        if irq is not None and irq.latched:
            self.horizon = self.ticked
            return
        due = NEVER
        for device in self.devices:
            event = device.next_event()
            if event < due:
                due = event
        self.horizon = self.ticked + due
