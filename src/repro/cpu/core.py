"""CpuCore: architectural state plus memory/trap plumbing.

One CpuCore instance backs either execution engine.  It owns:

* the 32 GPRs and the PC (in Metal mode the PC is an MRAM byte offset);
* the translation path (TLB when paging is on, identity otherwise);
* the fetch path (MRAM in Metal mode — constant latency, never touching
  the caches, per paper §2 — or the I-cache/memory path otherwise);
* the data path (D-cache/memory/MMIO with latencies);
* the baseline CSR file (used only when no MetalUnit is attached).

Latency-returning accessors keep policy out of this class: engines decide
how latencies combine into cycles.
"""

from __future__ import annotations

import struct

from repro.errors import BusError, MramError
from repro.cpu.csr import CsrFile
from repro.cpu.exceptions import Cause, TrapException
from repro.cpu.timing import TimingModel
from repro.mmu.tlb import Tlb
from repro.mmu.types import AccessType, FaultKind, TranslationFault

_FAULT_CAUSE = {
    AccessType.FETCH: Cause.PAGE_FAULT_FETCH,
    AccessType.LOAD: Cause.PAGE_FAULT_LOAD,
    AccessType.STORE: Cause.PAGE_FAULT_STORE,
}

_U16 = struct.Struct("<H").unpack_from
_U32 = struct.Struct("<I").unpack_from
_PK16 = struct.Struct("<H").pack_into
_PK32 = struct.Struct("<I").pack_into

_MISALIGNED_CAUSE = {
    AccessType.FETCH: Cause.MISALIGNED_FETCH,
    AccessType.LOAD: Cause.MISALIGNED_LOAD,
    AccessType.STORE: Cause.MISALIGNED_STORE,
}


class CpuCore:
    """Architectural state shared by the execution engines."""

    def __init__(self, bus, tlb: Tlb = None, metal=None, icache=None,
                 dcache=None, irq=None, timing: TimingModel = None):
        self.bus = bus
        self.tlb = tlb or Tlb()
        self.metal = metal
        self.icache = icache
        self.dcache = dcache
        self.irq = irq
        self.timing = timing or TimingModel()
        self.csrs = CsrFile()

        self.regs = [0] * 32
        self.pc = 0
        #: Baseline-machine privilege (Metal machines define privilege in
        #: software instead; see MetalUnit.user_translation).
        self.user_mode = False
        self.halted = False
        self.waiting = False  # wfi
        self.instret = 0

    # ------------------------------------------------------------------
    # registers
    # ------------------------------------------------------------------
    def rget(self, index: int) -> int:
        return self.regs[index]

    def rset(self, index: int, value: int) -> None:
        if index:
            self.regs[index] = value & 0xFFFFFFFF

    # ------------------------------------------------------------------
    # mode helpers
    # ------------------------------------------------------------------
    @property
    def in_metal(self) -> bool:
        return self.metal is not None and self.metal.in_metal

    @property
    def translating_as_user(self) -> bool:
        """Whether translation should enforce the U bit right now."""
        if self.in_metal:
            return False
        if self.metal is not None:
            return self.metal.user_translation
        return self.user_mode

    # ------------------------------------------------------------------
    # translation
    # ------------------------------------------------------------------
    def translate(self, va: int, access: AccessType) -> int:
        """VA -> PA; raises TrapException on translation failure.

        Page-key denials get their own cause (KEY_FAULT): a page-table
        refill cannot fix them, only a PKR change can, so handlers must be
        able to tell the difference.
        """
        try:
            return self.tlb.translate(va, access, user=self.translating_as_user)
        except TranslationFault as fault:
            if fault.kind is FaultKind.KEY:
                raise TrapException(Cause.KEY_FAULT, fault.va) from fault
            raise TrapException(_FAULT_CAUSE[access], fault.va) from fault

    # ------------------------------------------------------------------
    # fetch path
    # ------------------------------------------------------------------
    def fetch(self, pc: int):
        """Fetch the instruction word at *pc*; returns ``(word, latency)``."""
        if self.in_metal:
            try:
                return self.metal.mram.fetch(pc), self.timing.mram_fetch
            except MramError as exc:
                # An mroutine running off the end of MRAM is a verification
                # escape; surface it as a fatal bus error trap (which, in
                # Metal mode, the engine escalates to a double fault).
                raise TrapException(Cause.BUS_ERROR, pc) from exc
        if pc % 4:
            raise TrapException(Cause.MISALIGNED_FETCH, pc)
        pa = self.translate(pc, AccessType.FETCH)
        latency = (
            self.icache.access(pa) if self.icache is not None
            else self.timing.mem_latency
        )
        try:
            return self.bus.read_u32(pa), latency
        except BusError:
            raise TrapException(Cause.BUS_ERROR, pc) from None

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def _data_latency(self, pa: int, is_device: bool) -> int:
        if is_device:
            return self.timing.mmio_latency
        if self.dcache is not None:
            return self.dcache.access(pa)
        return self.timing.mem_latency

    def read_mem(self, va: int, width: int, physical: bool = False):
        """Read *width* bytes; returns ``(unsigned_value, latency)``.

        The common case is direct: an aligned access under identity
        translation (*physical*, or the TLB off) that lies wholly inside
        the bus's first RAM region (:attr:`~repro.mem.bus.MemoryBus.ram0`)
        reads the region's bytes at the offset and charges the D-cache
        (or ``mem_latency``).  A misaligned, paged, device or
        out-of-region access takes the bus route, which traps and times
        it; both give the same value, latency and cache state.
        """
        va &= 0xFFFFFFFF
        ram = self.bus.ram0
        if ((physical or not self.tlb.enabled) and ram is not None
                and not va & (width - 1)):
            off = va - ram.base
            if 0 <= off <= ram.size - width:
                if width == 4:
                    value = _U32(ram.data, off)[0]
                elif width == 1:
                    value = ram.data[off]
                else:
                    value = _U16(ram.data, off)[0]
                dcache = self.dcache
                return value, (dcache.access(va) if dcache is not None
                               else self.timing.mem_latency)
        if va % width:
            raise TrapException(Cause.MISALIGNED_LOAD, va)
        pa = va if physical else self.translate(va, AccessType.LOAD)
        is_device = self.bus.is_device(pa)
        try:
            if width == 1:
                value = self.bus.read_u8(pa)
            elif width == 2:
                value = self.bus.read_u16(pa)
            else:
                value = self.bus.read_u32(pa)
        except BusError:
            raise TrapException(Cause.BUS_ERROR, va) from None
        return value, self._data_latency(pa, is_device)

    def write_mem(self, va: int, width: int, value: int,
                  physical: bool = False) -> int:
        """Write *width* bytes; returns the access latency.

        Takes the direct path :meth:`read_mem` describes when it can:
        it writes the region's bytes, fires the region's write hook
        (translation-cache invalidation) and charges the D-cache (or
        ``mem_latency``); every other access takes the bus route.
        """
        va &= 0xFFFFFFFF
        ram = self.bus.ram0
        if ((physical or not self.tlb.enabled) and ram is not None
                and not va & (width - 1)):
            off = va - ram.base
            if 0 <= off <= ram.size - width:
                if width == 4:
                    _PK32(ram.data, off, value & 0xFFFFFFFF)
                elif width == 1:
                    ram.data[off] = value & 0xFF
                else:
                    _PK16(ram.data, off, value & 0xFFFF)
                hook = ram.write_hook
                if hook is not None:
                    hook(va, width)
                dcache = self.dcache
                return (dcache.access(va) if dcache is not None
                        else self.timing.mem_latency)
        if va % width:
            raise TrapException(Cause.MISALIGNED_STORE, va)
        pa = va if physical else self.translate(va, AccessType.STORE)
        is_device = self.bus.is_device(pa)
        try:
            if width == 1:
                self.bus.write_u8(pa, value)
            elif width == 2:
                self.bus.write_u16(pa, value)
            else:
                self.bus.write_u32(pa, value)
        except BusError:
            raise TrapException(Cause.BUS_ERROR, va) from None
        return self._data_latency(pa, is_device)

    # ------------------------------------------------------------------
    # reset
    # ------------------------------------------------------------------
    def reset(self, pc: int = 0) -> None:
        self.regs = [0] * 32
        self.pc = pc
        self.user_mode = False
        self.halted = False
        self.waiting = False
        self.instret = 0
        self.csrs = CsrFile()
        if self.metal is not None:
            self.metal.reset()
