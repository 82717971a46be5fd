"""Byte-addressable physical RAM."""

from __future__ import annotations

import mmap
import struct

from repro.errors import BusError


class PhysicalMemory:
    """A little-endian RAM region of a fixed size.

    All accesses are bounds-checked; out-of-range accesses raise
    :class:`BusError` with the *absolute* address when the region is used
    behind a :class:`repro.mem.bus.MemoryBus`.
    """

    def __init__(self, size: int, base: int = 0):
        if size <= 0:
            raise ValueError(f"memory size must be positive, got {size}")
        self.base = base
        self.size = size
        #: A private anonymous mapping: zero pages are mapped on first
        #: touch, so a fresh machine pays only for the RAM its guest
        #: uses, and dropping the machine unmaps it.
        self.data = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        #: Optional write-notification hook ``fn(addr, length)`` fired
        #: after every mutation (guest stores, host pokes, DMA).  The
        #: translation cache uses it to evict blocks over modified code.
        self.write_hook = None

    def _check(self, addr: int, length: int):
        off = addr - self.base
        if off < 0 or off + length > self.size:
            raise BusError(addr, f"{length}-byte access")
        return off

    # -- word/half/byte accessors (addr is absolute) --------------------
    def read_u8(self, addr: int) -> int:
        return self.data[self._check(addr, 1)]

    def read_u16(self, addr: int) -> int:
        off = self._check(addr, 2)
        return struct.unpack_from("<H", self.data, off)[0]

    def read_u32(self, addr: int) -> int:
        off = self._check(addr, 4)
        return struct.unpack_from("<I", self.data, off)[0]

    def write_u8(self, addr: int, value: int) -> None:
        self.data[self._check(addr, 1)] = value & 0xFF
        hook = self.write_hook
        if hook is not None:
            hook(addr, 1)

    def write_u16(self, addr: int, value: int) -> None:
        off = self._check(addr, 2)
        struct.pack_into("<H", self.data, off, value & 0xFFFF)
        hook = self.write_hook
        if hook is not None:
            hook(addr, 2)

    def write_u32(self, addr: int, value: int) -> None:
        off = self._check(addr, 4)
        struct.pack_into("<I", self.data, off, value & 0xFFFFFFFF)
        hook = self.write_hook
        if hook is not None:
            hook(addr, 4)

    # -- bulk accessors ---------------------------------------------------
    def read_bytes(self, addr: int, length: int) -> bytes:
        off = self._check(addr, length)
        return bytes(self.data[off:off + length])

    def write_bytes(self, addr: int, payload: bytes) -> None:
        off = self._check(addr, len(payload))
        self.data[off:off + len(payload)] = payload
        hook = self.write_hook
        if hook is not None and payload:
            hook(addr, len(payload))

    def fill(self, value: int = 0) -> None:
        """Set every byte of the region to *value*."""
        self.data[:] = bytes([value & 0xFF]) * self.size
        hook = self.write_hook
        if hook is not None:
            hook(self.base, self.size)

    def contains(self, addr: int) -> bool:
        """True if *addr* falls inside this region."""
        return self.base <= addr < self.base + self.size
