"""Byte-addressable physical RAM."""

from __future__ import annotations

import mmap
import struct

from repro.errors import BusError

#: Granule of :meth:`PhysicalMemory.pages` (the tcache's eviction page).
PAGE_BYTES = 4096
#: Scan stride: a zero chunk is skipped with one compare.
CHUNK_BYTES = 64 * 1024
_ZEROS = memoryview(bytes(CHUNK_BYTES))


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

    # -- sparse images (snapshot capsules) --------------------------------
    def _holds(self, off: int, stop: int, expect) -> bool:
        """Whether bytes ``[off, stop)`` equal *expect*, compared in
        place (``mmap.find`` of a needle as long as the range)."""
        return self.data.find(expect, off, stop) == off

    def _spans(self, keep=()):
        """``(off, stop)`` of every page, except in the all-zero
        :data:`CHUNK_BYTES` chunks holding no offset of *keep*: those
        are skipped with one compare."""
        size = self.size
        kept = {off - off % CHUNK_BYTES for off in keep}
        for chunk in range(0, size, CHUNK_BYTES):
            end = min(chunk + CHUNK_BYTES, size)
            if chunk in kept or not self._holds(chunk, end,
                                                _ZEROS[:end - chunk]):
                for off in range(chunk, end, PAGE_BYTES):
                    yield off, min(off + PAGE_BYTES, end)

    def pages(self) -> dict:
        """``{offset: bytes}`` for every :data:`PAGE_BYTES` page that
        holds a non-zero byte (the last page may be short), found
        without copying the rest of RAM."""
        return {off: self.data[off:stop] for off, stop in self._spans()
                if not self._holds(off, stop, _ZEROS[:stop - off])}

    def load_pages(self, pages: dict) -> None:
        """Make RAM equal the image *pages* (from :meth:`pages`; a page
        missing from it is zero).  Only the pages whose bytes differ are
        rewritten, each through :meth:`write_bytes`, so the write hook
        reports exactly the changed pages."""
        for off, stop in self._spans(pages):
            want = pages.get(off, _ZEROS[:stop - off])
            if not self._holds(off, stop, want):
                self.write_bytes(self.base + off, want)
