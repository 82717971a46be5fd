"""Synthetic block storage device with fixed completion latency.

Substitute for the NVMe devices behind SPDK (paper §3.4): the guest issues
a read/write for one 512-byte sector, the device completes it after
``latency_cycles``, then asserts its interrupt line until the completion is
acknowledged.  As with the NIC, polling and interrupt-driven guests share
the same register interface.

Register map (word offsets):

====== ========================================================
0x00   SECTOR: target sector number
0x04   DMA_ADDR: physical buffer address
0x08   CMD: 1 = read sector -> DMA_ADDR, 2 = write DMA_ADDR -> sector
0x0C   STATUS: 0 idle, 1 busy, 2 complete, 3 error (write 0 to
       acknowledge a completion or error)
0x10   IRQ_CTRL: bit0 enables the completion interrupt
0x14   COMPLETED: total completed requests (read-only)
====== ========================================================

The host-side fault-injection API (``inject_error``/``inject_timeout``,
used by :mod:`repro.fault`) makes the in-flight or next request either
complete with ``STATUS_ERROR`` and no DMA transfer, or never complete at
all until :meth:`clear_faults` — modelling a failed respectively hung
I/O.  Both are one-shot unless re-armed.
"""

from __future__ import annotations

from repro.mem.mmio import NEVER, DmaDevice

REG_SECTOR = 0x00
REG_DMA_ADDR = 0x04
REG_CMD = 0x08
REG_STATUS = 0x0C
REG_IRQ_CTRL = 0x10
REG_COMPLETED = 0x14

STATUS_IDLE = 0
STATUS_BUSY = 1
STATUS_COMPLETE = 2
STATUS_ERROR = 3

CMD_READ = 1
CMD_WRITE = 2

SECTOR_SIZE = 512


class BlockDevice(DmaDevice):
    """Single-request-at-a-time block device."""

    def __init__(self, base: int = 0xF000_3000, latency_cycles: int = 800):
        super().__init__(base, 0x18, name="blockdev")
        self.latency_cycles = latency_cycles
        self.sectors = {}        # sector number -> bytes
        self.sector_reg = 0
        self.dma_addr = 0
        self.status = STATUS_IDLE
        self.irq_enabled = False
        self.completed = 0
        self.errors = 0
        self._pending_cmd = 0
        self._countdown = 0
        # One-shot fault arming (repro.fault).
        self._fault_error = False
        self._fault_timeout = False

    # -- host-side API -----------------------------------------------------
    def preload(self, sector: int, payload: bytes) -> None:
        """Store *payload* (padded/truncated to one sector) at *sector*."""
        data = bytes(payload[:SECTOR_SIZE])
        self.sectors[sector] = data + b"\x00" * (SECTOR_SIZE - len(data))

    # -- fault injection (repro.fault) --------------------------------------
    def inject_error(self) -> None:
        """Arm a one-shot I/O error: the in-flight (or next) request
        completes with STATUS_ERROR and performs no DMA transfer."""
        self._fault_error = True

    def inject_timeout(self) -> None:
        """Arm a hung request: the in-flight (or next) command never
        completes until :meth:`clear_faults` — a guest polling STATUS
        spins forever (watchdog territory)."""
        self._fault_timeout = True

    def clear_faults(self) -> None:
        self._fault_error = False
        self._fault_timeout = False

    # -- simulation ----------------------------------------------------------
    def tick(self, cycles: int) -> None:
        if self.status != STATUS_BUSY:
            return
        if self._fault_timeout:
            return                      # request hangs, countdown frozen
        self._countdown -= cycles
        if self._countdown > 0:
            return
        if self._fault_error:
            self._fault_error = False
            self.status = STATUS_ERROR
            self.errors += 1
            return
        if self._pending_cmd == CMD_READ:
            payload = self.sectors.get(self.sector_reg, b"\x00" * SECTOR_SIZE)
            if self.bus is not None:
                self.bus.write_bytes(self.dma_addr, payload)
        elif self._pending_cmd == CMD_WRITE:
            if self.bus is not None:
                self.sectors[self.sector_reg] = bytes(
                    self.bus.read_bytes(self.dma_addr, SECTOR_SIZE)
                )
        self.status = STATUS_COMPLETE
        self.completed += 1

    def irq_pending(self) -> bool:
        return self.irq_enabled and self.status in (STATUS_COMPLETE,
                                                    STATUS_ERROR)

    def next_event(self) -> int:
        if self.status == STATUS_BUSY:
            # A hung request never completes; a busy one completes (and
            # DMAs) once its countdown runs out.
            if self._fault_timeout:
                return NEVER
            return self._countdown if self._countdown > 0 else 0
        return 0 if self.irq_pending() else NEVER

    # -- register interface -----------------------------------------------------
    def read_reg(self, offset: int) -> int:
        if offset == REG_SECTOR:
            return self.sector_reg
        if offset == REG_DMA_ADDR:
            return self.dma_addr
        if offset == REG_STATUS:
            return self.status
        if offset == REG_IRQ_CTRL:
            return int(self.irq_enabled)
        if offset == REG_COMPLETED:
            return self.completed
        return 0

    def write_reg(self, offset: int, value: int) -> None:
        if offset == REG_SECTOR:
            self.sector_reg = value
        elif offset == REG_DMA_ADDR:
            self.dma_addr = value
        elif offset == REG_CMD:
            if self.status != STATUS_BUSY and value in (CMD_READ, CMD_WRITE):
                self._pending_cmd = value
                self.status = STATUS_BUSY
                self._countdown = self.latency_cycles
        elif offset == REG_STATUS:
            if value == 0 and self.status in (STATUS_COMPLETE, STATUS_ERROR):
                self.status = STATUS_IDLE
        elif offset == REG_IRQ_CTRL:
            self.irq_enabled = bool(value & 1)
