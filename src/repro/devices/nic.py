"""Synthetic NIC with a programmable packet-arrival process.

This is the substitute for the real NICs that motivate user-level
interrupts (paper §3.4, DPDK): packets arrive on a schedule (or from a
Poisson process helper), sit in an RX queue, and the device asserts its
interrupt line while the queue is non-empty and interrupts are enabled.
The guest drains packets either by *polling* RX_STATUS (the DPDK baseline)
or by taking interrupts (the Metal user-level-interrupt path); both code
paths read the same registers, so the comparison isolates delivery cost.

Register map (word offsets):

====== =========================================================
0x00   RX_STATUS: number of queued packets (read-only)
0x04   RX_LEN: length in bytes of the head packet (read-only)
0x08   DMA_ADDR: physical destination for the next RX_POP
0x0C   RX_POP: write 1 -> copy head packet to DMA_ADDR, dequeue
0x10   IRQ_CTRL: bit0 enables the RX interrupt
0x14   RX_TOTAL: packets delivered so far (read-only)
0x18   RX_HEAD_TS: arrival cycle of head packet (read-only)
0x1C   RX_FAULT: sticky fault status (1 = DMA target unmapped on the
       last failed RX_POP); write 0 to clear
====== =========================================================

RX_POP is transactional: the DMA target range is validated *before* the
head packet is dequeued, so a bad ``DMA_ADDR`` loses nothing — the
packet stays at the head of the queue, counters are untouched, and the
failure is latched in RX_FAULT instead of escaping the MMIO write as a
host bus error.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.errors import ReproError
from repro.mem.mmio import NEVER, DmaDevice

REG_RX_STATUS = 0x00
REG_RX_LEN = 0x04
REG_DMA_ADDR = 0x08
REG_RX_POP = 0x0C
REG_IRQ_CTRL = 0x10
REG_RX_TOTAL = 0x14
REG_RX_HEAD_TS = 0x18
REG_RX_FAULT = 0x1C

#: RX_FAULT codes.
FAULT_NONE = 0
FAULT_DMA = 1


class Nic(DmaDevice):
    """RX-only synthetic NIC (TX is irrelevant to the delivery benchmark)."""

    def __init__(self, base: int = 0xF000_2000):
        super().__init__(base, 0x20, name="nic")
        self.clock = 0
        self._schedule = []      # heap of (arrival_cycle, seq, payload)
        self._seq = 0
        self._rx = deque()       # (arrival_cycle, payload)
        self.dma_addr = 0
        self.irq_enabled = False
        self.delivered = 0
        self.fault = FAULT_NONE
        #: (arrival_cycle, pop_cycle) pairs for latency accounting.
        self.latencies = []
        #: Fault-injection counters (repro.fault): packets dropped,
        #: duplicated or corrupted host-side.
        self.faults_injected = {"drop": 0, "duplicate": 0, "corrupt": 0}

    # -- host-side API -----------------------------------------------------
    def schedule_packet(self, arrival_cycle: int, payload: bytes) -> None:
        """Queue *payload* to arrive at *arrival_cycle*."""
        heapq.heappush(self._schedule, (arrival_cycle, self._seq, bytes(payload)))
        self._seq += 1

    def schedule_batch(self, arrivals) -> None:
        """Queue many ``(cycle, payload)`` pairs."""
        for cycle, payload in arrivals:
            self.schedule_packet(cycle, payload)

    @property
    def queued(self) -> int:
        return len(self._rx)

    @property
    def undelivered(self) -> int:
        return len(self._rx) + len(self._schedule)

    # -- fault injection (repro.fault) --------------------------------------
    def inject_rx_drop(self) -> bool:
        """Drop the head RX packet (or the earliest scheduled one when
        the queue is empty).  Returns True if a packet was lost."""
        if self._rx:
            self._rx.popleft()
        elif self._schedule:
            heapq.heappop(self._schedule)
        else:
            return False
        self.faults_injected["drop"] += 1
        return True

    def inject_rx_duplicate(self) -> bool:
        """Duplicate the head RX packet in place (same arrival stamp)."""
        if not self._rx:
            return False
        self._rx.appendleft(self._rx[0])
        self.faults_injected["duplicate"] += 1
        return True

    def inject_rx_corrupt(self, byte_index: int, mask: int) -> bool:
        """XOR *mask* into one payload byte of the head RX packet."""
        if not self._rx:
            return False
        arrival, payload = self._rx[0]
        if not payload:
            return False
        data = bytearray(payload)
        data[byte_index % len(data)] ^= mask & 0xFF
        self._rx[0] = (arrival, bytes(data))
        self.faults_injected["corrupt"] += 1
        return True

    # -- simulation ----------------------------------------------------------
    def tick(self, cycles: int) -> None:
        self.clock += cycles
        while self._schedule and self._schedule[0][0] <= self.clock:
            arrival, _, payload = heapq.heappop(self._schedule)
            self._rx.append((arrival, payload))

    def irq_pending(self) -> bool:
        return self.irq_enabled and bool(self._rx)

    def next_event(self) -> int:
        if self.irq_enabled and self._rx:
            return 0
        if not self._schedule:
            return NEVER
        due = self._schedule[0][0] - self.clock
        return due if due > 0 else 0

    # -- register interface -----------------------------------------------------
    def read_reg(self, offset: int) -> int:
        if offset == REG_RX_STATUS:
            return len(self._rx)
        if offset == REG_RX_LEN:
            return len(self._rx[0][1]) if self._rx else 0
        if offset == REG_DMA_ADDR:
            return self.dma_addr
        if offset == REG_IRQ_CTRL:
            return int(self.irq_enabled)
        if offset == REG_RX_TOTAL:
            return self.delivered
        if offset == REG_RX_HEAD_TS:
            return self._rx[0][0] & 0xFFFFFFFF if self._rx else 0
        if offset == REG_RX_FAULT:
            return self.fault
        return 0

    def write_reg(self, offset: int, value: int) -> None:
        if offset == REG_DMA_ADDR:
            self.dma_addr = value
        elif offset == REG_RX_POP:
            if value & 1 and self._rx:
                self._pop_head()
        elif offset == REG_IRQ_CTRL:
            self.irq_enabled = bool(value & 1)
        elif offset == REG_RX_FAULT:
            if value == 0:
                self.fault = FAULT_NONE

    def _pop_head(self) -> None:
        """Transactional RX_POP: validate the DMA copy before dequeuing,
        so a bad DMA_ADDR leaves the head packet queued and latches
        RX_FAULT instead of raising out of the MMIO write."""
        arrival, payload = self._rx[0]
        if self.bus is not None and payload:
            try:
                self.bus.write_bytes(self.dma_addr, payload)
            except ReproError:
                self.fault = FAULT_DMA
                return
        self._rx.popleft()
        self.delivered += 1
        self.latencies.append((arrival, self.clock))
