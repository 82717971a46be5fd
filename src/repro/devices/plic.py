"""Interrupt controller.

Aggregates up to 32 level-triggered device lines into a pending bitmap the
CPU (or Metal, via ``mipend``/``miack``) consumes.  Lower line numbers have
higher priority.  Lines are wired at machine-build time by registering each
device's ``irq_pending`` callback.
"""

from __future__ import annotations

from repro.errors import SimulatorError

#: Conventional line assignments used by the canned machines.
LINE_TIMER = 0
LINE_NIC = 1
LINE_BLOCK = 2
LINE_CONSOLE = 3


class InterruptController:
    """32-line level-triggered interrupt controller."""

    def __init__(self):
        self._sources = {}       # line -> callable() -> bool
        self.enabled_mask = 0xFFFFFFFF
        self._latched = 0        # edge latch for acked level sources
        self._storm = {}         # line -> re-assertions left (fault inj.)

    def wire(self, line: int, pending_fn) -> None:
        """Register *pending_fn* (a ``() -> bool``) as the source of *line*."""
        if not 0 <= line < 32:
            raise SimulatorError(f"interrupt line out of range: {line}")
        if line in self._sources:
            raise SimulatorError(f"interrupt line {line} already wired")
        self._sources[line] = pending_fn

    # ------------------------------------------------------------------
    def pending_bitmap(self) -> int:
        """Current pending-and-enabled lines as a bitmap."""
        bitmap = self._latched
        for line, fn in self._sources.items():
            if fn():
                bitmap |= 1 << line
        return bitmap & self.enabled_mask

    def highest_pending(self):
        """Lowest-numbered pending enabled line, or None."""
        bitmap = self.pending_bitmap()
        if not bitmap:
            return None
        return (bitmap & -bitmap).bit_length() - 1

    @property
    def latched(self) -> bool:
        """Whether any line is latched (software-raised, spurious or
        stormed) and not yet acknowledged."""
        return bool(self._latched)

    def raise_line(self, line: int) -> None:
        """Software-raise *line* (latched until acknowledged)."""
        self._latched |= 1 << line

    def acknowledge(self, line: int) -> None:
        """Clear the latch for *line* (level sources re-assert on poll).

        A stormed line (see :meth:`inject_storm`) stays asserted through
        its budgeted number of acknowledgements before clearing."""
        remaining = self._storm.get(line)
        if remaining:
            self._storm[line] = remaining - 1
            return
        self._storm.pop(line, None)
        self._latched &= ~(1 << line)

    # -- fault injection (repro.fault) --------------------------------------
    def inject_spurious(self, line: int) -> None:
        """Assert *line* once with no device behind it (latched until
        acknowledged; an unrouted line simply stays pending)."""
        self.raise_line(line)

    def inject_storm(self, line: int, count: int) -> None:
        """Assert *line* and keep it asserted across the next *count*
        acknowledgements — an interrupt storm whose source the handler
        cannot quiesce immediately."""
        self._storm[line] = max(0, int(count))
        self.raise_line(line)

    def set_enabled(self, mask: int) -> None:
        self.enabled_mask = mask & 0xFFFFFFFF
