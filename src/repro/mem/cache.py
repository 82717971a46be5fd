"""Set-associative cache timing model.

The caches here model *timing only* — data always comes from the bus, so
coherence is trivially correct.  What matters for the paper's argument is
latency: an mroutine fetch from MRAM always costs the hit latency, while a
trap handler or PALcode-style routine in main memory costs the miss latency
whenever the I-cache does not hold it (and always costs main-memory latency
in the uncached PALcode configuration the Alpha comparison uses).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CacheStats:
    """Hit/miss counters, resettable between benchmark phases."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0


@dataclass
class Cache:
    """LRU set-associative cache (timing model).

    Args:
        size: total capacity in bytes.
        line_size: bytes per line (power of two).
        ways: associativity.
        hit_latency: cycles for a hit.
        miss_latency: extra cycles for a miss (main-memory access).
    """

    size: int = 16 * 1024
    line_size: int = 32
    ways: int = 4
    hit_latency: int = 1
    miss_latency: int = 20
    name: str = "cache"
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self):
        if self.size % (self.line_size * self.ways):
            raise ValueError(
                f"{self.name}: size {self.size} not divisible by "
                f"line_size*ways = {self.line_size * self.ways}"
            )
        self.num_sets = self.size // (self.line_size * self.ways)
        # Each set is an ordered list of tags; index 0 is most recent.
        self._sets = [[] for _ in range(self.num_sets)]

    # ------------------------------------------------------------------
    def access(self, addr: int) -> int:
        """Simulate an access; returns its latency in cycles."""
        line = addr // self.line_size
        set_idx = line % self.num_sets
        tag = line // self.num_sets
        ways = self._sets[set_idx]
        if ways and ways[0] == tag:
            # A hit in the MRU way leaves the LRU order as it is.
            self.stats.hits += 1
            return self.hit_latency
        if tag in ways:
            ways.remove(tag)
            ways.insert(0, tag)
            self.stats.hits += 1
            return self.hit_latency
        self.stats.misses += 1
        ways.insert(0, tag)
        if len(ways) > self.ways:
            ways.pop()
        return self.hit_latency + self.miss_latency

    def probe(self, addr: int) -> bool:
        """True if *addr* is currently cached (no state change)."""
        line = addr // self.line_size
        set_idx = line % self.num_sets
        tag = line // self.num_sets
        return tag in self._sets[set_idx]

    def invalidate_all(self) -> None:
        """Drop every line (e.g. across a simulated context switch)."""
        self._sets = [[] for _ in range(self.num_sets)]

    def invalidate(self, addr: int) -> None:
        """Drop the line containing *addr*, if present."""
        line = addr // self.line_size
        set_idx = line % self.num_sets
        tag = line // self.num_sets
        ways = self._sets[set_idx]
        if tag in ways:
            ways.remove(tag)
