"""Host-side performance counters for the execution engines.

These counters measure the *simulator*, not the simulated machine: how
well the translation cache (:mod:`repro.cpu.tcache`) is doing, and how
many guest instructions the host retires per second of wall-clock time.
They are architecture-invisible — enabling or disabling the tcache never
changes guest-observable state, only these numbers.

Surfaced as ``FunctionalSimulator.perf`` / ``Machine.perf`` and printed
by ``benchmarks/common.perf_summary``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class TcacheStats:
    """Translation-cache counters (see :mod:`repro.cpu.tcache`)."""

    #: Basic blocks predecoded (both namespaces).
    blocks_compiled: int = 0
    #: Dispatches that found a cached block.
    hits: int = 0
    #: Dispatches that had to compile (or failed to compile) a block.
    misses: int = 0
    #: Blocks evicted by write notifications / MRAM reloads.
    invalidations: int = 0
    #: Whole-namespace flushes of the mem blocks (intercept rule
    #: changes).
    flushes: int = 0
    #: Guest instructions retired through the block fast path.
    fast_instructions: int = 0
    #: Superblock links installed between blocks (target-map entries).
    chain_links: int = 0
    #: Block transitions that followed an existing chain link.
    chain_hits: int = 0
    #: Chain lookups that missed a non-empty target map (successor
    #: evicted, or a target the exit had not taken before).
    chain_breaks: int = 0
    #: Longest run of chained block transitions inside one dispatch.
    chain_longest: int = 0
    #: Blocks compiled to tier 2 by MJIT (repro.cpu.jit).
    jit_blocks: int = 0
    #: Guest instructions retired through MJIT-compiled code.
    jit_instructions: int = 0
    #: Host milliseconds spent inside the MJIT compiler (codegen + exec).
    jit_compile_ms: float = 0.0

    @property
    def dispatches(self) -> int:
        """Block dispatches, including chained transitions (which reach
        their block through the superblock link without probing the
        block map — the strongest form of hit)."""
        return self.hits + self.misses + self.chain_hits

    @property
    def hit_rate(self) -> float:
        total = self.dispatches
        return (self.hits + self.chain_hits) / total if total else 0.0

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, f.default)


@dataclass
class PerfCounters:
    """Per-engine host-performance counters."""

    tcache: TcacheStats = field(default_factory=TcacheStats)
    #: Wall-clock seconds spent inside :meth:`FunctionalSimulator.run`.
    host_seconds: float = 0.0
    #: Guest instructions retired across all ``run`` calls.
    guest_instructions: int = 0

    @property
    def host_mips(self) -> float:
        """Guest instructions retired per host second, in millions."""
        if self.host_seconds <= 0.0:
            return 0.0
        return self.guest_instructions / self.host_seconds / 1e6

    @property
    def slow_instructions(self) -> int:
        """Instructions retired through the one-at-a-time path."""
        return max(0, self.guest_instructions - self.tcache.fast_instructions)

    def reset(self) -> None:
        self.tcache.reset()
        self.host_seconds = 0.0
        self.guest_instructions = 0

    def summary(self) -> str:
        """Human-readable multi-line counter dump."""
        tc = self.tcache
        guest = self.guest_instructions
        jit_share = tc.jit_instructions / guest if guest else 0.0
        return "\n".join([
            f"guest instructions : {self.guest_instructions}",
            f"host seconds       : {self.host_seconds:.3f}",
            f"host MIPS          : {self.host_mips:.3f}",
            f"tcache blocks      : {tc.blocks_compiled} compiled",
            f"tcache dispatches  : {tc.hits} hits / {tc.misses} misses "
            f"(hit rate {tc.hit_rate:.1%})",
            f"tcache invalidated : {tc.invalidations} blocks, "
            f"{tc.flushes} flushes",
            f"tcache chains      : {tc.chain_links} links, "
            f"{tc.chain_hits} followed, {tc.chain_breaks} broken "
            f"(longest {tc.chain_longest})",
            f"tcache jit (MJIT)  : {tc.jit_blocks} blocks compiled "
            f"({tc.jit_compile_ms:.2f} ms), {tc.jit_instructions} instrs "
            f"via tier 2 ({jit_share:.1%} of guest instructions)",
            f"fast-path instrs   : {tc.fast_instructions}; "
            f"{self.slow_instructions} on step()",
        ])
