"""Per-routine analysis facts consumed outside the analyzer.

:class:`RoutineFacts` is the cross-layer contract: the loader runs MAS
over each mroutine at image-build time and attaches the facts to the
:class:`~repro.metal.loader.MetalImage` (``repro lint --facts`` prints
them; MSYNTH reports each synthesized routine's purity).  No execution
tier reads them: MJIT checks every ``mld``/``mst`` at run time, proven
or not.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Purity(enum.Enum):
    """Side-effect class of a whole mroutine.

    * ``PURE`` — touches GPRs/MRegs only: no RAM access, no MRAM data
      access, no architectural-feature ops.
    * ``MRAM_ONLY`` — additionally reads/writes MRAM data words
      (``mld``/``mst``), which are invisible to guest RAM and therefore
      still cannot invalidate translated guest code.
    * ``READS_RAM`` — loads from guest RAM (``lb``..``lw``) but never
      stores; cannot invalidate translations either.
    * ``WRITES_RAM`` — contains at least one guest-RAM store (or an
      architectural op with memory-like effects).
    """

    PURE = "pure"
    MRAM_ONLY = "mram-only"
    READS_RAM = "reads-ram"
    WRITES_RAM = "writes-ram"


@dataclass
class RoutineFacts:
    """What MAS proved about one mroutine."""

    purity: Purity = Purity.WRITES_RAM
    reads_ram: bool = False
    writes_ram: bool = False
    #: METAL_ARCH mnemonics used (mtlbw, mpst, miack, ...).
    arch_ops: tuple = ()
    mregs_read: tuple = ()
    mregs_written: tuple = ()
    #: Longest acyclic instruction path from entry to an exit, or ``None``
    #: when the routine has loops (then no static bound exists without
    #: loop-bound annotations).
    max_path_instructions: int = None
    has_loops: bool = False
    has_dynamic_jumps: bool = False
    #: mld/mst sites proven in-bounds by the interval pass.
    proven_accesses: int = 0
    #: mld/mst sites the interval pass could not bound (runtime-checked).
    unproven_accesses: int = 0
    #: Diagnostics summary (pass name -> count), informational only.
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-friendly form (bench trajectories, ``lint --facts``)."""
        return {
            "purity": self.purity.value,
            "reads_ram": self.reads_ram,
            "writes_ram": self.writes_ram,
            "arch_ops": list(self.arch_ops),
            "mregs_read": list(self.mregs_read),
            "mregs_written": list(self.mregs_written),
            "max_path_instructions": self.max_path_instructions,
            "has_loops": self.has_loops,
            "has_dynamic_jumps": self.has_dynamic_jumps,
            "proven_accesses": self.proven_accesses,
            "unproven_accesses": self.unproven_accesses,
        }
