"""Coverage counters for the conformance campaign.

Three bucket families, all cheap and fully deterministic:

* ``dec:<mnemonic>`` — decoder buckets: which row of the primary
  decoder's ``(opcode, funct3, funct7/funct12)`` discrimination the
  word lands in (``dec:invalid`` for undecodable words);
* ``cls:<InstrClass>`` — instruction-class buckets (the granularity
  the simulators dispatch and the interception unit matches at);
* ``edge:<kind>`` — MAS CFG-edge buckets: the program's control-flow
  graph is built with the same :func:`repro.analysis.cfg.build_cfg`
  the static analyzer uses, and every edge is abstracted to a
  direction/terminator kind (see :func:`repro.analysis.cfg.
  iter_edge_kinds`);
* ``gen:<feature>`` — generator-side marks for semantic classes that
  are invisible to static decode (e.g. a misaligned offset is still a
  ``dec:lw``), reported by :mod:`repro.conformance.generator`.

The :class:`CoverageMap` accumulates bucket counts across a campaign;
the scheduler biases generation toward buckets still at zero.
"""

from __future__ import annotations

from repro.analysis.cfg import build_cfg, iter_edge_kinds
from repro.errors import DecodeError
from repro.isa.decoder import decode
from repro.isa.instruction import InstrClass
from repro.isa.opcodes import SPECS

#: Every edge-kind bucket iter_edge_kinds can emit.
EDGE_KINDS = (
    "branch_taken_fwd", "branch_taken_back", "branch_fall",
    "jump_fwd", "jump_back", "fall", "dynamic", "exit", "raise",
    "fall_off", "bad_word",
)

#: Generator feature marks (see generator.generate).
GEN_MARKS = (
    "vecinit", "menter", "smc", "csr", "auipc_mem",
    "misalign_load", "misalign_store", "unsigned_branch", "divrem",
    "irq", "ecall", "icept", "calls", "switch",
)


def _universe():
    buckets = {f"dec:{m}" for m in SPECS}
    buckets.add("dec:invalid")
    buckets.update(f"cls:{c.name}" for c in InstrClass)
    buckets.update(f"edge:{k}" for k in EDGE_KINDS)
    buckets.update(f"gen:{g}" for g in GEN_MARKS)
    return frozenset(buckets)


#: Every bucket the campaign can, in principle, observe.
BUCKET_UNIVERSE = _universe()


def program_coverage(words) -> set:
    """Static coverage buckets of one word sequence (program or mroutine).

    Decodes every word with the primary decoder and builds the MAS CFG
    over the sequence; returns the ``dec:``/``cls:``/``edge:`` buckets
    present.
    """
    buckets = set()
    for word in words:
        try:
            instr = decode(word)
        except DecodeError:
            buckets.add("dec:invalid")
            continue
        buckets.add(f"dec:{instr.mnemonic}")
        buckets.add(f"cls:{instr.cls.name}")
    graph = build_cfg(list(words))
    for kind in iter_edge_kinds(graph):
        buckets.add(f"edge:{kind}")
    return buckets


class CoverageMap:
    """Bucket -> hit-count accumulator with deterministic reporting."""

    def __init__(self):
        self._counts = {}

    def add(self, buckets) -> set:
        """Count *buckets* once each; returns the subset that was new."""
        new = set()
        for bucket in buckets:
            if bucket not in self._counts:
                new.add(bucket)
                self._counts[bucket] = 0
            self._counts[bucket] += 1
        return new

    def merge(self, other: "CoverageMap") -> None:
        for bucket, count in other._counts.items():
            self._counts[bucket] = self._counts.get(bucket, 0) + count

    def covered(self, bucket: str) -> bool:
        return bucket in self._counts

    @property
    def buckets(self) -> set:
        return set(self._counts)

    def uncovered(self, universe=BUCKET_UNIVERSE) -> set:
        return set(universe) - self.buckets

    def count(self, bucket: str) -> int:
        return self._counts.get(bucket, 0)

    def __len__(self) -> int:
        return len(self._counts)

    def to_dict(self) -> dict:
        """Sorted bucket counts (stable for the JSON report)."""
        return {b: self._counts[b] for b in sorted(self._counts)}

    def summary(self, universe=BUCKET_UNIVERSE) -> dict:
        by_family = {}
        for bucket in self._counts:
            family = bucket.split(":", 1)[0]
            by_family[family] = by_family.get(family, 0) + 1
        return {
            "covered": len(self._counts),
            "universe": len(universe),
            "by_family": {k: by_family[k] for k in sorted(by_family)},
            "missed": sorted(self.uncovered(universe)),
        }
