"""Coverage-guided seed scheduling.

The scheduler decides, per seed, which generator extensions to enable
and how hard, biasing mutation toward buckets the campaign has not yet
covered.  It is a pure function of ``(seed, coverage-so-far)`` — given
the same coverage snapshot it always produces the same config, which is
what keeps the campaign report byte-identical between inline and
worker-pool execution (configs are always derived in the parent, from
the coverage merged in seed order).
"""

from __future__ import annotations

import random

from repro.conformance.generator import GenConfig

#: Buckets each generator feature can newly reach.  A feature whose
#: bucket set intersects the uncovered set is *targeted* (enabled with
#: a high weight); fully-covered features stay in the mix at a low
#: background rate so later seeds keep re-exercising them.
FEATURE_BUCKETS = {
    "csr": frozenset({
        "gen:csr", "cls:CSR", "dec:csrrw", "dec:csrrs", "dec:csrrc",
        "dec:csrrwi", "dec:csrrsi", "dec:csrrci",
    }),
    "auipc_mem": frozenset({"gen:auipc_mem"}),
    "misalign": frozenset({"gen:misalign_load", "gen:misalign_store"}),
    "unsigned_branch": frozenset({"gen:unsigned_branch"}),
    "divrem": frozenset({
        "gen:divrem", "dec:div", "dec:divu", "dec:rem", "dec:remu",
    }),
    "irq": frozenset({"gen:irq"}),
    "ecall": frozenset({"gen:ecall"}),
    "icept": frozenset({"gen:icept"}),
    "calls": frozenset({"gen:calls"}),
    "switch": frozenset({"gen:switch"}),
}

#: Per-feature weight when the feature is targeted (has uncovered
#: buckets) vs merely kept warm.
TARGETED_WEIGHT = 0.9
BACKGROUND_WEIGHT = 0.2

#: Every 4th seed runs the unextended legacy generator, so the campaign
#: never loses the original program distribution the four-way fuzzer
#: was tuned on.
LEGACY_STRIDE = 4


class CoverageScheduler:
    """Derives the :class:`GenConfig` for each seed from coverage."""

    def __init__(self, guided: bool = True, config_seed: int = 0x5EED):
        self.guided = guided
        self.config_seed = config_seed

    def next_config(self, seed: int, coverage) -> GenConfig:
        """The generator config for *seed* given *coverage* so far."""
        if not self.guided or seed % LEGACY_STRIDE == 0:
            return GenConfig()
        rng = random.Random((self.config_seed << 20) ^ seed)
        uncovered = coverage.uncovered()
        weights = {}
        for feature, targets in sorted(FEATURE_BUCKETS.items()):
            if targets & uncovered:
                weights[feature] = TARGETED_WEIGHT
            elif rng.random() < 0.5:
                weights[feature] = BACKGROUND_WEIGHT
            else:
                weights[feature] = 0.0
        # unsigned_branch is a per-terminator probability, not a body
        # weight — scale it down so programs keep diverse terminators.
        weights["unsigned_branch"] = min(weights["unsigned_branch"], 0.4)
        return GenConfig(ext_rate=0.25, **weights)
