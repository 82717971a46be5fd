"""Corpus driver: translation-validate every block MJIT compiles.

The corpus is the MCONF generator's program space (the same seed
derivation the conformance campaign uses: program ``seed`` maps to
``random.Random(PROGRAM_SEED_BASE + seed)``), executed on the
campaign's ``jit`` variant — ``jit_threshold=1`` so every warm block is
tier-2 compiled.  After each program runs, every surviving compiled
block is harvested from the translation cache and handed to
:func:`repro.verify.translate.validate_block`.

Blocks are deduplicated across seeds by generated source text: the
validator's verdict is a pure function of the source and the block's
uop IR, so re-proving an identical block adds nothing.  The report
counts both raw sightings and unique validations so a seed sweep's
coverage stays visible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.verify.translate import validate_block


@dataclass
class CorpusReport:
    """Outcome of one translation-validation sweep."""

    seeds: tuple
    blocks_seen: int = 0        # compiled blocks encountered (with dups)
    blocks_validated: int = 0   # unique (namespace, source) pairs proved
    mem_blocks: int = 0
    mram_blocks: int = 0
    findings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def harvest_seed(seed: int, config=None):
    """Run one generated program on the jit variant; returns its
    translation cache (holding every block MJIT compiled)."""
    from repro.conformance.campaign import (
        CHUNK, CODE_BASE, PROGRAM_SEED_BASE, TOTAL_LIMIT, build_variant,
    )
    from repro.conformance.generator import GenConfig, generate

    config = config or GenConfig()
    rng = random.Random(PROGRAM_SEED_BASE + seed)
    result = generate(rng, config)
    machine = build_variant("jit", config)
    program = machine.assemble(result.source, base=CODE_BASE)
    machine.load(program)
    machine.core.pc = CODE_BASE
    retired = 0
    while retired < TOTAL_LIMIT:
        machine.run(max_instructions=CHUNK, raise_on_limit=False)
        retired += CHUNK
        if machine.core.halted:
            break
    return machine.sim.tcache


def validate_corpus(seeds, config=None, progress=None) -> CorpusReport:
    """Translation-validate every unique block the *seeds* compile.

    *progress*, if given, is called as ``progress(seed_index, report)``
    after each seed (CLI heartbeat for long sweeps).
    """
    seeds = tuple(seeds)
    report = CorpusReport(seeds=seeds)
    seen = set()
    for i, seed in enumerate(seeds):
        tcache = harvest_seed(seed, config)
        for ns, block in tcache.iter_jit_blocks():
            report.blocks_seen += 1
            key = (ns, block.jit_fn.__jit_source__)
            if key in seen:
                continue
            seen.add(key)
            report.blocks_validated += 1
            if ns == "mem":
                report.mem_blocks += 1
            else:
                report.mram_blocks += 1
            report.findings.extend(validate_block(ns, block))
        if progress is not None:
            progress(i, report)
    return report
