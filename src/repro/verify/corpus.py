"""Corpus driver: translation-validate every block MJIT compiles.

The corpus is the MCONF generator's program space (the same seed
derivation the conformance campaign uses: program ``seed`` maps to
``random.Random(PROGRAM_SEED_BASE + seed)``), executed on one machine
per MJIT codegen mode (:data:`MODES`), where MJIT compiles every block
at its first dispatch and joins each hot cycle of linked blocks into a
region.  Seeds cycle through :data:`CORPUS_CONFIGS`, the base program
space and the generator's coverage-gated extensions, so the corpus
holds every Metal transition MJIT compiles.  After each program runs,
every surviving compiled region is harvested from the machine's
translation cache and handed to
:func:`repro.verify.translate.validate_region` in that cache's codegen
mode.

Regions are deduplicated across seeds by mode and generated source
text: the validator's verdict is a pure function of the source, the
members' uop IR and the mode, so re-proving an identical region adds
nothing.  The report counts both raw sightings and unique validations
of member blocks, in total, per mode and per exit kind
(:func:`exit_kind`), and the multi-member regions and the prefix
regions (the one-member regions of prefix blocks, which a dispatch runs
near the interrupt horizon, at a budget's end or before its stop pc)
seen and proved per mode, so a seed sweep's coverage stays visible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.conformance.generator import GenConfig
from repro.cpu.tcache import F_ICEPT, F_TERM
from repro.verify.translate import validate_region

#: Harvest machine per codegen mode: (engine, cache models on).  The
#: uncached one is the conformance campaign's ``chained`` variant.
MODES = {
    "uncached": ("functional", False),
    "cached": ("functional", True),
    "scoreboard": ("pipeline", True),
}


#: Generator config of corpus seed ``seed``, by ``seed % 4``: the base
#: program space; ``ecall`` exits and ``mexitm`` commits; interrupts,
#: the body extensions' trap deliveries and switches (regions of many
#: members); intercept terminators under rule sets turned off and on.
CORPUS_CONFIGS = (
    GenConfig(),
    GenConfig(ecall=1.0),
    GenConfig(irq=1.0, csr=0.5, misalign=0.5, divrem=0.5, auipc_mem=0.5,
              switch=0.5),
    GenConfig(icept=1.0),
)

#: The exit kinds :func:`exit_kind` reports.
EXIT_KINDS = ("branch", "fall", "ecall", "intercept", "menter", "mexit",
              "mexitm", "other")


def exit_kind(block) -> str:
    """How *block* leaves: an intercept terminator, a Metal transition
    (``ecall``, ``menter``, ``mexit``, ``mexitm``), a chainable
    control transfer (``branch``), no terminator (``fall``), or any
    other terminator."""
    instr, _pc, flags = block.entries[-1]
    if flags & F_ICEPT:
        return "intercept"
    if not flags & F_TERM:
        return "fall"
    if instr.mnemonic in ("ecall", "menter", "mexit", "mexitm"):
        return instr.mnemonic
    return "branch" if block.chainable else "other"


@dataclass
class CorpusReport:
    """Outcome of one translation-validation sweep."""

    seeds: tuple
    blocks_seen: int = 0        # compiled blocks encountered (with dups)
    blocks_validated: int = 0   # members of unique (mode, source) regions
    mem_blocks: int = 0
    mram_blocks: int = 0
    #: Unique blocks proved per harvest mode (see :data:`MODES`).
    mode_blocks: dict = field(
        default_factory=lambda: dict.fromkeys(MODES, 0))
    #: Unique blocks proved per :func:`exit_kind`.
    exit_blocks: dict = field(
        default_factory=lambda: dict.fromkeys(EXIT_KINDS, 0))
    #: Multi-member regions harvested (with dups) per harvest mode.
    mode_regions_seen: dict = field(
        default_factory=lambda: dict.fromkeys(MODES, 0))
    #: Unique multi-member regions proved without a finding, per mode.
    mode_regions: dict = field(
        default_factory=lambda: dict.fromkeys(MODES, 0))
    #: Prefix regions harvested (with dups) per harvest mode.
    mode_prefixes_seen: dict = field(
        default_factory=lambda: dict.fromkeys(MODES, 0))
    #: Unique prefix regions proved without a finding, per mode.
    mode_prefixes: dict = field(
        default_factory=lambda: dict.fromkeys(MODES, 0))
    findings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def unproved_modes(self) -> list:
        """``(mode, kind)`` for each mode that compiled regions of a
        kind (``"multi-member"``, ``"prefix"``) but proved none."""
        return [(mode, kind)
                for kind, seen, proved in (
                    ("multi-member", self.mode_regions_seen,
                     self.mode_regions),
                    ("prefix", self.mode_prefixes_seen, self.mode_prefixes))
                for mode in MODES if seen[mode] and not proved[mode]]


def harvest_seed(seed: int, mode: str, config=None):
    """Run one generated program on the *mode* harvest machine; returns
    its translation cache (holding every region MJIT compiled).  The
    program is generated with *config*, or the seed's entry of
    :data:`CORPUS_CONFIGS`."""
    from repro.conformance.campaign import (
        CHUNK, CODE_BASE, PROGRAM_SEED_BASE, RAM_BYTES, TOTAL_LIMIT,
    )
    from repro.conformance.generator import generate, routines
    from repro.machine.builder import build_metal_machine

    config = config or CORPUS_CONFIGS[seed % len(CORPUS_CONFIGS)]
    rng = random.Random(PROGRAM_SEED_BASE + seed)
    result = generate(rng, config)
    engine, caches = MODES[mode]
    machine = build_metal_machine(routines(config), engine=engine,
                                  with_caches=caches, ram_bytes=RAM_BYTES)
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
    """Translation-validate every unique region the *seeds* compile on
    the harvest machine of each codegen mode (with *config*, or each
    seed's entry of :data:`CORPUS_CONFIGS`).

    *progress*, if given, is called as ``progress(seed_index, report)``
    after each seed (CLI heartbeat for long sweeps).
    """
    seeds = tuple(seeds)
    report = CorpusReport(seeds=seeds)
    seen = set()
    for i, seed in enumerate(seeds):
        for mode in MODES:
            tcache = harvest_seed(seed, mode, config)
            for region in tcache.iter_regions():
                multi = len(region) > 1
                prefix = tcache.is_prefix(region[0])
                report.blocks_seen += len(region)
                report.mode_regions_seen[mode] += multi
                report.mode_prefixes_seen[mode] += prefix
                key = (mode, region[0].jit_fn.__jit_source__)
                if key in seen:
                    continue
                seen.add(key)
                report.blocks_validated += len(region)
                report.mode_blocks[mode] += len(region)
                for block in region:
                    report.exit_blocks[exit_kind(block)] += 1
                    if block.mram:
                        report.mram_blocks += 1
                    else:
                        report.mem_blocks += 1
                findings = validate_region(region, tcache.line_size,
                                           tcache.scoreboard)
                report.findings.extend(findings)
                report.mode_regions[mode] += multi and not findings
                report.mode_prefixes[mode] += prefix and not findings
        if progress is not None:
            progress(i, report)
    return report
