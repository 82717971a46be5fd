"""MCONF conformance subsystem tests.

Four layers, mirroring ``src/repro/conformance``:

* generator parity — the refactored generator is seed-for-seed
  identical to the one that lived in tests/test_superblock_differential
  (golden sha256 digests pinned for seeds 0-4), and its gated
  extensions actually emit what they claim while keeping programs
  terminating;
* oracle — the independent decode table agrees with the primary
  decoder on the exhaustive per-bucket sweep plus 100k seeded random
  words, and the crosscheck *detects* deliberately corrupted table
  rows (mutation test: a conformance net that can't catch a planted
  bug is worthless);
* coverage — bucket extraction from decoded words and the MAS CFG,
  plus the accumulating map;
* campaign — small four-way lockstep sweeps pass, reports are
  byte-identical between inline and worker-pool execution, and
  coverage-guided scheduling reaches decoder buckets that 500 unguided
  seeds provably never touch.
"""

from __future__ import annotations

import random

import pytest

from repro.conformance.campaign import (
    PROGRAM_SEED_BASE, ConformanceConfig, build_variant, failures,
    measure_static_coverage, report_json, run_cell, run_conformance,
)
from repro.conformance.coverage import (
    BUCKET_UNIVERSE, CoverageMap, program_coverage,
)
from repro.conformance.crosscheck import (
    bucket_sweep_words, check_word, check_words, crosscheck_sweep,
)
from repro.conformance.generator import (
    CODE_BASE, GenConfig, assemble_words, gen_program, generate,
)
from repro.conformance.oracle import (
    IMM_SIGNED, ORACLE_SPECS, corrupted_table, oracle_decode,
)
from repro.conformance.scheduler import CoverageScheduler
from repro.cpu.exceptions import Cause

# --------------------------------------------------------------------------
# generator parity
# --------------------------------------------------------------------------

#: sha256 of the generated source for rng=Random(0xC0DE+seed) with the
#: default config — captured from the pre-refactor in-test generator.
#: If one of these changes, the refactor broke seed-for-seed parity and
#: every historical fuzzing seed silently means a different program.
GOLDEN_DIGESTS = {
    0: "d385727eafd11d4ba0c9e2673894cdec1e34d38b96c8ed9261fdaa84cb711a62",
    1: "42ae55c9725dbd26b05dae6504124fb61cdec01e94118b39e672526f9136d691",
    2: "d38a2be9523fb7258a0d7c5155dab5cdfaa9b12ba0aad5e95595457d16ea585d",
    3: "71522ab46af04c5cc36f40b159c832ac7f16dd43080e4dc303a5f8d7b703b62f",
    4: "42d97010c6691de2367f42f24cdb491c7479e209f8f5c746d2e712cdf9749c8b",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_DIGESTS))
def test_generator_golden_digest(seed):
    result = generate(random.Random(PROGRAM_SEED_BASE + seed), GenConfig())
    assert result.digest == GOLDEN_DIGESTS[seed], (
        f"seed {seed}: generator no longer reproduces the pre-refactor "
        f"program (digest {result.digest})"
    )


def test_default_config_adds_no_marks_or_traps():
    config = GenConfig()
    assert not config.extended
    assert not config.needs_traps
    result = generate(random.Random(123), config)
    # Only marks the legacy generator could emit.
    assert result.gen_buckets <= {"gen:menter", "gen:smc"}


def test_gen_program_matches_generate():
    rng1, rng2 = random.Random(7), random.Random(7)
    assert gen_program(rng1) == generate(rng2).source


@pytest.mark.parametrize("feature,needle", [
    ("csr", "csrr"),
    ("auipc_mem", "auipc"),
    ("misalign", "(s1)"),
    ("divrem", ("div", "rem")),
    ("unsigned_branch", "lui  t5"),
    ("ecall", "ecall\n"),
    ("icept", "MR_ICPTINIT"),
    ("calls", "jal  ra, leaf_"),
    ("switch", "_cases:"),
])
def test_extensions_emit_their_instructions(feature, needle):
    config = GenConfig(**{feature: 1.0}, ext_rate=0.9)
    needles = needle if isinstance(needle, tuple) else (needle,)
    hits = 0
    for seed in range(6):
        result = generate(random.Random(PROGRAM_SEED_BASE + seed), config)
        if any(n in result.source for n in needles):
            hits += 1
            assert any(b.startswith("gen:") and feature.split("_")[0] in b
                       for b in result.gen_buckets), (
                f"{feature}: instruction emitted but gen mark missing")
    assert hits >= 4, f"{feature}: emitted in only {hits}/6 seeds"


def test_extended_programs_still_terminate_and_lockstep():
    """All extensions at max weight: programs must still halt and keep
    the four machines in lockstep (trap delivery is guest-visible state,
    so the fast paths must replay it exactly)."""
    config = GenConfig(csr=1.0, auipc_mem=1.0, misalign=1.0,
                       divrem=1.0, unsigned_branch=0.4, ext_rate=0.5)
    for seed in (0, 1, 2):
        record = run_cell(seed, config)
        assert record["outcome"] == "pass", (
            f"seed {seed}: {record['outcome']} — {record['detail']}")
        assert record["instret"] > 0


def test_irq_programs_take_interrupts_in_lockstep():
    """With the irq extension the prologue arms the timer, routes its
    line to the transparent handler and enables delivery; the handler
    re-arms the timer.  The programs take timer interrupts at entry
    positions all over their blocks and keep the four machines
    (interpreter, MJIT, profiled, hooked) in lockstep."""
    config = GenConfig(irq=1.0)
    delivered = 0
    for seed in (1, 2, 4):
        result = generate(random.Random(PROGRAM_SEED_BASE + seed), config)
        assert "gen:irq" in result.gen_buckets
        record = run_cell(seed, config)
        assert record["outcome"] == "pass", (
            f"seed {seed}: {record['outcome']} — {record['detail']}")
        machine = build_variant("interp", config)
        machine.load(machine.assemble(result.source, base=CODE_BASE))
        machine.core.pc = CODE_BASE
        machine.run(max_instructions=40_000)
        delivered += machine.core.metal.stats.deliveries.get(
            Cause.interrupt(0), 0)
    assert delivered >= 20


def test_ecall_programs_cross_in_lockstep():
    """With the ecall extension the prologue routes ECALL to a handler
    that ends in ``mexitm``; body ecalls then cross into it and back
    inside one dispatch on the MJIT machines, and the four machines
    stay in lockstep, with chunk boundaries landing inside the
    handler."""
    config = GenConfig(ecall=1.0)
    delivered = 0
    for seed in (4, 5, 6):
        result = generate(random.Random(PROGRAM_SEED_BASE + seed), config)
        assert "gen:ecall" in result.gen_buckets
        record = run_cell(seed, config)
        assert record["outcome"] == "pass", (
            f"seed {seed}: {record['outcome']} — {record['detail']}")
        machine = build_variant("interp", config)
        machine.load(machine.assemble(result.source, base=CODE_BASE))
        machine.core.pc = CODE_BASE
        machine.run(max_instructions=40_000)
        delivered += machine.core.metal.stats.deliveries.get(Cause.ECALL, 0)
    assert delivered >= 50


def test_icept_programs_cross_rule_sets_in_lockstep():
    """With the icept extension the prologue intercepts one instruction
    the body uses, with a handler that emulates it and ends in
    ``mexitm``, and body slots turn the rule off and on: the MJIT
    machines compile blocks under both rule sets, deliver intercepts
    into the handler inside a dispatch and cross back, and the four
    machines stay in lockstep, intercept hits included."""
    config = GenConfig(icept=1.0)
    hits = 0
    for seed in (16, 19, 39):   # addi, lw, lw
        result = generate(random.Random(PROGRAM_SEED_BASE + seed), config)
        assert "gen:icept" in result.gen_buckets
        assert "MR_ICPTTOG" in result.source
        record = run_cell(seed, config)
        assert record["outcome"] == "pass", (
            f"seed {seed}: {record['outcome']} — {record['detail']}")
        machine = build_variant("interp", config)
        machine.load(machine.assemble(result.source, base=CODE_BASE))
        machine.core.pc = CODE_BASE
        machine.run(max_instructions=40_000)
        hits += machine.core.metal.intercept.hits
    assert hits >= 100


# --------------------------------------------------------------------------
# oracle vs primary decoder
# --------------------------------------------------------------------------

def test_oracle_bucket_sweep_agrees():
    words = bucket_sweep_words()
    disagreements = check_words(words)
    assert disagreements == [], (
        f"{len(disagreements)} bucket-sweep disagreement(s), first: "
        f"{disagreements[:3]}"
    )


def test_oracle_random_100k_agrees():
    rng = random.Random(0xF00D)
    bad = []
    for _ in range(100_000):
        word = rng.getrandbits(32)
        record = check_word(word)
        if record is not None:
            bad.append(record)
    assert bad == [], f"{len(bad)} random-word disagreement(s): {bad[:3]}"


def test_oracle_decodes_known_words():
    # addi a0, a0, 1  ->  imm=1, rd=rs1=10
    addi = oracle_decode(0x00150513)
    assert addi["mnemonic"] == "addi" and addi["imm"] == 1
    assert addi["rd"] == 10 and addi["rs1"] == 10
    # negative immediate sign-extends
    addi_neg = oracle_decode(0xFFF50513)
    assert addi_neg["imm"] == -1
    # an all-ones word decodes nowhere
    assert oracle_decode(0xFFFFFFFF) is None


@pytest.mark.parametrize("index", [0, 10, 26, 45, 55, 60, 70])
def test_mutation_value_corruption_is_caught(index):
    """Flipping a match-value bit in any table row must surface as a
    crosscheck disagreement somewhere in the bucket sweep."""
    spec = ORACLE_SPECS[index]
    table = corrupted_table(index, value=spec.value ^ 0x1000)  # flip a f3 bit
    sweep = crosscheck_sweep(n_random=2_000, table=table)
    assert sweep["n_disagreements"] > 0, (
        f"corrupting row {index} ({spec.mnemonic}) went undetected"
    )


def test_mutation_imm_kind_corruption_is_caught():
    """Misinterpreting the CSR immediate as signed must be detected."""
    index = next(i for i, s in enumerate(ORACLE_SPECS)
                 if s.mnemonic == "csrrw")
    table = corrupted_table(index, imm_kind=IMM_SIGNED)
    sweep = crosscheck_sweep(n_random=2_000, table=table)
    assert sweep["n_disagreements"] > 0


def test_mutation_dropped_row_is_caught():
    """Widening a row's mask so it never matches (the oracle 'forgets'
    an instruction) must be detected: primary decodes, oracle rejects."""
    index = next(i for i, s in enumerate(ORACLE_SPECS)
                 if s.mnemonic == "mul")
    table = corrupted_table(index, value=ORACLE_SPECS[index].value ^ 0x7F)
    sweep = crosscheck_sweep(n_random=0, table=table)
    assert sweep["n_disagreements"] > 0


def test_crosscheck_sweep_clean():
    sweep = crosscheck_sweep(n_random=5_000)
    assert sweep["n_disagreements"] == 0
    assert sweep["disagreements"] == []
    assert sweep["checked"] > len(bucket_sweep_words())


# --------------------------------------------------------------------------
# coverage
# --------------------------------------------------------------------------

def test_program_coverage_buckets():
    source = """
_start:
    addi a0, a0, 1
    mul  a1, a0, a0
loop:
    addi s0, s0, -1
    bne  s0, zero, loop
    j    tail
tail:
    halt
"""
    words = assemble_words(source)
    buckets = program_coverage(words)
    assert "dec:addi" in buckets
    assert "dec:mul" in buckets
    assert "dec:bne" in buckets
    assert "dec:halt" in buckets
    assert "cls:ALU_IMM" in buckets
    assert "cls:MULDIV" in buckets
    assert "edge:branch_taken_back" in buckets
    assert "edge:branch_fall" in buckets
    assert "edge:jump_fwd" in buckets
    # halt ends the program, so straight-line flow "falls off" the CFG
    # (edge:exit is the mexit terminator, seen only in mroutine words)
    assert "edge:fall_off" in buckets
    # every observed bucket is inside the declared universe
    assert buckets <= BUCKET_UNIVERSE


def test_coverage_map_accumulates():
    cov = CoverageMap()
    new = cov.add({"dec:addi", "dec:mul"})
    assert new == {"dec:addi", "dec:mul"}
    new = cov.add({"dec:addi", "dec:halt"})
    assert new == {"dec:halt"}
    assert cov.count("dec:addi") == 2
    assert cov.count("dec:mul") == 1
    assert cov.covered("dec:halt")
    assert not cov.covered("dec:div")
    assert "dec:div" in cov.uncovered()
    summary = cov.summary()
    assert summary["covered"] == 3
    assert summary["universe"] == len(BUCKET_UNIVERSE)
    assert summary["by_family"] == {"dec": 3}


def test_bucket_universe_is_closed():
    """Coverage of arbitrary generated programs never leaves the
    declared universe (a leak would make `missed` lists lie)."""
    for seed in range(5):
        config = GenConfig(csr=1.0, misalign=1.0, divrem=1.0,
                           auipc_mem=1.0, unsigned_branch=0.4)
        result = generate(random.Random(seed), config)
        words = assemble_words(result.source, config)
        buckets = result.gen_buckets | program_coverage(words)
        assert buckets <= BUCKET_UNIVERSE, buckets - BUCKET_UNIVERSE


# --------------------------------------------------------------------------
# scheduler
# --------------------------------------------------------------------------

def test_scheduler_is_pure_and_strided():
    sched = CoverageScheduler(guided=True)
    cov = CoverageMap()
    cov.add({"gen:csr", "cls:CSR"})
    # pure: same (seed, coverage) -> same config
    assert sched.next_config(5, cov) == sched.next_config(5, cov)
    # legacy stride: every 4th seed is the unextended generator
    assert sched.next_config(0, cov) == GenConfig()
    assert sched.next_config(4, cov) == GenConfig()
    # unguided: always legacy
    unguided = CoverageScheduler(guided=False)
    assert unguided.next_config(5, cov) == GenConfig()


def test_scheduler_targets_uncovered_features():
    sched = CoverageScheduler(guided=True)
    empty = CoverageMap()
    config = sched.next_config(1, empty)
    # with nothing covered, every body feature is targeted at 0.9
    assert config.csr == 0.9
    assert config.divrem == 0.9
    assert config.misalign == 0.9
    assert config.irq == 0.9
    assert config.ecall == 0.9
    assert config.icept == 0.9
    assert config.calls == 0.9
    assert config.switch == 0.9
    assert 0 < config.unsigned_branch <= 0.4


# --------------------------------------------------------------------------
# campaign
# --------------------------------------------------------------------------

def test_small_campaign_all_pass():
    config = ConformanceConfig(seeds=tuple(range(8)), workers=0,
                               round_size=4, oracle_random_words=1_000)
    report = run_conformance(config)
    outcomes = report["summary"]["outcomes"]
    assert outcomes["pass"] == 8, report["summary"]
    assert failures(report) == 0
    assert report["oracle"]["n_disagreements"] == 0
    assert len(report["runs"]) == 8
    # seed order is stable and every run carries its buckets
    assert [r["seed"] for r in report["runs"]] == list(range(8))
    assert all(r["buckets"] for r in report["runs"])


def test_pool_and_inline_reports_are_byte_identical():
    base = dict(seeds=tuple(range(8)), round_size=4,
                oracle_random_words=500)
    inline = run_conformance(ConformanceConfig(workers=0, **base))
    pooled = run_conformance(ConformanceConfig(workers=2, **base))
    assert report_json(inline) == report_json(pooled)


def test_unguided_seed_matches_classic_fuzzer_program():
    """Unguided campaign seed N runs the exact program the four-way
    fuzzer's seed N runs (same rng base, same default config)."""
    record = run_cell(3, GenConfig())
    assert record["source_sha"] == GOLDEN_DIGESTS[3]
    assert record["outcome"] == "pass"


def test_campaign_detects_planted_decode_bug():
    """End-to-end mutation: a campaign cell cross-checked against a
    corrupted oracle table classifies as decode_disagreement.  (Patched
    via check_words' table path to avoid a global.)"""
    table = corrupted_table(0, value=ORACLE_SPECS[0].value ^ 0x7F)
    words = assemble_words(gen_program(random.Random(PROGRAM_SEED_BASE)))
    assert check_words(words, table=table), (
        "corrupted lui row not detected on a real program")


def test_guided_reaches_buckets_unguided_misses():
    """The acceptance criterion: coverage-guided scheduling reaches at
    least one *decoder* bucket that 500 unguided seeds never touch."""
    unguided = measure_static_coverage(500, guided=False)
    guided = measure_static_coverage(120, guided=True)
    guided_only = {b for b in guided.buckets - unguided.buckets
                   if b.startswith("dec:")}
    assert guided_only, (
        "guided scheduling reached no decoder bucket beyond the "
        "500-seed unguided baseline"
    )
    # and the unguided baseline is sane: it covers the legacy core
    assert unguided.covered("dec:addi")
    assert unguided.covered("edge:branch_taken_back")
