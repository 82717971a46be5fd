"""MCONF: coverage-guided conformance campaign (independent decode oracle).

The conformance subsystem is the verification backbone that lets the
fast paths (superblock chaining, MPROF, MJIT tier 2) move quickly
without silent corruption:

* :mod:`repro.conformance.oracle` — a second, independently written
  MRV32+Metal instruction table and field extractor (from
  ``docs/ISA.md`` semantics, **no** imports from ``repro.isa``), so
  encode/decode disagreements are caught structurally;
* :mod:`repro.conformance.crosscheck` — instruction-by-instruction
  comparison of the primary decoder against the oracle;
* :mod:`repro.conformance.generator` — the random guest-program
  generator (refactored out of ``tests/test_superblock_differential``)
  with coverage-gated extensions (CSR traps, auipc addressing,
  sign-boundary unsigned branches, misaligned-access trap paths,
  div/rem);
* :mod:`repro.conformance.coverage` — decoder-bucket, instruction-class
  and MAS CFG-edge coverage counters over generated programs;
* :mod:`repro.conformance.scheduler` — coverage-guided seed scheduling
  that biases generation toward uncovered buckets;
* :mod:`repro.conformance.campaign` — the four-way lockstep campaign
  runner (interpreter / chained / profiled / hooked) with
  bit-reproducible classification, run via ``python -m repro
  conformance``.
"""

from repro.conformance.campaign import (
    ConformanceConfig, failures, run_cell, run_conformance,
)
from repro.conformance.coverage import BUCKET_UNIVERSE, CoverageMap, program_coverage
from repro.conformance.crosscheck import check_word, check_words, crosscheck_sweep
from repro.conformance.generator import GenConfig, gen_program, routines
from repro.conformance.oracle import ORACLE_SPECS, oracle_decode
from repro.conformance.scheduler import CoverageScheduler

__all__ = [
    "BUCKET_UNIVERSE",
    "ConformanceConfig",
    "CoverageMap",
    "CoverageScheduler",
    "GenConfig",
    "ORACLE_SPECS",
    "check_word",
    "check_words",
    "crosscheck_sweep",
    "failures",
    "gen_program",
    "oracle_decode",
    "program_coverage",
    "routines",
    "run_cell",
    "run_conformance",
]
