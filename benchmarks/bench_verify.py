"""MVTV static-verification benchmark: contract plus throughput.

Like the conformance-campaign benchmark, this asserts the subsystem's
contract rather than a guest-visible number (docs/VALIDATION.md):

* **translation** — every block MJIT compiles across the seed slice
  proves symbolically equivalent to its uop IR (zero findings);
* **host** — the snapshot- and eviction-completeness lints are clean;
* **throughput** — blocks-validated/sec and wall time per pass, so the
  cost of keeping the verifier in CI stays visible
  (``benchmarks/results/verify.txt``).
"""

from __future__ import annotations

import json
import time

from common import emit, run_once

from repro.verify.corpus import validate_corpus
from repro.verify.hostlint import run_host_lints

SEEDS = tuple(range(24))


def run_experiment() -> dict:
    start = time.perf_counter()
    report = validate_corpus(SEEDS)
    t_translation = time.perf_counter() - start

    start = time.perf_counter()
    host_findings = run_host_lints()
    t_host = time.perf_counter() - start

    return {
        "report": report,
        "host_findings": host_findings,
        "t_translation": t_translation,
        "t_host": t_host,
    }


def check_shape(result: dict) -> None:
    report = result["report"]
    assert report.findings == [], "translation validation found a divergence"
    assert report.blocks_validated > 0, "corpus produced no tier-2 blocks"
    assert report.mem_blocks > 0 and report.mram_blocks > 0, \
        "corpus missed one of the two namespaces"
    assert result["host_findings"] == [], "host lints found a violation"


def throughput_lines(result: dict) -> str:
    report = result["report"]
    t_tr = result["t_translation"]
    return (f"translation: {report.blocks_validated} unique blocks "
            f"({report.mem_blocks} mem, {report.mram_blocks} mram) proved "
            f"equivalent over {len(SEEDS)} seeds in {t_tr:.2f}s "
            f"({report.blocks_validated / t_tr:.1f} blocks/s "
            f"incl. corpus harvest)\n"
            f"host lints: clean in {result['t_host']:.2f}s")


def test_verify_throughput(benchmark):
    result = run_once(benchmark, run_experiment)
    check_shape(result)
    emit("verify", throughput_lines(result))


if __name__ == "__main__":
    result = run_experiment()
    check_shape(result)
    print(throughput_lines(result))
    print(json.dumps({
        "blocks_validated": result["report"].blocks_validated,
        "findings": 0,
    }))
