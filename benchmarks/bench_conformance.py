"""MCONF conformance-campaign benchmark: contract plus throughput.

Like the MFI campaign benchmark, this asserts the subsystem's contract
rather than a guest-visible number (docs/CONFORMANCE.md):

* **conformance** — on a seeded sweep, zero divergences, zero
  decode-oracle disagreements, zero host errors: the four lockstep
  machines agree bit for bit;
* **bit-reproducibility** — running the identical seed list twice
  yields byte-identical report JSON;
* **guidance** — coverage-guided scheduling strictly dominates the
  unguided baseline on the same seed count (more buckets covered);
* **throughput** — seeds/sec and reference instructions/sec, so the
  cost of keeping the campaign in CI stays visible
  (``benchmarks/results/conformance.txt``).
"""

from __future__ import annotations

import json
import os
import time

from common import emit, run_once

from repro.conformance.campaign import (
    ConformanceConfig, failures, format_summary, measure_static_coverage,
    report_json, run_conformance,
)

SEEDS = tuple(range(24))


def run_experiment() -> dict:
    config = ConformanceConfig(seeds=SEEDS, workers=0, round_size=8,
                               oracle_random_words=5_000)
    start = time.perf_counter()
    report = run_conformance(config)
    elapsed = time.perf_counter() - start
    rerun = run_conformance(config)
    guided = measure_static_coverage(len(SEEDS), guided=True, round_size=8)
    unguided = measure_static_coverage(len(SEEDS), guided=False,
                                       round_size=8)
    return {
        "report": report,
        "identical": report_json(report) == report_json(rerun),
        "elapsed": elapsed,
        "guided_buckets": len(guided),
        "unguided_buckets": len(unguided),
    }


def check_shape(result: dict) -> None:
    report = result["report"]
    assert failures(report) == 0, "silent-corruption-class failure"
    assert report["summary"]["outcomes"]["pass"] == len(SEEDS), \
        report["summary"]
    assert result["identical"], "campaign report is not bit-reproducible"
    assert result["guided_buckets"] > result["unguided_buckets"], \
        "coverage guidance is not buying coverage"


def throughput_lines(result: dict) -> str:
    report = result["report"]
    elapsed = result["elapsed"]
    instret = report["summary"]["instret_total"]
    return (f"throughput: {len(SEEDS) / elapsed:.1f} seeds/s, "
            f"{instret / elapsed / 1e3:.0f}k reference instret/s "
            f"({len(SEEDS)} seeds in {elapsed:.2f}s, inline)\n"
            f"guidance: guided {result['guided_buckets']} vs unguided "
            f"{result['unguided_buckets']} buckets on {len(SEEDS)} seeds")


def test_conformance_campaign(benchmark):
    result = run_once(benchmark, run_experiment)
    check_shape(result)
    report = result["report"]
    emit("conformance",
         format_summary(report) + "\n" + throughput_lines(result))
    with open(os.path.join(os.path.dirname(__file__), "results",
                           "conformance.json"), "w") as fh:
        fh.write(report_json(report) + "\n")


if __name__ == "__main__":
    result = run_experiment()
    check_shape(result)
    print(format_summary(result["report"]))
    print(throughput_lines(result))
    print(json.dumps(result["report"]["summary"]["outcomes"]))
