"""``python -m repro verify`` — MVTV static verification.

Two passes (both on by default, selectable with ``--passes``):

* ``translation`` — symbolic translation validation of every region
  MJIT compiles across a conformance-generator seed sweep
  (:mod:`repro.verify.corpus`), in each codegen mode — caches off,
  caches on (the I-cache fetch plan) and the pipeline scoreboard —
  including every edge between members and the MRAM data-segment check
  at every compiled ``mld``/``mst``;
* ``host`` — the snapshot- and eviction-completeness lints over the
  host sources (:mod:`repro.verify.hostlint`).

Exit status is non-zero iff any pass produced a finding, or a codegen
mode compiled multi-member regions, or prefix regions, but proved none
of them.  ``--json``
writes a machine-readable report (the shape ``python -m repro lint
--json`` mirrors); ``--smoke`` sweeps the conformance smoke corpus and
defaults the report path to ``verify_smoke.json`` — the CI
``verify-smoke`` job runs exactly that.
"""

from __future__ import annotations

import argparse
import json
import sys

SMOKE_SEEDS = 500
PASS_CHOICES = ("translation", "host")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro verify",
        description="MVTV: symbolic translation validation + host lints.",
    )
    parser.add_argument("--seeds", type=int, default=40,
                        help="corpus seeds for the translation pass "
                             "(default 40)")
    parser.add_argument("--seed-base", type=int, default=0,
                        help="first seed (sweep covers base..base+N-1)")
    parser.add_argument("--passes", action="append", choices=PASS_CHOICES,
                        help="run only this pass (repeatable; "
                             "default: both)")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write the machine-readable report here")
    parser.add_argument("--smoke", action="store_true",
                        help=f"CI smoke: the {SMOKE_SEEDS}-seed conformance "
                             f"smoke corpus, JSON to verify_smoke.json "
                             f"unless --json")
    return parser


def verify_main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.smoke:
        args.seeds = max(args.seeds, SMOKE_SEEDS)
        if args.json_path is None:
            args.json_path = "verify_smoke.json"
    passes = tuple(dict.fromkeys(args.passes)) if args.passes else PASS_CHOICES

    findings = []
    payload = {"tool": "mvtv", "passes": list(passes)}

    if "translation" in passes:
        from repro.verify.corpus import validate_corpus
        from repro.verify.model import Finding

        def heartbeat(i, report):
            if (i + 1) % 50 == 0:
                print(f"  ... {i + 1}/{args.seeds} seeds, "
                      f"{report.blocks_validated} unique blocks",
                      file=sys.stderr)

        seeds = range(args.seed_base, args.seed_base + args.seeds)
        report = validate_corpus(seeds, progress=heartbeat)
        findings.extend(report.findings)
        payload["translation"] = {
            "seeds": len(report.seeds),
            "seed_base": args.seed_base,
            "blocks_seen": report.blocks_seen,
            "blocks_validated": report.blocks_validated,
            "mem_blocks": report.mem_blocks,
            "mram_blocks": report.mram_blocks,
            "mode_blocks": dict(report.mode_blocks),
            "mode_regions": dict(report.mode_regions),
            "mode_regions_seen": dict(report.mode_regions_seen),
            "mode_prefixes": dict(report.mode_prefixes),
            "mode_prefixes_seen": dict(report.mode_prefixes_seen),
            "exit_blocks": dict(report.exit_blocks),
        }
        modes = ", ".join(f"{n} {mode}"
                          for mode, n in report.mode_blocks.items())
        exits = ", ".join(f"{n} {kind}"
                          for kind, n in report.exit_blocks.items())
        print(f"[translation] {len(report.seeds)} seed(s): "
              f"{report.blocks_validated} blocks of unique regions proved "
              f"equivalent "
              f"({report.mem_blocks} mem, {report.mram_blocks} mram; "
              f"{modes}; {report.blocks_seen} seen), "
              f"{len(report.findings)} finding(s)")
        print(f"[translation] exits: {exits}")
        regions = ", ".join(
            f"{report.mode_regions[mode]}/{seen} {mode}"
            for mode, seen in report.mode_regions_seen.items())
        print(f"[translation] multi-member regions proved/seen: {regions}")
        prefixes = ", ".join(
            f"{report.mode_prefixes[mode]}/{seen} {mode}"
            for mode, seen in report.mode_prefixes_seen.items())
        print(f"[translation] prefix regions proved/seen: {prefixes}")
        for mode, kind in report.unproved_modes:
            findings.append(Finding(
                "translation", f"mode {mode}",
                f"compiled {kind} regions but proved none of them"))

    if "host" in passes:
        from repro.verify.hostlint import (
            check_eviction_completeness, check_snapshot_completeness,
        )

        snap = check_snapshot_completeness()
        evict = check_eviction_completeness()
        findings.extend(snap)
        findings.extend(evict)
        payload["host"] = {
            "snapshot_findings": len(snap),
            "eviction_findings": len(evict),
        }
        print(f"[host] snapshot-completeness: {len(snap)} finding(s); "
              f"eviction-completeness: {len(evict)} finding(s)")

    for finding in findings:
        print()
        print(finding)

    payload["findings"] = [f.to_dict() for f in findings]
    payload["ok"] = not findings
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.json_path}")

    status = "ok" if not findings else "FAILED"
    print(f"[verify] {len(findings)} finding(s) ({status})")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(verify_main())
