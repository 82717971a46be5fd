"""``python -m repro conformance`` — run an MCONF conformance campaign.

Examples::

    python -m repro conformance --smoke                # CI smoke sweep
    python -m repro conformance --full                 # 10k-seed nightly
    python -m repro conformance --seeds 50 --workers 4 --json out.json
    python -m repro conformance --seeds 200 --unguided # baseline coverage

The report JSON is bit-reproducible for a given seed list: rerunning
the same command — inline or at any worker-pool size — produces
byte-identical output (no timestamps, runs sorted by seed, scheduler
state derived in the parent).  The exit status is non-zero iff any run
classified as ``divergence``, ``decode_disagreement`` or
``host_error``, or the oracle cross-check sweep itself disagreed —
the silent-corruption classes the campaign exists to catch.
"""

from __future__ import annotations

import argparse
import sys

from repro.conformance.campaign import (
    ConformanceConfig, failures, format_summary, report_json,
    run_conformance,
)

SMOKE_SEEDS = 500
FULL_SEEDS = 10_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro conformance",
        description="Coverage-guided conformance campaign (MCONF).",
    )
    parser.add_argument("--seeds", type=int, default=100,
                        help="number of seeds (0..N-1)")
    parser.add_argument("--seed-base", type=int, default=0,
                        help="first seed (campaign covers base..base+N-1)")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker-pool size (0 = run inline)")
    parser.add_argument("--unguided", action="store_true",
                        help="disable coverage-guided scheduling "
                             "(pure legacy generator on every seed)")
    parser.add_argument("--round-size", type=int, default=25,
                        help="seeds per coverage-scheduling round")
    parser.add_argument("--oracle-words", type=int, default=20_000,
                        help="random words for the oracle cross-check sweep")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write the full report JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help=f"CI smoke: {SMOKE_SEEDS} seeds, 4 workers, "
                             f"JSON to conformance_smoke.json unless --json")
    parser.add_argument("--full", action="store_true",
                        help=f"nightly: {FULL_SEEDS} seeds, 4 workers, "
                             f"100k oracle words, JSON to "
                             f"conformance_full.json unless --json")
    return parser


def conformance_main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.smoke and args.full:
        print("error: --smoke and --full are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.smoke:
        args.seeds = SMOKE_SEEDS
        args.workers = args.workers or 4
        if args.json_path is None:
            args.json_path = "conformance_smoke.json"
    elif args.full:
        args.seeds = FULL_SEEDS
        args.workers = args.workers or 4
        args.oracle_words = max(args.oracle_words, 100_000)
        if args.json_path is None:
            args.json_path = "conformance_full.json"

    config = ConformanceConfig(
        seeds=tuple(range(args.seed_base, args.seed_base + args.seeds)),
        workers=args.workers,
        guided=not args.unguided,
        round_size=args.round_size,
        oracle_random_words=args.oracle_words,
    )
    report = run_conformance(config)

    print(f"MCONF campaign: {args.seeds} seed(s), four-way lockstep "
          f"(interpreter / chained / profiled / hooked), "
          f"{'guided' if config.guided else 'unguided'} "
          f"(workers={args.workers or 'inline'})")
    print(format_summary(report))

    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(report_json(report) + "\n")
        print(f"report written to {args.json_path}")

    bad = failures(report)
    if bad:
        print(f"error: {bad} silent-corruption-class failure(s) — "
              f"see the report", file=sys.stderr)
        return 1
    return 0
