"""``python -m repro profile`` — the MPROF command-line front end.

Profile a named workload or an assembly file on a simulated machine::

    python -m repro profile tight_loop
    python -m repro profile mcode_heavy --engine pipeline --top 5
    python -m repro profile program.s --json out.json
    python -m repro profile --list

The run executes with the trace event sink attached, then prints the
hot-trace report (top traces by retired instructions, per-mroutine /
per-loop attribution, disassembled trace heads) and the engine's
counter summary.  ``--json`` additionally exports the recorded timeline
as Chrome-trace/Perfetto JSON (validated against the schema before it
is written — CI's ``profile-smoke`` job gates on this).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ReproError
from repro.machine.builder import build_metal_machine
from repro.profile.exporters import (
    chrome_trace,
    format_hot_traces,
    validate_chrome_trace,
)
from repro.profile.registry import MetricsRegistry
from repro.profile.workloads import (
    WORKLOADS,
    build_workload,
    workload_source,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Profile a workload or assembly program (MPROF).",
    )
    parser.add_argument("target", nargs="?",
                        help="workload name (see --list) or a .s file")
    parser.add_argument("--list", action="store_true",
                        help="list the named workloads and exit")
    parser.add_argument("--engine", choices=("functional", "pipeline"),
                        default="functional")
    parser.add_argument("--iters", type=int, default=None,
                        help="iteration count for named workloads")
    parser.add_argument("--top", type=int, default=10,
                        help="hot traces to report (default 10)")
    parser.add_argument("--capacity", type=int, default=None,
                        help="retired-trace ring capacity")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write Chrome-trace/Perfetto JSON to PATH")
    parser.add_argument("--base", type=lambda v: int(v, 0), default=0x1000,
                        help="load address for .s files (default 0x1000)")
    parser.add_argument("--max-instructions", type=int, default=5_000_000)
    return parser


def _list_workloads() -> str:
    width = max(len(name) for name in WORKLOADS)
    return "\n".join(
        f"{w.name:<{width}}  {w.description}" for w in WORKLOADS.values()
    )


def _build_target(args):
    """``(machine, source)`` for the requested target."""
    if args.target in WORKLOADS:
        return (build_workload(args.target, engine=args.engine),
                workload_source(args.target, args.iters))
    with open(args.target) as fh:
        source = fh.read()
    return build_metal_machine([], engine=args.engine), source


def profile_main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        print(_list_workloads())
        return 0
    if not args.target:
        print("error: need a workload name or .s file (see --list)",
              file=sys.stderr)
        return 2
    try:
        machine, source = _build_target(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    sink = machine.set_profiling(True, capacity=args.capacity)
    registry = MetricsRegistry(machine)
    before = registry.snapshot()
    try:
        result = machine.load_and_run(
            source, base=args.base, max_instructions=args.max_instructions)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    delta = registry.snapshot().delta(before)

    print(f"[{result.stop_reason}] {result.instructions} instructions, "
          f"{result.cycles} cycles (cpi {result.cpi:.2f})")
    print(f"profiled {sink.total_traces} trace retirements "
          f"({len(sink)} in the ring{', wrapped' if sink.wrapped else ''}), "
          f"{len(sink.events())} tcache events")
    print()
    print(format_hot_traces(machine, registry, snapshot=delta, top=args.top))
    print()
    print(machine.perf.summary())

    if args.json:
        payload = chrome_trace(machine, sink, registry=registry)
        validate_chrome_trace(payload)
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"\nchrome trace written to {args.json} "
              f"({len(payload['traceEvents'])} events)")
    return 0


if __name__ == "__main__":
    sys.exit(profile_main())
