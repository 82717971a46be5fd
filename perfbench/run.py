"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim_functional --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload fleet_mixed --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --regen-goldens
    python3 perfbench/run.py --compare old.json new.json

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same seeded stream untraced and then traced, and reports the per-layer
metrics, ``trace.overhead`` and a Chrome trace under ``perfbench/out/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it carry the
host fingerprint and ``failed_frac``.  Metric names and units come from
``BENCHMARK.json``; what each one means is in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")
GOLDENS = os.path.join(HERE, "goldens.json")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("sim_functional", "sim_pipeline", "fleet_mixed")

#: Jobs an untraced sim run measures at least: p90 then has at least
#: ten samples beyond it.
MIN_JOBS = 100

#: Requests an untraced fleet run measures at least.  20 blocks take
#: longer than ``run_seconds`` on a 2-core host, so every run measures
#: the same 400 requests and p90 always falls at the same rank among
#: the long ones.  The fleet's speed swings by +-10% from one 100-request
#: stretch to the next, so a run averages over four of them.  A
#: ``--minimal`` run measures the fewest that p90 allows.
FLEET_MIN_REQUESTS = 400
FLEET_MINIMAL_REQUESTS = 100

#: Requests sent before the fleet is timed, so that the first boots of
#: each (program, size) on each shard are not measured as latency.
FLEET_WARMUP_REQUESTS = 40


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path, or refuse."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def declared_metrics() -> tuple:
    """``({e2e name: unit}, {per-layer name: unit})`` from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def regenerate_goldens() -> dict:
    """Golden results for every job the generators can emit, from the
    reference interpreter with the tcache off."""
    import fleetjobs
    import simjobs
    from workload_gen import fleet_cells, fleet_request, sim_grid

    goldens = {}
    for engine in ("functional", "pipeline"):
        goldens[f"sim_{engine}"] = {
            simjobs.golden_key(p, s): simjobs.reference_job(p, s, engine)
            for p, s in sim_grid(engine)}
    goldens["fleet"] = {}
    for kind, program in fleet_cells():
        body, key = fleet_request(kind, program)
        goldens["fleet"][key] = fleetjobs.reference_result(body)
    return goldens


def _run_sim(engine: str, args, goldens: dict) -> dict:
    import simjobs
    from spans import NullRecorder, SpanRecorder

    goldens = goldens[f"sim_{engine}"]
    if not args.trace:
        phase = simjobs.run_phase(engine, args.seed, args.seconds, MIN_JOBS,
                                  goldens, NullRecorder(), args.minimal)
        return {"values": simjobs.e2e_metrics(phase),
                "passed": len(phase["jobs"]), "failures": phase["failures"],
                "host_scale": simjobs.host_scale(phase)}
    plain = simjobs.run_phase(engine, args.seed, args.seconds / 2, 1,
                              goldens, NullRecorder(), args.minimal)
    recorder = SpanRecorder()
    traced = simjobs.run_phase(engine, args.seed, args.seconds / 2, 1,
                               goldens, recorder, args.minimal)
    values = simjobs.layer_metrics(traced, recorder)
    values["trace.overhead"] = (simjobs.throughput_mips(plain)
                                / simjobs.throughput_mips(traced))
    return {"values": values,
            "passed": len(plain["jobs"]) + len(traced["jobs"]),
            "failures": plain["failures"] + traced["failures"],
            "host_scale": simjobs.host_scale(traced), "recorder": recorder}


async def _run_fleet(args, goldens: dict) -> dict:
    from time import perf_counter

    import fleetjobs
    from measure import HostSampler, window_scale
    from spans import NullRecorder, SpanRecorder
    from workload_gen import BLOCK_SIZE, FleetStream, fleet_request

    goldens = goldens["fleet"]
    clients = min(2, os.cpu_count() or 1)
    if not args.trace:
        sampler = HostSampler()
        try:
            setup_start = perf_counter()
            ready_times = []
            for _ in range(fleetjobs.BRING_UPS - 1):
                server = fleetjobs.FleetServer(SRC)
                try:
                    ready_times.append(await server.wait_ready())
                finally:
                    server.stop()
            server = fleetjobs.FleetServer(SRC)
            try:
                ready_times.append(await server.wait_ready())
                setup_end = perf_counter()
                warm = await fleetjobs.run_phase(
                    server.port, args.seed, 0.0, FLEET_WARMUP_REQUESTS,
                    goldens, NullRecorder(), clients)
                phase_start = perf_counter()
                phase = await fleetjobs.run_phase(
                    server.port, args.seed, args.seconds,
                    FLEET_MINIMAL_REQUESTS if args.minimal
                    else FLEET_MIN_REQUESTS,
                    goldens, NullRecorder(), clients)
                phase_end = perf_counter()
                _, metrics = await fleetjobs.http_call(server.port, "GET",
                                                       "/metrics")
                rss = server.tree_peak_rss_mib()
            finally:
                server.stop()
        finally:
            samples = sampler.stop()
        setup_scale = window_scale(samples, setup_start, setup_end)
        scale = window_scale(samples, phase_start, phase_end)
        failures = warm["failures"] + phase["failures"]
        attempted = len(warm["outcomes"]) + len(phase["outcomes"])
        return {"values": fleetjobs.e2e_metrics(
                    phase, ready_times, metrics, rss, setup_scale, scale),
                "passed": attempted - len(failures), "failures": failures,
                "host_scale": scale}

    recorder = SpanRecorder()
    server = fleetjobs.FleetServer(SRC)
    try:
        await server.wait_ready()
        plain = await fleetjobs.run_phase(
            server.port, args.seed, args.seconds / 2, BLOCK_SIZE, goldens,
            NullRecorder(), clients)
        _, before = await fleetjobs.http_call(server.port, "GET", "/metrics")
        traced = await fleetjobs.run_phase(
            server.port, args.seed, args.seconds / 2, BLOCK_SIZE, goldens,
            recorder, clients)
        _, after = await fleetjobs.http_call(server.port, "GET", "/metrics")
    finally:
        server.stop()
    longs = [fleet_request(kind, program)
             for kind, program in FleetStream(args.seed).next_block()
             if kind == "long"]
    replay = fleetjobs.replay_long(longs, goldens, recorder)
    values = fleetjobs.layer_metrics(traced, before, after, replay)
    values["trace.overhead"] = (fleetjobs.throughput_mips(plain)
                                / fleetjobs.throughput_mips(traced))
    failures = plain["failures"] + traced["failures"] + replay["failures"]
    attempted = len(plain["outcomes"]) + len(traced["outcomes"]) + len(longs)
    return {"values": values, "passed": attempted - len(failures),
            "failures": failures, "recorder": recorder}


def run_workload(args) -> dict:
    """Run one workload; returns the full result record."""
    import asyncio

    from measure import host_fingerprint

    with open(GOLDENS) as fh:
        goldens = json.load(fh)
    if args.workload == "fleet_mixed":
        run = asyncio.run(_run_fleet(args, goldens))
    else:
        run = _run_sim(args.workload.split("_", 1)[1], args, goldens)
    values, failures = run["values"], run["failures"]
    e2e, layers = declared_metrics()
    units = layers if args.trace else e2e
    # A layer this workload does not run did no work: it reports 0.
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    unknown = sorted(set(values) - set(units))
    attempted = run["passed"] + len(failures)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": host_fingerprint(),
        "host_scale": run.get("host_scale"),
        "correct": not failures and not unknown,
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted if attempted else 1.0,
        "metrics": metrics, "failures": failures[:20],
        "undeclared_metrics": unknown,
    }
    if run.get("recorder") is not None:
        record["chrome_trace"] = _write_trace(args, run["recorder"])
    return record


def _write_trace(args, recorder) -> str:
    from repro.profile.exporters import validate_chrome_trace

    payload = recorder.chrome_trace(f"perfbench {args.workload}")
    validate_chrome_trace(payload)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return os.path.relpath(path, ROOT)


def compare(path_a: str, path_b: str) -> None:
    """Print the metric ratios of two result records (``--out`` files)
    from the same host; refuse records from different hosts."""
    from measure import check_comparable

    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    check_comparable(a, b)
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"{name:<32} {ma['value']:>14.6g} {mb['value']:>14.6g} "
              f"{ratio:>8.3f}x  {ma['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--minimal", action="store_true",
                        help="smallest job sizes, fewest fleet requests "
                             "(smoke test)")
    parser.add_argument("--out", help="also write the full record here")
    parser.add_argument("--regen-goldens", action="store_true",
                        help="recompute perfbench/goldens.json")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --out records from one host")
    args = parser.parse_args(argv)
    _import_program()
    sys.path.insert(0, HERE)

    if args.compare:
        compare(*args.compare)
        return 0
    if args.regen_goldens:
        goldens = regenerate_goldens()
        with open(GOLDENS, "w") as fh:
            json.dump(goldens, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(GOLDENS, ROOT)}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    record = run_workload(args)
    print(f"host: {json.dumps(record['host'], sort_keys=True)}")
    if record["host_scale"] is not None:
        print(f"host time scale to the reference host: "
              f"{record['host_scale']:.4f}")
    for name, m in record["metrics"].items():
        print(f"  {name:<32} {m['value']:>14.6f} {m['unit']}")
    print(f"  {'failed_frac':<32} {record['failed_frac']:>14.6f} ratio "
          f"({record['failed']} of {record['attempted']})")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
