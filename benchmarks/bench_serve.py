"""MSERVE serving benchmark: a traffic generator against a live fleet.

Unlike the other benchmarks this one exercises the *service*, not a
single machine: it boots a real :class:`repro.serve.fleet.Fleet` with
process shards behind the real asyncio HTTP front end, then drives a
mixed request stream through actual TCP connections:

* all six named MPROF workloads, repeatedly (this is what fills the
  warm-start pools — the first request per (workload, shard) boots
  cold, the rest restore the pooled snapshot);
* inline user programs (assembled + MAS-linted on admission);
* deliberately bad requests (assembly errors, lint rejects, unknown
  workloads) that the gate must bounce with a structured error while
  the rest of the stream keeps flowing.

The run asserts the serving contract:

* **zero failures** — every well-formed request completes with
  ``status: ok``; every bad request is rejected at the gate
  (``assembly_error`` / ``lint_rejected`` / ``bad_request``), and no
  response ever reports ``shard_failure``;
* **zero corruption** — each workload's ``digest_sha`` matches a
  golden digest computed locally on a dedicated machine before the
  server boots.  Warm-started, preempted and migrated runs are all
  bit-identical to a machine that ran alone;
* **warm starts pay off** — the fleet-wide mean warm setup (snapshot
  restore) is ≥2x faster than the mean cold boot (build + assemble +
  load), asserted in the full run;
* **the fleet actually shards** — the full run uses 4 process shards
  and checks that more than one shard served traffic.

The JSON (``BENCH_serve.json``) records machines-per-second, aggregate
host MIPS, setup times and request latency percentiles (p50/p99), plus
a ``trajectory`` list for trend tracking across PRs.  ``--smoke`` is
the CI mode: 2 shards, ~50 requests, results to ``serve_smoke.json``
(uploaded as an artifact) so the committed full-run JSON is never
clobbered.

Run directly::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke    # CI
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

from repro.profile.workloads import WORKLOADS
from repro.serve.api import architectural_digest, digest_hex, parse_request
from repro.serve.fleet import Fleet, FleetConfig
from repro.serve.http import start_server
from repro.serve.shard import ShardWorker

JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                         "BENCH_serve.json")
SMOKE_JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                               "serve_smoke.json")
#: Label this PR's numbers carry in the JSON trajectory.
TRAJECTORY_LABEL = "regions"

#: Iteration count per workload request — small enough that a request is
#: latency- not compute-bound, large enough to cross several quanta for
#: the long workloads (so preemption/migration actually happens).
ITERS = {"full": 400, "smoke": 150}

#: Inline programs the generator mixes in: (label, source, must_admit).
INLINE_PROGRAMS = [
    ("sum_loop",
     "_start:\n    li t0, 50\n    li t1, 0\nloop:\n    add t1, t1, t0\n"
     "    addi t0, t0, -1\n    bnez t0, loop\n    halt\n", True),
    ("console_hello",
     "_start:\n    li t0, CONSOLE_TX\n    li t1, 'h'\n    sw t1, 0(t0)\n"
     "    li t1, 'i'\n    sw t1, 0(t0)\n    halt\n", True),
    ("bad_mnemonic", "_start:\n    frobnicate x1\n", False),
    ("fall_off_end", "_start:\n    li t0, 1\n    addi t0, t0, 1\n", False),
]


def golden_digests(iters: int) -> dict:
    """Per-workload golden digest, computed on a dedicated worker before
    the server exists — the corruption oracle for every response."""
    worker = ShardWorker("golden")
    digests = {}
    for name in sorted(WORKLOADS):
        spec = parse_request({"workload": name, "iters": iters},
                             f"golden-{name}", 50_000_000)
        response = worker.execute({
            "spec": spec, "quantum": 50_000_000,
            "budget_left": spec.max_instructions,
            "resume": None, "console": "", "cycles_done": 0,
        })
        assert response["kind"] == "done" and response["error"] is None, \
            (name, response["error"])
        digests[name] = response["result"]["digest_sha"]
    return digests


async def _request(host, port, method, path, body=None):
    reader, writer = await asyncio.open_connection(host, port)
    payload = json.dumps(body).encode() if body is not None else b""
    writer.write((f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
                  f"Content-Length: {len(payload)}\r\n"
                  f"Connection: close\r\n\r\n").encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    status = int(raw.split(b" ", 2)[1])
    return status, json.loads(raw.split(b"\r\n\r\n", 1)[1])


def request_stream(total: int, iters: int) -> list:
    """The mixed request list: workloads round-robin + inline programs.

    Deterministic by construction — every 8th slot is an inline program
    (every 16th of those a must-reject), the rest cycle the six named
    workloads, so any (total, iters) pair replays identically.
    """
    names = sorted(WORKLOADS)
    stream = []
    for i in range(total):
        if i % 8 == 7:
            label, source, ok = INLINE_PROGRAMS[(i // 8) % len(INLINE_PROGRAMS)]
            stream.append(("source", label,
                           {"source": source, "label": label}, ok))
        else:
            name = names[i % len(names)]
            stream.append(("workload", name,
                           {"workload": name, "iters": iters}, True))
    return stream


async def drive(host, port, stream, concurrency: int = 24):
    """Fire the stream with bounded concurrency; returns raw outcomes."""
    gate = asyncio.Semaphore(concurrency)

    async def one(entry):
        kind, name, body, must_admit = entry
        async with gate:
            status, response = await _request(host, port, "POST", "/run",
                                              body)
        return {"kind": kind, "name": name, "must_admit": must_admit,
                "status": status, "response": response}

    return await asyncio.gather(*[one(e) for e in stream])


def check_outcomes(outcomes, golden) -> dict:
    """The zero-failures / zero-corruption contract; returns tallies."""
    tallies = {"ok": 0, "rejected": 0, "corrupted": 0, "failed": 0,
               "warm": 0, "preempted": 0, "migrated": 0}
    for out in outcomes:
        response = out["response"]
        if not out["must_admit"]:
            assert out["status"] == 400, (out["name"], response)
            assert response["error"]["kind"] in ("assembly_error",
                                                 "lint_rejected"), response
            tallies["rejected"] += 1
            continue
        if out["status"] != 200 or response.get("status") != "ok":
            tallies["failed"] += 1
            continue
        tallies["ok"] += 1
        tallies["warm"] += bool(response.get("warm"))
        tallies["preempted"] += bool(response.get("preemptions"))
        tallies["migrated"] += bool(response.get("migrations"))
        if out["kind"] == "workload":
            if response["result"]["digest_sha"] != golden[out["name"]]:
                tallies["corrupted"] += 1
    return tallies


async def run_experiment(shards: int, total: int, iters: int,
                         quantum: int) -> dict:
    golden = golden_digests(iters)
    fleet = Fleet(FleetConfig(shards=shards, mode="process",
                              quantum=quantum)).start()
    server = await start_server(fleet, port=0)
    host, port = server.sockets[0].getsockname()[:2]
    try:
        outcomes = await drive(host, port, request_stream(total, iters))
        tallies = check_outcomes(outcomes, golden)
        _status, metrics = await _request(host, port, "GET", "/metrics")
    finally:
        server.close()
        fleet.stop()
    shards_used = {out["response"].get("shard") for out in outcomes
                   if out["response"].get("shard") is not None}
    return {"tallies": tallies, "metrics": metrics,
            "shards_used": sorted(shards_used), "requests": total}


def check_shape(result: dict, *, full: bool) -> None:
    tallies, metrics = result["tallies"], result["metrics"]
    assert tallies["failed"] == 0, f"failed requests: {tallies}"
    assert tallies["corrupted"] == 0, f"corrupted digests: {tallies}"
    assert metrics["requests"]["failed"] == 0, metrics["requests"]
    assert tallies["warm"] > 0, "no warm starts — the pool is dead"
    assert len(result["shards_used"]) > 1, \
        f"traffic never sharded: {result['shards_used']}"
    setup = metrics["setup"]
    if full:
        assert setup["warm_mean_seconds"] * 2 <= setup["cold_mean_seconds"], \
            f"warm start is not >=2x faster than cold boot: {setup}"
        assert metrics["requests"]["preemptions"] > 0, \
            "quantum never preempted anything"


def summary_lines(result: dict) -> str:
    m, t = result["metrics"], result["tallies"]
    lat, thr, setup = m["latency"], m["throughput"], m["setup"]
    speedup = (setup["cold_mean_seconds"] / setup["warm_mean_seconds"]
               if setup["warm_mean_seconds"] else 0.0)
    lines = [
        f"MSERVE traffic run: {result['requests']} requests, "
        f"{m['shards']} process shard(s), quantum {m['quantum']}",
        f"  ok {t['ok']}  rejected {t['rejected']}  failed {t['failed']}  "
        f"corrupted {t['corrupted']}",
        f"  warm-started {t['warm']}  preempted {t['preempted']}  "
        f"migrated {t['migrated']}",
        f"  throughput: {thr['machines_per_second']:.2f} machines/s, "
        f"{thr['aggregate_mips']:.3f} aggregate MIPS "
        f"({thr['busy_mips']:.3f} busy MIPS)",
        f"  latency: p50 {lat['p50_seconds'] * 1e3:.1f} ms, "
        f"p99 {lat['p99_seconds'] * 1e3:.1f} ms",
        f"  setup: cold {setup['cold_mean_seconds'] * 1e3:.2f} ms, "
        f"warm {setup['warm_mean_seconds'] * 1e3:.2f} ms "
        f"({speedup:.1f}x)",
    ]
    return "\n".join(lines)


def _json_payload(result: dict, *, smoke: bool) -> dict:
    m, t = result["metrics"], result["tallies"]
    setup = m["setup"]
    point = {
        "label": TRAJECTORY_LABEL,
        "shards": m["shards"],
        "requests": result["requests"],
        "ok": t["ok"], "rejected": t["rejected"],
        "failed": t["failed"], "corrupted": t["corrupted"],
        "machines_per_second": round(
            m["throughput"]["machines_per_second"], 3),
        "aggregate_mips": round(m["throughput"]["aggregate_mips"], 4),
        "busy_mips": round(m["throughput"]["busy_mips"], 4),
        "p50_ms": round(m["latency"]["p50_seconds"] * 1e3, 2),
        "p99_ms": round(m["latency"]["p99_seconds"] * 1e3, 2),
        "cold_setup_ms": round(setup["cold_mean_seconds"] * 1e3, 3),
        "warm_setup_ms": round(setup["warm_mean_seconds"] * 1e3, 3),
        "warm_speedup": round(
            setup["cold_mean_seconds"] / setup["warm_mean_seconds"], 2)
        if setup["warm_mean_seconds"] else None,
        "preemptions": m["requests"]["preemptions"],
        "migrations": m["requests"]["migrations"],
    }
    payload = {"benchmark": "serve", "smoke": smoke, "summary": point,
               "metrics": m}
    if not smoke:
        previous = {}
        if os.path.exists(JSON_PATH):
            with open(JSON_PATH) as fh:
                previous = json.load(fh)
        trajectory = [e for e in previous.get("trajectory", [])
                      if e.get("label") != TRAJECTORY_LABEL]
        trajectory.append(point)
        payload["trajectory"] = trajectory
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: 2 shards, ~50 requests, "
                             "results to serve_smoke.json")
    args = parser.parse_args(argv)
    if args.smoke:
        shards, total, iters, quantum = 2, 50, ITERS["smoke"], 3_000
    else:
        shards, total, iters, quantum = 4, 200, ITERS["full"], 3_000
    result = asyncio.run(run_experiment(shards, total, iters, quantum))
    check_shape(result, full=not args.smoke)
    print(summary_lines(result))
    path = SMOKE_JSON_PATH if args.smoke else JSON_PATH
    payload = _json_payload(result, smoke=args.smoke)  # reads the old file
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
